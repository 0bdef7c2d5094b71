"""Position-only reading order: row and column layouts.

Lines are clustered into rows (or columns for vertical layouts) and read
top-to-bottom left-to-right, or left-to-right top-to-bottom. This is the
order lines are handed to the LLM in, and the full fallback answer when
the LLM is unavailable.
"""

from blockspot import choose_mode, geometric_order
from blockspot.model import Line, Quad


def line_at(line_id, text, x0, y0, x1, y1):
    quad = Quad.from_points([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    return Line(id=line_id, box=quad, text=text)


# a menu: three stacked rows, the middle one split into two columns
menu = [
    line_at(0, "TODAY'S SPECIALS", 40, 10, 360, 50),
    line_at(1, "SOUP", 40, 70, 160, 100),
    line_at(2, "4.50", 300, 72, 360, 98),
    line_at(3, "FRESH BREAD DAILY", 40, 130, 330, 160),
]
print("mode:", choose_mode(menu).value)
order = geometric_order(menu)
texts = {line.id: line.text for line in menu}
print("reading order:", " | ".join(texts[i] for i in order))

# the misleading sign: big text left, small text right, one shared row.
# position alone reads the left line first; meaning says otherwise.
sign = [
    line_at(0, "20 REASONS", 310, 20, 420, 60),
    line_at(1, "TO LOVE CYCLING", 0, 10, 300, 90),
]
sign_texts = {line.id: line.text for line in sign}
print("\nsign read by position:", " ".join(sign_texts[i] for i in geometric_order(sign)))

# vertical banner: taller than wide, so columns win
banner = [
    line_at(0, "LEFT COLUMN", 10, 10, 40, 300),
    line_at(1, "RIGHT COLUMN", 60, 10, 90, 300),
]
print("\nvertical banner mode:", choose_mode(banner).value)
print("column order:", [i for i in geometric_order(banner)])
