"""Per-line geometry: rotation snapping, crop windows, recognizer splits, IoU.

Every detected line arrives as a quadrilateral. Before recognition the
line is rotated to the nearest axis, cropped, and cut into parts that
keep the recognizer's 32x128 aspect ratio.
"""

from blockspot import crop_rect, rect_iou, snap_rotation, split_for_recognizer
from blockspot.geometry import RECOGNIZER_ASPECT, quad_bounds, rotate_point

# a 400x50 line tilted by 30 degrees
upright = [(100, 300), (500, 300), (500, 350), (100, 350)]
tilted = [rotate_point(p, 30.0) for p in upright]

theta = snap_rotation(tilted)
print(f"detected tilt compensated by rotating {theta:+.1f} degrees")

crop = crop_rect(tilted, theta)
print(f"crop window after rotation: {crop.width:.0f} x {crop.height:.0f} px")

parts = split_for_recognizer(crop)
print(f"split into {len(parts)} parts of {parts[0].width:.1f} px each (target aspect {RECOGNIZER_ASPECT}):")
for i, part in enumerate(parts):
    print(f"  part {i}: x {part.x_min:7.1f} .. {part.x_max:7.1f}  (aspect {part.width/part.height:.2f})")

# steeper than 45 degrees snaps to the y-axis instead
steep = [rotate_point(p, 75.0) for p in upright]
print(f"\na 75-degree line instead rotates by {snap_rotation(steep):+.1f} degrees (to the y-axis)")

# block matching compares hulls, the axis-aligned rectangles around a
# block's lines: a two-line ground-truth block against a prediction that
# holds only its first line
below = [(100, 360), (420, 360), (420, 410), (100, 410)]
truth = quad_bounds(upright + below)
predicted = quad_bounds(upright)
print(f"\nground-truth hull {truth.width:.0f} x {truth.height:.0f}, predicted hull {predicted.width:.0f} x {predicted.height:.0f}")
print(f"IoU of the two hulls: {rect_iou(predicted, truth):.4f}")
print(f"IoU of a hull with itself: {rect_iou(truth, truth):.1f}")
