"""Block-level scene-text post-processing.

Turns line-level detection/recognition output into ordered block text
using geometric ordering plus an LLM reading-order step with guarded
fallbacks, and evaluates predictions against ground truth via IoU
matching, fuzzy substring alignment, and string similarity metrics.
"""

from .evaluation import EvalPair, EvalReport, block_hull, evaluate, match_blocks
from .fuzzy import MatchResult, best_fuzzy_substring, levenshtein
from .geo_order import OrderingMode, choose_mode, geometric_order
from .geometry import (
    AlignedRect,
    GeometryError,
    RecognizerSpec,
    crop_rect,
    iou,
    snap_rotation,
    split_for_recognizer,
    translate_block_boxes,
)
from .llm import (
    FinishReason,
    HttpBackend,
    LlmBackend,
    LlmConfig,
    LlmError,
    LlmReply,
    ReplayBackend,
    ScriptedBackend,
    TranscriptRecorder,
    complete,
    estimate_tokens,
    fits_context,
)
from .model import (
    Block,
    Document,
    DocumentError,
    DocumentKind,
    Line,
    Quad,
    load_document,
    parse_document,
    save_document,
    serialize_document,
    validate_document,
)
from .metrics import (
    MetricVector,
    compute_metrics,
    jaro,
    jaro_winkler,
    normalized_levenshtein,
    ratcliff_obershelp,
)
from .pipeline import (
    PipelineError,
    OrderingOutcome,
    Recognizer,
    RecognizerRequest,
    EchoRecognizer,
    ScriptedRecognizer,
    Strategy,
    assemble_line_text,
    build_block_prompt,
    order_block,
    plan_recognition,
    recognize_document,
    run,
)
from .prompting import (
    BlockPromptInput,
    ChatPrompt,
    build_prompt,
    expected_length,
    length_guard,
)

__version__ = "0.1.0"
