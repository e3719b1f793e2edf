"""Directory-page parsing for financial prospectuses.

The pipeline finds pages that list the parties around a fund (managers,
custodians, auditors, counsel), labels each text span as a header or a body,
rebuilds the page's reading hierarchy bottom-up and emits directory blocks:
the stack of headers leading to each body entry.
"""

from .annotate import (
    Annotation,
    AnnotationLabel,
    Gazetteer,
    GroupAnnotations,
    annotate,
    is_address_candidate,
)
from .features import FEATURE_NAMES, FeatureVector, extract_features
from .forest import (
    Dataset,
    EmptyClassError,
    ForestHyperparams,
    ForestModel,
    load_model,
    predict_score,
    resample,
    save_model,
    train,
)
from .segment import (
    EmptyPageError,
    LabeledSpan,
    PageStyleStats,
    SpanLabel,
    page_style_stats,
    segment_page,
)
from .tree import (
    DirectoryBlock,
    NodeLabel,
    ReadingTree,
    TreeInvariantError,
    TreeNode,
    TreeParams,
    build_tree,
    cluster_headers,
    directory_blocks,
    reading_sequence,
    validate_tree,
)
from .visual import (
    BBox,
    GeometryError,
    Group,
    Line,
    SchemaError,
    Segment,
    StyleInfo,
    VisualPage,
    group_layout,
    group_text,
    parse_document,
)

__version__ = "0.1.0"

#: The stages ``metrics.evaluate`` scores.  They live here so that the CLI
#: lists them without importing ``metrics``.
EVAL_STAGES = ("classifier", "segmentation", "tree")

# Only ``eval`` scores, so ``metrics`` is imported when one of its names is
# first read.
_METRICS_NAMES = frozenset(
    {"PRF", "PageSetMismatch", "eval_classifier", "eval_tree", "evaluate", "normalize_text"})


def __getattr__(name):
    if name in _METRICS_NAMES:
        from . import metrics

        return getattr(metrics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Annotation",
    "AnnotationLabel",
    "BBox",
    "Dataset",
    "DirectoryBlock",
    "EVAL_STAGES",
    "EmptyClassError",
    "EmptyPageError",
    "FEATURE_NAMES",
    "FeatureVector",
    "ForestHyperparams",
    "ForestModel",
    "Gazetteer",
    "GeometryError",
    "Group",
    "GroupAnnotations",
    "LabeledSpan",
    "Line",
    "NodeLabel",
    "PRF",
    "PageSetMismatch",
    "PageStyleStats",
    "ReadingTree",
    "SchemaError",
    "Segment",
    "SpanLabel",
    "StyleInfo",
    "TreeInvariantError",
    "TreeNode",
    "TreeParams",
    "VisualPage",
    "annotate",
    "build_tree",
    "cluster_headers",
    "directory_blocks",
    "eval_classifier",
    "eval_tree",
    "evaluate",
    "extract_features",
    "group_layout",
    "group_text",
    "is_address_candidate",
    "load_model",
    "normalize_text",
    "page_style_stats",
    "parse_document",
    "predict_score",
    "reading_sequence",
    "resample",
    "save_model",
    "segment_page",
    "train",
    "validate_tree",
]
