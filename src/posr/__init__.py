"""Toolkit for problem-oriented segmentation and retrieval of timestamped
conversation transcripts: baselines, LLM protocols, time-aware metrics,
threshold calibration, and downstream lexical/time analyses."""

from .model import (
    Labeling,
    Line,
    Problem,
    REF_NONE,
    REF_NOT_IN_CORPUS,
    RefLabel,
    SegmentSpan,
    Transcript,
    Worksheet,
    labeling_to_spans,
    spans_to_labeling,
)

__version__ = "0.1.0"

__all__ = [
    "Labeling",
    "Line",
    "Problem",
    "REF_NONE",
    "REF_NOT_IN_CORPUS",
    "RefLabel",
    "SegmentSpan",
    "Transcript",
    "Worksheet",
    "labeling_to_spans",
    "spans_to_labeling",
    "__version__",
]
