"""DITL substrate: capture synthesis, preprocessing, DITL∩CDN join."""

from .capture import (
    CATEGORIES,
    DitlCapture,
    LetterCapture,
    QueryRow,
    QueryRows,
    TcpRttRow,
    TcpRttRows,
)
from .generate import DitlGenParams, generate_ditl
from .join import JoinedRecursive, JoinStats, join_ditl_cdn, volumes_by_asn
from .preprocess import FilteredDitl, LetterVolumes, PreprocessStats, preprocess

__all__ = [
    "CATEGORIES",
    "DitlCapture",
    "LetterCapture",
    "QueryRow",
    "QueryRows",
    "TcpRttRow",
    "TcpRttRows",
    "DitlGenParams",
    "generate_ditl",
    "JoinedRecursive",
    "JoinStats",
    "join_ditl_cdn",
    "volumes_by_asn",
    "FilteredDitl",
    "LetterVolumes",
    "PreprocessStats",
    "preprocess",
]
