"""Burst-erasure analysis and column-permutation optimization for LDPC codes.

Core objects: `TannerGraph` (sparse parity-check structure),
`PeelingDecoder` (iterative erasure decoding), stopping-set and pivot
analysis, burst-window scanning (`compute_lmax`), the pivot-swap
optimizer (`pss_optimize`), and erasure-channel density evolution
(`threshold`).
"""

from .burst import BurstScanResult, compute_lmax, scan_length
from .codegen import GenSpec, fixtures, gen_regular
from .peeling import PeelingDecoder
from .pss import (PssConfig, PssReport, PssResult, PssRow, choose_swap_target,
                  eligible_swap_targets, format_report, pivot_pool_for_burst,
                  pss_optimize)
from .stopset import (ENUMERATION_LIMIT, InducedSubgraph, PivotSet, StoppingSet,
                      all_pivots_oracle, enumerate_stopping_sets, induced_subgraph,
                      is_stopping_set, min_stopping_set_span, neighboring_pivots,
                      pivot_search)
from .tanner import (GraphValidationError, InternalInvariantError, Permutation,
                     TannerGraph, format_alist, format_permutation, parse_alist,
                     parse_permutation)
from .threshold import EdgeDistribution, de_step, lmax_target, threshold

__version__ = "0.1.0"

__all__ = [
    "BurstScanResult", "EdgeDistribution", "ENUMERATION_LIMIT",
    "GenSpec", "GraphValidationError", "InducedSubgraph",
    "InternalInvariantError", "PeelingDecoder", "Permutation", "PivotSet",
    "PssConfig", "PssReport", "PssResult", "PssRow", "StoppingSet",
    "TannerGraph", "all_pivots_oracle", "choose_swap_target", "compute_lmax",
    "de_step", "eligible_swap_targets", "enumerate_stopping_sets", "fixtures",
    "format_alist", "format_permutation", "format_report", "gen_regular",
    "induced_subgraph", "is_stopping_set", "lmax_target", "min_stopping_set_span",
    "neighboring_pivots", "parse_alist", "parse_permutation",
    "pivot_pool_for_burst", "pivot_search", "pss_optimize", "scan_length",
    "threshold",
]
