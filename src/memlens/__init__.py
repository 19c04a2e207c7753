"""Approximation analysis of linear temporal functionals.

The library studies how well two linear model families, dilated
convolutional stacks and recurrences, can approximate a target temporal
relationship given by its representation sequence.  It provides exact
sequences and their dilated convolution, window tensorisation with pooled
spectra, a complexity measure against decay profiles, two-sided
approximation-rate bounds with per-budget error curves, exact and
low-rank model synthesis, and head-to-head comparison scenarios.
"""

from .sequences import Family, Scalar, Sequence, dilated_conv
from .tensors import (Spectrum, singular_values, truncation_error_bound,
                      tt_svd, window_spectrum)
from .models import (CnnSpec, RnnSpec, cnn_min_depth_expdecay,
                     cnn_representation, effective_filters,
                     power_sum_delta_bound, rnn_min_width_impulse,
                     rnn_representation, synthesize_lowrank, synthesize_radix)
from .bounds import (DecayProfile, ErrorCurveTable, complexity_measure,
                     error_curve, rate_bound_interval)
from .experiments import (ComparisonReport, CurveStudy, comparison_report,
                          conformance_suite, error_curve_study, make_target,
                          oracle_best_rank_matrix)

__all__ = [
    "Family", "Scalar", "Sequence", "dilated_conv",
    "Spectrum", "singular_values", "truncation_error_bound", "tt_svd",
    "window_spectrum",
    "CnnSpec", "RnnSpec", "cnn_min_depth_expdecay", "cnn_representation",
    "effective_filters", "power_sum_delta_bound", "rnn_min_width_impulse",
    "rnn_representation", "synthesize_lowrank", "synthesize_radix",
    "DecayProfile", "ErrorCurveTable", "complexity_measure", "error_curve",
    "rate_bound_interval",
    "ComparisonReport", "CurveStudy", "comparison_report",
    "conformance_suite", "error_curve_study", "make_target",
    "oracle_best_rank_matrix",
]

__version__ = "0.1.0"
