"""Approximation analysis of linear temporal functionals.

The library studies how well two linear model families, dilated
convolutional stacks and recurrences, can approximate a target temporal
relationship given by its representation sequence.  It provides exact
sequences, window tensorisation with pooled spectra, a complexity measure
against decay profiles, two-sided approximation-rate bounds with
per-budget error curves, exact and low-rank model synthesis, and
head-to-head comparison scenarios.

Each public name loads on first use: `import memlens` imports no
submodule, and memlens.X (or `from memlens import X`, or a star import)
imports the submodule _PUBLIC lists X under and keeps X in this
namespace, so a command pays only for the modules it calls.
"""

import importlib as _importlib

# Each public name, under the submodule that defines it.
_PUBLIC = {
    "sequences": ("Family", "Scalar", "Sequence", "make_target"),
    "tensors": ("Spectrum", "singular_values", "truncation_error_bound",
                "tt_svd", "window_spectrum"),
    "models": ("CnnSpec", "RnnSpec", "cnn_min_depth_expdecay",
               "cnn_representation", "power_sum_delta_bound",
               "rnn_min_width_impulse", "rnn_representation",
               "synthesize_lowrank", "synthesize_radix"),
    "bounds": ("DecayProfile", "DepthTable", "complexity_measure", "curve_points",
               "effective_filters", "error_curve", "rate_bound_interval"),
    "experiments": ("conformance_suite", "error_curve_study"),
}
_SUBMODULE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    """Load a public name from its submodule and keep it here (PEP 562)."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{_SUBMODULE[name]}")
    value = globals()[name] = getattr(module, name)
    return value
