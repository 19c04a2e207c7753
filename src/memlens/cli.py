"""Command line surface for the library.

Each subcommand is one argparse subparser plus one handler.  argparse
makes the whole usage check: required flags, choices, and range-checked
numbers (--l >= 2; --K, --M-max and --horizon >= 1), so a malformed
invocation exits 1 before any file is written.  A handler reads its
subparser's namespace, calls the library and serialises the result;
every number it writes comes from one library call.  Exit codes: 0
success, 1 usage error, 2 computation error, 3 a failed check (reproduce,
study).

The parser is built once per process (build_parser is cached) and holds
no per-call state: each main call parses into a fresh namespace, and a
given --K replaces the tuple of default depths.  spectrum, curve and
study take a repeatable --K; measure, bounds and synth read one depth,
so a second --K there is a usage error.

Targets are builtin ids (rho1, rho2, rho3[:H], exp:GAMMA, impulse:T), or
a path to a sequence JSON file.  measure, bounds and synth read a
generated target up to its horizon, or, without one, on its length-l^K
window (tensors.analysis_window).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .sequences import Sequence
from .tensors import analysis_window, window_spectrum
from .bounds import (DecayProfile, complexity_measure, error_curve,
                     rate_bound_interval)
from .charts import line_chart
from .experiments import (comparison_report, conformance_suite,
                          error_curve_study, make_target)
from .models import (effective_filters, replay_residual, synthesize_lowrank,
                     synthesize_radix)
from ._jsontext import dump as _dump

FORMATS = ("csv", "json", "svg")


def _parse_formats(text: str):
    parts = tuple(p for p in text.split(",") if p)
    bad = [p for p in parts if p not in FORMATS]
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown format(s) {', '.join(bad)}; choose from {', '.join(FORMATS)}")
    return parts


def _parse_ints(text: str):
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_floats(text: str):
    try:
        return tuple(float(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


class _Depths(argparse.Action):
    """Repeatable --K: the first one given replaces the default depths."""

    def __call__(self, parser, namespace, value, option_string=None):
        given = getattr(namespace, self.dest)
        setattr(namespace, self.dest,
                ([] if given is self.default else given) + [value])


class _Depth(_Depths):
    """--K for a command that reads one depth: a second one is refused."""

    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not self.default:
            raise argparse.ArgumentError(
                self, "this command reads one depth; give it once")
        super().__call__(parser, namespace, value, option_string)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class UsageError(Exception):
    """A malformed invocation argparse cannot see (the --g-params count,
    --K with radix synthesis)."""


def load_target(text: str):
    """(Sequence, label) from a builtin id or a JSON file path."""
    if text.endswith(".json") or os.path.sep in text:
        with open(text) as fh:
            seq = Sequence.from_json(json.load(fh))
        label = os.path.splitext(os.path.basename(text))[0]
        return seq, label
    name, _, arg = text.partition(":")
    if name in ("rho1", "rho2"):
        return make_target(name), name
    if name == "rho3":
        horizon = int(arg) if arg else None
        return make_target(name, horizon=horizon), text
    if name == "exp":
        if not arg:
            raise ValueError("exp target needs a value, e.g. exp:0.9")
        return make_target(name, gamma=float(arg)), text
    if name == "impulse":
        if not arg:
            raise ValueError("impulse target needs a position, e.g. impulse:19")
        return make_target(name, t=int(arg)), text
    raise ValueError(f"unknown target {text!r}")


def _profile(family: str, params) -> DecayProfile:
    if family == "table":
        if len(params) < 2:
            raise UsageError("--g-params for table: v1,...,vn,cutoff")
        return DecayProfile.table(params[:-1], int(params[-1]))
    if family == "exponential":
        if not 1 <= len(params) <= 2:
            raise UsageError("--g-params for exponential: b[,a]")
        return DecayProfile.exponential(*params)
    if not 1 <= len(params) <= 2:
        raise UsageError("--g-params for power: p[,a]")
    return DecayProfile.power(*params)


def _emit(out: str, name: str, text: str):
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _safe_label(label: str) -> str:
    return label.replace(":", "-").replace(os.path.sep, "-")


def _cmd_spectrum(args) -> int:
    for text in args.target:
        target, label = load_target(text)
        per_K = []
        for K in args.K:
            spec = window_spectrum(target, args.l, K)
            per_K.append({"K": K, "rank": spec.rank(),
                          "values": [[float(v), int(m)] for v, m in spec.entries]})
        if "json" in args.format:
            _emit(args.out, f"{_safe_label(label)}_spectrum.json",
                  _dump({"target": label, "l": args.l, "per_K": per_K}))
        if "csv" in args.format:
            lines = ["target,l,K,index,mode,value"]
            for row in per_K:
                for idx, (v, m) in enumerate(row["values"], start=1):
                    lines.append(f"{label},{args.l},{row['K']},{idx},{m},{v!r}")
            _emit(args.out, f"{_safe_label(label)}_spectrum.csv",
                  "\n".join(lines) + "\n")
    return 0


def _cmd_measure(args) -> int:
    g = _profile(args.g, args.g_params)
    for text in args.target:
        target, label = load_target(text)
        c = complexity_measure(analysis_window(target, args.l, args.K[0]), args.l, g)
        finite = math.isfinite(c.value)
        _emit(args.out, f"{_safe_label(label)}_measure.json",
              _dump({"target": label, "l": args.l,
                     "g": {"family": args.g, "params": list(args.g_params)},
                     "complexity": c.value if finite else None,
                     "infinite": not finite}))
    return 0


def _cmd_bounds(args) -> int:
    g = _profile(args.g, args.g_params)
    K = args.K[0]
    for text in args.target:
        target, label = load_target(text)
        lower, upper = rate_bound_interval(target, args.l, K, args.channels, g)
        _emit(args.out, f"{_safe_label(label)}_bounds.json",
              _dump({"target": label, "l": args.l, "K": K,
                     "channels": list(args.channels),
                     "effective_filters": effective_filters(
                         args.channels, args.l, K, target.dim),
                     "lower": {"value": lower.value, "halfwidth": lower.halfwidth},
                     "upper": {"value": upper.value, "halfwidth": upper.halfwidth}}))
    return 0


def _cmd_curve(args) -> int:
    for text in args.target:
        target, label = load_target(text)
        table = error_curve(target, args.l, args.K, range(1, args.M_max + 1),
                            target_id=label)
        if "csv" in args.format:
            _emit(args.out, f"{_safe_label(label)}_curve.csv", table.to_csv())
        if "json" in args.format:
            rows = [{"K": r.K, "M": r.M, "rank_term": r.rank_term,
                     "tail_term": r.tail_term, "upper_bound": r.upper_bound}
                    for r in table.rows]
            _emit(args.out, f"{_safe_label(label)}_curve.json",
                  _dump({"target": label, "l": args.l, "rows": rows}))
        if "svg" in args.format:
            series = [(f"K={K}", *table.curve(K)) for K in sorted(set(args.K))]
            svg = line_chart(series, title=f"{label}: approximation bound",
                             x_label="filters M", y_label="upper bound")
            _emit(args.out, f"{_safe_label(label)}_curve.svg", svg + "\n")
    return 0


def _cmd_synth(args) -> int:
    if args.method == "radix" and args.K:
        raise UsageError("--K applies to --method lowrank")
    for text in args.target:
        target, label = load_target(text)
        if args.method == "radix":
            window = analysis_window(target, args.l)
            spec = synthesize_radix(window, args.l)
        else:
            K = args.K[0] if args.K else None
            window = analysis_window(target, args.l, K)
            spec = synthesize_lowrank(window, args.l, K)
        _emit(args.out, f"{_safe_label(label)}_{args.method}.json",
              _dump({"target": label, "method": args.method, "l": args.l,
                     "depth": spec.K, "channels": list(spec.channels),
                     "filter_count": spec.filter_count,
                     "replay_residual": replay_residual(spec, window),
                     "spec": spec.to_json()}))
    return 0


def _cmd_compare(args) -> int:
    given = {key: getattr(args, key) for key in ("gamma", "eps", "K", "horizon")
             if getattr(args, key) is not None}
    report = comparison_report(args.scenario, l=args.l, **given)
    _emit(args.out, f"compare_{args.scenario}.json", _dump(report.to_json()))
    return 0


def _cmd_study(args) -> int:
    study = error_curve_study(l=args.l, K_list=args.K, M_max=args.M_max)
    tables = sorted(study.tables.items())
    for name, table in tables:
        _emit(args.out, f"{name}_curves.csv", table.to_csv())
    for K in sorted(set(args.K)):
        series = [(name, *table.curve(K)) for name, table in tables]
        _emit(args.out, f"curves_K{K}.svg",
              line_chart(series, title=f"upper bound vs M (l={args.l}, K={K})",
                         x_label="effective filters M", y_label="upper bound",
                         log_y=True))
    _emit(args.out, "study_summary.json",
          _dump({"l": study.l, "checks": study.checks, "notes": study.notes}))
    for name, ok in sorted(study.checks.items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if study.passed else 3


def _cmd_reproduce(args) -> int:
    items = conformance_suite()
    lines = [f"{item.status:6s} {item.name}: {item.detail}" for item in items]
    counts = {"PASS": 0, "FAIL": 0, "LOGGED": 0}
    for item in items:
        counts[item.status] += 1
    lines.append(f"totals: {counts['PASS']} pass, {counts['FAIL']} fail, "
                 f"{counts['LOGGED']} logged")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "reproduce.txt"), "w") as fh:
            fh.write(text)
    return 3 if counts["FAIL"] else 0


_HANDLERS = {"spectrum": _cmd_spectrum, "measure": _cmd_measure,
             "bounds": _cmd_bounds, "curve": _cmd_curve, "synth": _cmd_synth,
             "compare": _cmd_compare, "study": _cmd_study,
             "reproduce": _cmd_reproduce}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="memlens",
                     description="spectra, complexity measures, approximation "
                                 "bounds and model synthesis for linear "
                                 "temporal functionals")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    depth = _at_least(1)

    def add_common(p, K, K_help, target=True, g=False, depths=_Depths):
        if target:
            p.add_argument("--target", action="append", required=True,
                           help="builtin id (rho1, rho2, rho3[:H], exp:G, "
                                "impulse:T) or sequence JSON path; repeatable")
        p.add_argument("--l", type=_at_least(2), default=2,
                       help="filter size (default 2)")
        p.add_argument("--K", action=depths, type=depth, default=K, help=K_help)
        p.add_argument("--out", default="", help="output directory (default: stdout)")
        if g:
            p.add_argument("--g", required=True, metavar="FAMILY",
                           choices=("exponential", "power", "table"),
                           help="decay profile family")
            p.add_argument("--g-params", type=_parse_floats, required=True,
                           help="profile parameters (exponential: b[,a]; "
                                "power: p[,a]; table: v1,...,vn,cutoff)")

    p = sub.add_parser("spectrum", help="window tensor spectra and ranks")
    add_common(p, (5,), "depth; repeatable (default 5)")
    p.add_argument("--format", type=_parse_formats, default=("json",))

    p = sub.add_parser("measure", help="complexity measure against a decay profile")
    add_common(p, (5,), "depth whose window measures a target without a "
                        "horizon (default 5)", g=True, depths=_Depth)

    p = sub.add_parser("bounds", help="two-sided approximation bound for explicit channels")
    add_common(p, (5,), "depth (default 5)", g=True, depths=_Depth)
    p.add_argument("--channels", type=_parse_ints, required=True,
                   help="channel counts M_0,...,M_K, e.g. 1,4,4,1")

    p = sub.add_parser("curve", help="error curve tables over a (K, M) sweep")
    add_common(p, (4, 5, 6), "depth; repeatable (default 4,5,6)")
    p.add_argument("--M-max", dest="M_max", type=depth, default=64)
    p.add_argument("--format", type=_parse_formats, default=("csv", "svg"))

    p = sub.add_parser("synth", help="build an exact or low-rank model for a target")
    add_common(p, None, "depth of the low-rank bank, whose length-l^K window "
                        "it synthesises (default: cover the support)",
               depths=_Depth)
    p.add_argument("--method", choices=("radix", "lowrank"), default="radix")

    p = sub.add_parser("compare", help="model-family comparison scenarios")
    p.add_argument("--scenario", required=True, choices=("exp_decay", "impulse_copy"))
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--K", type=depth, default=None)
    p.add_argument("--l", type=_at_least(2), default=2)
    p.add_argument("--horizon", type=depth, default=None)
    p.add_argument("--out", default="")

    p = sub.add_parser("study", help="error-curve study of the builtin targets "
                                     "with its qualitative checks")
    add_common(p, (4, 5, 6), "depth; repeatable (default 4,5,6)", target=False)
    p.add_argument("--M-max", dest="M_max", type=depth, default=64)

    p = sub.add_parser("reproduce", help="replay the worked examples and report conformance")
    p.add_argument("--out", default="")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
