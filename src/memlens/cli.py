"""Command line surface for the library.

Each subcommand is one argparse subparser plus one handler.  argparse
makes the whole usage check: required flags, choices, and range-checked
numbers (--l >= 2; --K, --M-max and --horizon >= 1), so a malformed
invocation exits 1 before any file is written; each command's --format
takes only what it writes.  A handler reads its subparser's namespace,
calls the library and builds its documents; every number it writes
comes from one library call.  A handler writes and prints nothing: it
hands emit each JSON document, or the text of a CSV (csv_text), SVG or
report artifact, and emit, in main, is the one JSON serialiser
(_jsontext.dump).  main prints them all, or writes them all into --out,
once the handler has returned.
Exit codes: 0 success, 1 usage error, 2 computation error, 3 a failed
check (reproduce, study).  Exits 1 and 2 write and print no artifact;
study and reproduce still write theirs on exit 3.

The parser is built once per process (build_parser is cached) and holds
no per-call state: each main call parses into a fresh namespace, and a
given --K replaces the tuple of default depths.  spectrum, curve and
study take a repeatable --K; measure, bounds and synth read one depth,
so a second --K there is a usage error.

Targets are paths to sequence JSON files, or builtin ids (rho1, rho2,
rho3[:H], exp:GAMMA, impulse:T), which sequences.make_target reads as
shorthand for the JSON family forms.  measure, bounds and synth read a
generated target up to its horizon, or, without one, on its length-l^K
window (tensors.analysis_window, which synth leaves to its synthesizer).

Each command imports only the library code it calls: this module loads
sequences and _jsontext, which parsing and every handler share, and each
handler imports the rest of what it calls when it runs, so spectrum
never loads models, bounds, experiments or charts, nor measure and
bounds models.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import math
import os
import sys

from .sequences import Sequence, make_target
from ._jsontext import _SURROGATE, csv_text, dump as _dump


def _formats(*choices):
    """argparse type: a nonempty comma-separated list of the formats a
    command writes."""
    def parse(text: str):
        parts = tuple(p for p in text.split(",") if p)
        if not parts:
            raise argparse.ArgumentTypeError(f"expected at least one format, got {text!r}")
        bad = [p for p in parts if p not in choices]
        if bad:
            raise argparse.ArgumentTypeError(
                f"unknown format(s) {', '.join(bad)}; choose from {', '.join(choices)}")
        return parts
    return parse


def _comma_list(convert, what: str):
    """argparse type: a nonempty comma-separated list of convert(item)."""
    def parse(text: str):
        try:
            parts = tuple(convert(p) for p in text.split(",") if p)
        except ValueError:
            parts = ()
        if not parts:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
        return parts
    return parse


_parse_ints = _comma_list(int, "integers")
_parse_floats = _comma_list(float, "numbers")


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
    --K with radix synthesis, a compare flag its scenario does not take)."""


def load_target(text: str):
    """(Sequence or Family, label) from a JSON file path, or from a builtin
    id, which sequences.make_target reads and which is its own label."""
    if text.endswith(".json") or os.path.sep in text:
        with open(text, encoding="utf-8") as fh:
            seq = Sequence.from_json(fh.read())
        label = os.path.splitext(os.path.basename(text))[0]
        return seq, label
    return make_target(text), text


def _profile(family: str, params) -> DecayProfile:
    from .bounds import DecayProfile
    if family == "table":
        if len(params) < 2:
            raise UsageError("--g-params for table: v1,...,vn,cutoff")
        return DecayProfile.table(params[:-1], params[-1])
    if family == "exponential":
        if not 1 <= len(params) <= 2:
            raise UsageError("--g-params for exponential: b[,a]")
        return DecayProfile.exponential(*params)
    if not 1 <= len(params) <= 2:
        raise UsageError("--g-params for power: p[,a]")
    return DecayProfile.power(*params)


def _write(out: str, artifacts) -> None:
    """Print a command's (name, text, echo) artifacts, or write them to out.

    Without out every text is printed, in order.  With out, each named
    artifact goes to out/name (':' and the path separator read as '-') and
    its path is printed (with U+FFFD for a lone surrogate), or its text
    when echo is set; one without a name is only printed.  Two artifacts
    bound for one file are a usage error.
    The texts go to dot-prefixed temporary files of this process in out,
    which are renamed in place once all are written.  A failure or
    interrupt before the renames removes them and re-raises, so no artifact
    is left; a failure between two renames can still leave part of the set.
    """
    paths = [os.path.join(out, name.replace(":", "-").replace(os.sep, "-"))
             if out and name else None for name, _, _ in artifacts]
    named = [path for path in paths if path]
    if len(set(named)) < len(named):
        twice = next(path for i, path in enumerate(named) if path in named[:i])
        raise UsageError(f"two artifacts of this command would both be "
                         f"written to {twice}")
    if named:
        os.makedirs(out, exist_ok=True)
    temps = []
    try:
        for path, (_, text, _) in zip(paths, artifacts):
            if path:
                temps.append(os.path.join(
                    out, f".{os.path.basename(path)}.{os.getpid()}.tmp"))
                with open(temps[-1], "w", encoding="utf-8") as fh:
                    fh.write(text)
        for temp, path in zip(temps, named):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise
    for path, (_, text, echo) in zip(paths, artifacts):
        # A path shows U+FFFD for each lone surrogate of a file name that is
        # not UTF-8, as CSV and SVG labels do, so printing it cannot fail
        # once the files are in place.
        text = text if echo or not path else _SURROGATE.sub("\ufffd", path)
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_spectrum(args, emit) -> int:
    from .tensors import window_spectrum
    for text in args.target:
        target, label = load_target(text)
        per_K = []
        for K in args.K:
            spec = window_spectrum(target, args.l, K)
            pairs = zip(spec.values.tolist(), spec.modes.tolist())
            per_K.append({"K": K, "rank": spec.rank(), "values": list(map(list, pairs))})
        if "json" in args.format:
            emit(f"{label}_spectrum.json", {"target": label, "l": args.l, "per_K": per_K})
        if "csv" in args.format:
            rows = [(row["K"], idx, m, v) for row in per_K
                    for idx, (v, m) in enumerate(row["values"], start=1)]
            emit(f"{label}_spectrum.csv",
                 csv_text(label, args.l, ("K", "index", "mode", "value"), rows))
    return 0


def _cmd_measure(args, emit) -> int:
    from .bounds import complexity_measure
    from .tensors import analysis_window
    g = _profile(args.g, args.g_params)
    for text in args.target:
        target, label = load_target(text)
        c = complexity_measure(analysis_window(target, args.l, args.K[0]), args.l, g)
        finite = math.isfinite(c.value)
        emit(f"{label}_measure.json",
             {"target": label, "l": args.l,
              "g": {"family": args.g, "params": list(args.g_params)},
              "complexity": c.value if finite else None,
              "infinite": not finite})
    return 0


def _cmd_bounds(args, emit) -> int:
    from .bounds import effective_filters, rate_bound_interval
    g = _profile(args.g, args.g_params)
    K = args.K[0]
    for text in args.target:
        target, label = load_target(text)
        lower, upper = rate_bound_interval(target, args.l, K, args.channels, g)
        emit(f"{label}_bounds.json",
             {"target": label, "l": args.l, "K": K,
              "channels": list(args.channels),
              "effective_filters": effective_filters(args.channels, args.l, K),
              "lower": {"value": lower.value, "halfwidth": lower.halfwidth},
              "upper": {"value": upper.value, "halfwidth": upper.halfwidth}})
    return 0


def _cmd_curve(args, emit) -> int:
    from .bounds import CurveRow, error_curve
    for text in args.target:
        target, label = load_target(text)
        table = error_curve(target, args.l, args.K, range(1, args.M_max + 1))
        if "csv" in args.format:
            emit(f"{label}_curve.csv", csv_text(label, args.l, CurveRow._fields, table.rows))
        if "json" in args.format:
            rows = [r._asdict() for r in table.rows]
            emit(f"{label}_curve.json", {"target": label, "l": args.l, "rows": rows})
        if "svg" in args.format:
            from .charts import line_chart
            series = [(f"K={K}", *table.curve(K)) for K in sorted(set(args.K))]
            svg = line_chart(series, title=f"{label}: approximation bound",
                             x_label="filters M", y_label="upper bound")
            emit(f"{label}_curve.svg", svg + "\n")
    return 0


def _cmd_synth(args, emit) -> int:
    from .models import replay_residual, synthesize_lowrank, synthesize_radix
    if args.method == "radix" and args.K:
        raise UsageError("--K applies to --method lowrank")
    for text in args.target:
        target, label = load_target(text)
        if args.method == "radix":
            spec = synthesize_radix(target, args.l)
        else:
            spec = synthesize_lowrank(target, args.l, args.K[0] if args.K else None)
        emit(f"{label}_{args.method}.json",
             {"target": label, "method": args.method, "l": args.l,
              "depth": spec.K, "channels": list(spec.channels),
              "filter_count": spec.filter_count,
              "replay_residual": replay_residual(spec, target),
              "spec": spec})
    return 0


def _cmd_compare(args, emit) -> int:
    from .experiments import SCENARIOS, comparison_report
    given = {key: getattr(args, key) for key in ("gamma", "eps", "K", "horizon")
             if getattr(args, key) is not None}
    takes = inspect.signature(SCENARIOS[args.scenario]).parameters
    extra = [f"--{key}" for key in given if key not in takes]
    if extra:
        raise UsageError(f"scenario {args.scenario} takes no {' or '.join(extra)}")
    report = comparison_report(args.scenario, l=args.l, **given)
    emit(f"compare_{args.scenario}.json", report.to_json())
    return 0


def _cmd_study(args, emit) -> int:
    from .bounds import CurveRow
    from .charts import line_chart
    from .experiments import error_curve_study
    study = error_curve_study(l=args.l, K_list=args.K, M_max=args.M_max)
    tables = sorted(study.tables.items())
    for name, table in tables:
        emit(f"{name}_curves.csv", csv_text(name, study.l, CurveRow._fields, table.rows))
    for K in sorted(set(args.K)):
        series = [(name, *table.curve(K)) for name, table in tables]
        emit(f"curves_K{K}.svg",
             line_chart(series, title=f"upper bound vs M (l={args.l}, K={K})",
                        x_label="effective filters M", y_label="upper bound",
                        log_y=True))
    emit("study_summary.json", {"l": study.l, "checks": study.checks, "notes": study.notes})
    emit(None, "".join(f"{'PASS' if ok else 'FAIL'} {name}\n"
                       for name, ok in sorted(study.checks.items())))
    return 0 if study.passed else 3


def _cmd_reproduce(args, emit) -> int:
    from .experiments import conformance_suite
    items = conformance_suite()
    lines = [f"{item.status:6s} {item.name}: {item.detail}" for item in items]
    counts = {"PASS": 0, "FAIL": 0, "LOGGED": 0}
    for item in items:
        counts[item.status] += 1
    lines.append(f"totals: {counts['PASS']} pass, {counts['FAIL']} fail, "
                 f"{counts['LOGGED']} logged")
    emit("reproduce.txt", "\n".join(lines) + "\n", echo=True)
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
    p.add_argument("--format", type=_formats("csv", "json"), default=("json",))

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
    p.add_argument("--format", type=_formats("csv", "json", "svg"), default=("csv", "svg"))

    p = sub.add_parser("synth", help="build an exact or low-rank model for a target")
    add_common(p, None, "depth of the low-rank bank, whose length-l^K window "
                        "it synthesises (default: cover the support)",
               depths=_Depth)
    p.add_argument("--method", choices=("radix", "lowrank"), default="radix")

    p = sub.add_parser("compare", help="model-family comparison scenarios")
    # experiments.SCENARIOS, named here so that parsing loads no analysis.
    p.add_argument("--scenario", required=True,
                   choices=("exp_decay", "impulse_copy"))
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
    artifacts = []

    def emit(name, doc, echo=False):
        artifacts.append((name, doc if isinstance(doc, str) else _dump(doc), echo))

    try:
        code = _HANDLERS[args.command](args, emit)
        _write(args.out, artifacts)
        return code
    except (UsageError, ValueError, ArithmeticError, KeyError, OSError,
            MemoryError) as exc:
        # An exception without a message (a bare MemoryError) is named.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


if __name__ == "__main__":
    sys.exit(main())
