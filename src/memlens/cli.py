"""Command line surface for the library.

Subcommands map 1:1 onto library operations; the CLI only parses flags,
routes values and serialises results, so every emitted number comes from
a library call.  Exit codes: 0 success, 1 usage error, 2 computation
error, 3 conformance failure.

Targets are builtin ids (rho1, rho2, rho3, exp:GAMMA, impulse:T), or a
path to a sequence JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .sequences import Sequence
from . import tensors
from .bounds import (DecayProfile, complexity_measure, error_curve,
                     measure_window, rate_bound_interval,
                     stack_effective_filters)
from .charts import line_chart
from .experiments import comparison_report, conformance_suite, make_target
from .models import cnn_representation, synthesize_lowrank, synthesize_radix

FORMATS = ("csv", "json", "svg")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one command plus everything it consumes."""

    command: str
    targets: tuple = ()
    l: int = 2
    K_list: tuple = ()
    channels: tuple = ()
    M_max: int = 64
    g_family: str = ""
    g_params: tuple = ()
    out: str = ""
    formats: tuple = ()
    method: str = "radix"
    scenario: str = ""
    scenario_params: dict = field(default_factory=dict)


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


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class UsageError(Exception):
    """A malformed invocation (missing or inconsistent flags)."""


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


def _profile(config: RunConfig) -> DecayProfile:
    family, params = config.g_family, config.g_params
    if not family:
        raise ValueError("this command needs --g (and --g-params)")
    if family == "exponential":
        if not params:
            raise ValueError("--g-params for exponential: b[,a]")
        return DecayProfile.exponential(params[0], params[1] if len(params) > 1 else 1.0)
    if family == "power":
        if not params:
            raise ValueError("--g-params for power: p[,a]")
        return DecayProfile.power(params[0], params[1] if len(params) > 1 else 1.0)
    if family == "table":
        if len(params) < 2:
            raise ValueError("--g-params for table: v1,...,vn,cutoff")
        return DecayProfile.table(params[:-1], int(params[-1]))
    raise ValueError(f"unknown profile family {family!r}")


def _emit(config: RunConfig, name: str, text: str):
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        path = os.path.join(config.out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _safe_label(label: str) -> str:
    return label.replace(":", "-").replace(os.path.sep, "-")


def _cmd_spectrum(config: RunConfig) -> int:
    for text in config.targets:
        target, label = load_target(text)
        per_K = []
        for K in config.K_list:
            window = target.truncate(config.l ** K)
            tensor = tensors.tensorize(window, config.l, K)
            spec = tensors.singular_values(tensor)
            per_K.append({"K": K, "rank": spec.rank(),
                          "values": [[float(v), int(m)] for v, m in spec.entries]})
        if "json" in config.formats:
            _emit(config, f"{_safe_label(label)}_spectrum.json",
                  _dump({"target": label, "l": config.l, "per_K": per_K}))
        if "csv" in config.formats:
            lines = ["target,l,K,index,mode,value"]
            for row in per_K:
                for idx, (v, m) in enumerate(row["values"], start=1):
                    lines.append(f"{label},{config.l},{row['K']},{idx},{m},{v!r}")
            _emit(config, f"{_safe_label(label)}_spectrum.csv",
                  "\n".join(lines) + "\n")
    return 0


def _cmd_measure(config: RunConfig) -> int:
    g = _profile(config)
    for text in config.targets:
        target, label = load_target(text)
        c = complexity_measure(measure_window(target, config.l, config.K_list[0]),
                               config.l, g)
        finite = math.isfinite(c.value)
        _emit(config, f"{_safe_label(label)}_measure.json",
              _dump({"target": label, "l": config.l,
                     "g": {"family": config.g_family, "params": list(config.g_params)},
                     "complexity": c.value if finite else None,
                     "infinite": not finite}))
    return 0


def _cmd_bounds(config: RunConfig) -> int:
    g = _profile(config)
    if not config.channels:
        raise UsageError("bounds needs --channels, e.g. --channels 1,4,4,1")
    K = config.K_list[0]
    for text in config.targets:
        target, label = load_target(text)
        lower, upper = rate_bound_interval(target, config.l, K, config.channels, g)
        _emit(config, f"{_safe_label(label)}_bounds.json",
              _dump({"target": label, "l": config.l, "K": K,
                     "channels": list(config.channels),
                     "effective_filters": stack_effective_filters(
                         config.channels, config.l, K, target.dim),
                     "lower": {"value": lower.value, "halfwidth": lower.halfwidth},
                     "upper": {"value": upper.value, "halfwidth": upper.halfwidth}}))
    return 0


def _cmd_curve(config: RunConfig) -> int:
    for text in config.targets:
        target, label = load_target(text)
        table = error_curve(target, config.l, config.K_list,
                            range(1, config.M_max + 1), target_id=label)
        if "csv" in config.formats:
            _emit(config, f"{_safe_label(label)}_curve.csv", table.to_csv())
        if "json" in config.formats:
            rows = [{"K": r.K, "M": r.M, "rank_term": r.rank_term,
                     "tail_term": r.tail_term, "upper_bound": r.upper_bound}
                    for r in table.rows]
            _emit(config, f"{_safe_label(label)}_curve.json",
                  _dump({"target": label, "l": config.l, "rows": rows}))
        if "svg" in config.formats:
            series = []
            for K in sorted(set(config.K_list)):
                ms, uppers = table.curve(K)
                series.append((f"K={K}", ms, uppers))
            svg = line_chart(series, title=f"{label}: approximation bound",
                             x_label="filters M", y_label="upper bound")
            _emit(config, f"{_safe_label(label)}_curve.svg", svg + "\n")
    return 0


def _cmd_synth(config: RunConfig) -> int:
    for text in config.targets:
        target, label = load_target(text)
        if config.method == "radix":
            spec = synthesize_radix(target, config.l)
            reference = target
        else:
            if config.K_list:
                K = config.K_list[0]
            else:
                K = tensors.coverage_depth(config.l, target.radius() or 0)
            spec = synthesize_lowrank(target, config.l, K)
            reference = target.truncate(config.l ** K)
        replay = cnn_representation(spec)
        residual = float(replay.plus(reference.scaled(-1.0)).norm())
        _emit(config, f"{_safe_label(label)}_{config.method}.json",
              _dump({"target": label, "method": config.method, "l": config.l,
                     "depth": spec.K, "channels": list(spec.channels),
                     "filter_count": spec.filter_count,
                     "replay_residual": residual, "spec": spec.to_json()}))
    return 0


def _cmd_compare(config: RunConfig) -> int:
    params = dict(config.scenario_params, l=config.l)
    if config.K_list:
        params["K"] = config.K_list[0]
    report = comparison_report(config.scenario, **params)
    _emit(config, f"compare_{config.scenario}.json", _dump(report.to_json()))
    return 0


def _cmd_reproduce(config: RunConfig) -> int:
    items = conformance_suite()
    lines = [f"{item.status:6s} {item.name}: {item.detail}" for item in items]
    counts = {"PASS": 0, "FAIL": 0, "LOGGED": 0}
    for item in items:
        counts[item.status] += 1
    lines.append(f"totals: {counts['PASS']} pass, {counts['FAIL']} fail, "
                 f"{counts['LOGGED']} logged")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        with open(os.path.join(config.out, "reproduce.txt"), "w") as fh:
            fh.write(text)
    return 3 if counts["FAIL"] else 0


_HANDLERS = {"spectrum": _cmd_spectrum, "measure": _cmd_measure,
             "bounds": _cmd_bounds, "curve": _cmd_curve, "synth": _cmd_synth,
             "compare": _cmd_compare, "reproduce": _cmd_reproduce}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="memlens",
                     description="spectra, complexity measures, approximation "
                                 "bounds and model synthesis for linear "
                                 "temporal functionals")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p, with_g=False):
        p.add_argument("--target", action="append", default=[],
                       help="builtin id (rho1, rho2, rho3, exp:G, impulse:T) "
                            "or sequence JSON path; repeatable")
        p.add_argument("--l", type=int, default=2, help="filter size (default 2)")
        p.add_argument("--out", default="", help="output directory (default: stdout)")
        if with_g:
            p.add_argument("--g", default="", metavar="FAMILY",
                           choices=("exponential", "power", "table"),
                           help="decay profile family")
            p.add_argument("--g-params", type=_parse_floats, default=(),
                           help="profile parameters (exponential: b[,a]; "
                                "power: p[,a]; table: v1,...,vn,cutoff)")

    p = sub.add_parser("spectrum", help="window tensor spectra and ranks")
    add_common(p)
    p.add_argument("--K", action="append", type=int, default=None, help="depth; repeatable")
    p.add_argument("--format", type=_parse_formats, default=("json",))

    p = sub.add_parser("measure", help="complexity measure against a decay profile")
    add_common(p, with_g=True)
    p.add_argument("--K", action="append", type=int, default=None,
                   help="depth whose window measures a target without a "
                        "horizon (default 5)")

    p = sub.add_parser("bounds", help="two-sided approximation bound for explicit channels")
    add_common(p, with_g=True)
    p.add_argument("--K", action="append", type=int, default=None, help="depth")
    p.add_argument("--channels", type=_parse_ints, default=(),
                   help="channel counts M_0,...,M_K, e.g. 1,4,4,1")

    p = sub.add_parser("curve", help="error curve tables over a (K, M) sweep")
    add_common(p)
    p.add_argument("--K", action="append", type=int, default=None,
                   help="depth; repeatable (default 4,5,6)")
    p.add_argument("--M-max", dest="M_max", type=int, default=64)
    p.add_argument("--format", type=_parse_formats, default=("csv", "svg"))

    p = sub.add_parser("synth", help="build an exact or low-rank model for a target")
    add_common(p)
    p.add_argument("--K", action="append", type=int, default=None,
                   help="depth for the low-rank method (default: cover the support)")
    p.add_argument("--method", choices=("radix", "lowrank"), default="radix")

    p = sub.add_parser("compare", help="model-family comparison scenarios")
    p.add_argument("--scenario", required=True, choices=("exp_decay", "impulse_copy"))
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--out", default="")

    p = sub.add_parser("reproduce", help="replay the worked examples and report conformance")
    p.add_argument("--out", default="")

    return parser


def _config_from_args(args) -> RunConfig:
    command = args.command
    defaults = {"spectrum": (5,), "measure": (5,), "bounds": (5,),
                "curve": (4, 5, 6), "synth": ()}
    scenario_params = {}
    if command == "compare":
        K_list = () if args.K is None else (args.K,)
        for key in ("gamma", "eps", "horizon"):
            value = getattr(args, key)
            if value is not None:
                scenario_params[key] = value
    else:
        K_list = tuple(getattr(args, "K", None) or defaults.get(command, ()))
    l = getattr(args, "l", None)
    return RunConfig(
        command=command,
        targets=tuple(getattr(args, "target", ()) or ()),
        l=2 if l is None else l,
        K_list=K_list,
        channels=tuple(getattr(args, "channels", ()) or ()),
        M_max=getattr(args, "M_max", 64),
        g_family=getattr(args, "g", ""),
        g_params=tuple(getattr(args, "g_params", ()) or ()),
        out=getattr(args, "out", ""),
        formats=tuple(getattr(args, "format", ()) or ()),
        method=getattr(args, "method", "radix"),
        scenario=getattr(args, "scenario", ""),
        scenario_params=scenario_params)


def run(config: RunConfig) -> int:
    """Execute one resolved invocation; returns the process exit code."""
    handler = _HANDLERS[config.command]
    if config.command not in ("compare", "reproduce") and not config.targets:
        raise UsageError("no --target given")
    if config.l < 2:
        raise UsageError("--l must be >= 2")
    sizes = config.K_list + (config.M_max, config.scenario_params.get("horizon", 1))
    if min(sizes) < 1:
        raise UsageError("--K, --M-max and --horizon must be >= 1")
    return handler(config)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    config = _config_from_args(args)
    try:
        return run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, KeyError, OSError, MemoryError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
