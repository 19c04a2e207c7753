import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import memlens
from memlens import cli as cli_module
from memlens._jsontext import _PLACEHOLDER, csv_field
from memlens.bounds import effective_filters
from memlens.cli import _dump, build_parser, load_target, main
from memlens.models import CnnSpec, synthesize_lowrank, synthesize_radix
from memlens.sequences import Sequence
from memlens.tensors import analysis_window

from contract import corpus


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_spectrum_json_output(capsys):
    code, out = run_cli(capsys, [
        "spectrum", "--target", "rho1", "--l", "2", "--K", "5",
    ])
    assert code == 0
    payload = json.loads(out)
    rows = {row["K"]: row for row in payload["per_K"]}
    assert rows[5]["rank"] == 5


def test_spectrum_worked_example(capsys):
    code, out = run_cli(capsys, [
        "spectrum", "--target", "impulse:0", "--l", "2", "--K", "2",
    ])
    assert code == 0
    payload = json.loads(out)
    rows = {row["K"]: row for row in payload["per_K"]}
    values = [v for v, _ in rows[2]["values"]]
    assert values[0] == pytest.approx(1.0)
    # one retained direction per mode
    assert rows[2]["rank"] == 2


def test_spectrum_rank_counts_values_above_1e_8_of_the_largest(tmp_path, capsys):
    # {0: 1, 3: v} at (2, 2) has the pooled values 1, 1, v, v.
    for v, rank in ((0.5e-8, 2), (2e-8, 4)):
        path = tmp_path / f"two-point-{v!r}.json"
        doc = Sequence.from_arrays([0, 3], [1.0, v]).to_json()
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run_cli(capsys, ["spectrum", "--target", str(path), "--l", "2", "--K", "2"])
        assert code == 0
        assert json.loads(out)["per_K"][0]["rank"] == rank


def test_measure_command(capsys):
    code, out = run_cli(capsys, [
        "measure", "--target", "impulse:3", "--l", "2",
        "--g", "exponential", "--g-params", "0.5",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["infinite"] is False
    assert payload["complexity"] == pytest.approx(1.0)


def test_bounds_command(capsys):
    code, out = run_cli(capsys, [
        "bounds", "--target", "rho1", "--l", "2", "--K", "5",
        "--channels", "1,4,4,4,4,1",
        "--g", "exponential", "--g-params", "0.5",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["effective_filters"] == pytest.approx(42.0)
    assert payload["lower"]["value"] <= payload["upper"]["value"]


def test_bounds_reads_its_depth_from_the_plan(capsys):
    # Without --K the depth is the plan's, K = 4 here, and a given --K only
    # has to agree with it.
    argv = ["bounds", "--target", "rho3:700", "--l", "3", "--channels", "1,3,3,3,1",
            "--g", "exponential", "--g-params", "0.5"]
    code, out = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["K"] == 4
    assert run_cli(capsys, [*argv, "--K", "4"]) == (0, out)
    assert main([*argv, "--K", "5"]) == 2
    assert capsys.readouterr() == ("", "error: channels must list K + 1 widths\n")


def test_curve_csv_deterministic(tmp_path, capsys):
    args = [
        "curve", "--target", "rho1", "--l", "2", "--K", "4", "--K", "5",
        "--M-max", "16", "--format", "csv",
        "--out", str(tmp_path),
    ]
    assert main(args) == 0
    capsys.readouterr()
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(args) == 0
    capsys.readouterr()
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first and first == second
    body = next(iter(first.values())).decode()
    assert body.splitlines()[0] == "target,l,K,M,rank_term,tail_term,upper_bound"


def test_error_curve_csv_layout(tmp_path, capsys):
    # A label with a comma is quoted, in every row, after the header.
    path = tmp_path / "unit, 1.json"
    path.write_text('{"entries": [[0, [1.0]]]}', encoding="utf-8")
    code, out = run_cli(capsys, ["curve", "--target", str(path), "--K", "2",
                                 "--M-max", "2", "--format", "csv"])
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "target,l,K,M,rank_term,tail_term,upper_bound"
    assert lines[1].startswith('"unit, 1",2,2,1,')
    assert lines[2].startswith('"unit, 1",2,2,2,')
    assert lines[3:] == [""]


def test_study_and_curve_write_one_curve_csv(tmp_path, capsys):
    depths = ["--K", "4", "--K", "5", "--K", "6"]
    assert main(["study", "--M-max", "64", *depths, "--out", str(tmp_path)]) == 0
    for name in ("rho1", "rho2", "rho3"):
        assert main(["curve", "--target", name, *depths, "--M-max", "64",
                     "--format", "csv", "--out", str(tmp_path)]) == 0
        curve = (tmp_path / f"{name}_curve.csv").read_bytes()
        assert (tmp_path / f"{name}_curves.csv").read_bytes() == curve, name
    capsys.readouterr()


def test_curve_svg_output(tmp_path, capsys):
    code = main([
        "curve", "--target", "rho2", "--l", "2", "--K", "5",
        "--M-max", "8", "--format", "svg", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    svgs = list(tmp_path.glob("*.svg"))
    assert svgs and svgs[0].read_text(encoding="utf-8").startswith("<svg")


def test_synth_exact_replay(capsys):
    code, out = run_cli(capsys, [
        "synth", "--target", "impulse:19", "--l", "4", "--method", "radix",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["replay_residual"] == 0.0
    assert payload["filter_count"] == 3


def test_target_from_json_file(tmp_path, capsys):
    target = Sequence.from_values([1.0, 0.0, 0.0, 1.0])
    path = tmp_path / "target.json"
    path.write_text(json.dumps(target.to_json()), encoding="utf-8")
    code, out = run_cli(capsys, [
        "measure", "--target", str(path), "--l", "2",
        "--g", "exponential", "--g-params", "0.5",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["complexity"] == pytest.approx(4.0)


def test_compare_command(capsys):
    code, out = run_cli(capsys, [
        "compare", "--scenario", "exp_decay",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["cnn_requirement"]["min_depth"] == 9


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["spectrum"]) == 1
    capsys.readouterr()
    assert main(["curve", "--target", "rho1", "--format", "hdf5"]) == 1
    capsys.readouterr()
    assert main(["bounds", "--target", "rho1", "--l", "2", "--K", "2",
                 "--g", "exponential", "--g-params", "0.5"]) == 1
    capsys.readouterr()
    assert main(["spectrum", "--target", "rho1", "--K", "0"]) == 1
    capsys.readouterr()
    assert main(["spectrum", "--target", "rho1", "--l", "1"]) == 1
    capsys.readouterr()
    out = tmp_path / "curve"
    assert main(["curve", "--target", "rho1", "--M-max", "0",
                 "--out", str(out)]) == 1
    capsys.readouterr()
    assert not out.exists() or not any(out.iterdir())
    for args in (["--scenario", "impulse_copy", "--K", "0"],
                 ["--scenario", "exp_decay", "--l", "1"],
                 ["--scenario", "exp_decay", "--horizon", "0"]):
        assert main(["compare", *args]) == 1
        capsys.readouterr()
    for args in (["measure", "--target", "rho1"],
                 ["measure", "--target", "rho1", "--g", "power"],
                 ["bounds", "--target", "rho1", "--channels", "1,4,4,4,4,1"],
                 ["measure", "--target", "rho1", "--g", "table", "--g-params", "1"],
                 ["measure", "--target", "rho1", "--g", "exponential",
                  "--g-params", "0.5,1,7"],
                 ["bounds", "--target", "rho1", "--channels", "1,4,4,4,4,1",
                  "--g", "power", "--g-params", "1,1,7"],
                 ["synth", "--target", "impulse:19", "--method", "radix", "--K", "2"]):
        assert main([*args, "--out", str(out)]) == 1, args
        capsys.readouterr()
    assert not out.exists() or not any(out.iterdir())
    # An empty comma list is a usage error, not an empty run.
    for args in (["curve", "--target", "rho1", "--format", ","],
                 ["spectrum", "--target", "rho1", "--format", ""],
                 ["bounds", "--target", "rho1", "--channels", ",", "--g",
                  "exponential", "--g-params", "0.5"],
                 ["measure", "--target", "rho1", "--g", "exponential",
                  "--g-params", ","]):
        assert main([*args, "--out", str(out)]) == 1, args
        assert "expected" in capsys.readouterr().err, args
    assert not out.exists() or not any(out.iterdir())
    assert main(["synth", "--target", "impulse:19", "--method", "radix", "--K", "2"]) == 1
    assert capsys.readouterr().err == "error: --K applies to --method lowrank\n"


@pytest.mark.parametrize("command, writes", [("spectrum", ("csv", "json")),
                                             ("curve", ("csv", "json", "svg"))])
def test_each_format_a_command_takes_writes_one_file_per_target(command, writes,
                                                                 tmp_path, capsys):
    # A format the command writes gives exactly its file for each target;
    # any other is a usage error that writes nothing.
    for fmt in ("csv", "json", "svg"):
        out = tmp_path / fmt
        code = main([command, "--target", "rho1", "--target", "rho2", "--K", "4",
                     *(["--M-max", "2"] if command == "curve" else []),
                     "--format", fmt, "--out", str(out)])
        err = capsys.readouterr().err
        if fmt in writes:
            assert code == 0, err
            assert sorted(p.name for p in out.iterdir()) == [
                f"{label}_{command}.{fmt}" for label in ("rho1", "rho2")]
        else:
            assert code == 1
            assert f"unknown format(s) {fmt}; choose from {', '.join(writes)}" in err
            assert not out.exists()


# One fault of a channel plan at K = 2 and l = 2, and the one text that
# every reader of a plan gives for it.  A library reader takes its depth
# from the plan, so a plan of the wrong length for K = 2 is a fault only
# where a second depth is given: bounds --K.
CHANNEL_FAULTS = [((1, 4), "channels must list K + 1 widths"),
                  ((1, 0, 1), "channel widths must be positive"),
                  ((1, 4, 2), "the output is a single channel"),
                  ((2, 4, 1), "the input is a single channel")]


@pytest.mark.parametrize("channels, text", CHANNEL_FAULTS)
def test_each_channel_plan_fault_has_one_text(channels, text, capsys):
    pattern = f"^{re.escape(text)}$"
    if len(channels) == 3:
        with pytest.raises(ValueError, match=pattern):
            CnnSpec.from_arrays(channels, np.zeros((0, 3)), np.zeros((0, 2)))
        with pytest.raises(ValueError, match=pattern):
            effective_filters(channels, 2)
    assert main(["bounds", "--target", "rho1", "--K", "2", "--channels",
                 ",".join(map(str, channels)), "--g", "exponential",
                 "--g-params", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


def test_single_depth_commands_refuse_a_second_K(tmp_path, capsys):
    out = tmp_path / "out"
    g = ["--g", "exponential", "--g-params", "0.5"]
    for args in (["measure", "--target", "rho1", *g],
                 ["bounds", "--target", "rho1", "--channels", "1,4,4,4,4,1", *g],
                 ["synth", "--target", "rho1", "--method", "lowrank"]):
        assert main([*args, "--K", "5", "--K", "3", "--out", str(out)]) == 1, args
        assert "--K" in capsys.readouterr().err
        assert main([*args, "--K", "4", "--K", "4", "--out", str(out)]) == 1, args
        capsys.readouterr()
    assert not out.exists() or not any(out.iterdir())
    code, text = run_cli(capsys, ["spectrum", "--target", "rho1", "--K", "3", "--K", "4"])
    assert code == 0
    assert [row["K"] for row in json.loads(text)["per_K"]] == [3, 4]


def test_main_calls_in_one_process_share_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    code, text = run_cli(capsys, ["spectrum", "--target", "rho1", "--K", "3"])
    assert code == 0 and [r["K"] for r in json.loads(text)["per_K"]] == [3]
    code, text = run_cli(capsys, ["spectrum", "--target", "rho1"])
    assert code == 0 and [r["K"] for r in json.loads(text)["per_K"]] == [5]
    code, text = run_cli(capsys, ["curve", "--target", "rho1", "--K", "2",
                                  "--M-max", "2", "--format", "json"])
    assert code == 0 and {r["K"] for r in json.loads(text)["rows"]} == {2}
    code, text = run_cli(capsys, ["curve", "--target", "rho1", "--M-max", "2",
                                  "--format", "json"])
    assert code == 0 and {r["K"] for r in json.loads(text)["rows"]} == {4, 5, 6}
    assert main(["spectrum", "--target", "rho1", "--K", "0"]) == 1
    capsys.readouterr()
    assert main(["measure", "--target", "rho1", "--g", "power", "--g-params", "1,1,7"]) == 1
    capsys.readouterr()
    code, text = run_cli(capsys, ["measure", "--target", "rho1", "--g", "power",
                                  "--g-params", "1"])
    assert code == 0 and json.loads(text)["g"]["params"] == [1.0]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["spectrum", "--target", "rho1", "--target", "rho2",
                 "--out", str(first)]) == 0
    assert main(["spectrum", "--target", "impulse:3", "--out", str(second)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in first.iterdir()) == ["rho1_spectrum.json",
                                                        "rho2_spectrum.json"]
    assert [p.name for p in second.iterdir()] == ["impulse-3_spectrum.json"]


def test_synth_covers_every_builtin_target(capsys):
    for target, method, K in (("rho2", "lowrank", 4), ("rho3", "lowrank", 5),
                              ("exp:0.9", "lowrank", 4), ("rho3:100", "lowrank", None),
                              ("rho3:100", "radix", None)):
        extra = [] if K is None else ["--K", str(K)]
        code, out = run_cli(capsys, ["synth", "--target", target, "--method", method,
                                     *extra])
        assert code == 0, target
        payload = json.loads(out)
        target_seq = load_target(target)[0]
        window = target_seq.truncate(2 ** payload["depth"])
        assert payload["depth"] == (K or 7)
        assert payload["replay_residual"] <= 1e-12 * float(window.norm())
    code = main(["synth", "--target", "rho3", "--method", "radix"])
    assert code == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["radix", "lowrank"])
@pytest.mark.parametrize("document", [
    {"family": "geometric", "params": {"gamma": 0.5}, "horizon": 100},
    {"family": "power", "horizon": 40}], ids=["geometric", "power"])
def test_library_and_cli_synthesize_one_bank_for_a_horizon_target(tmp_path, capsys,
                                                                    method, document):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out = run_cli(capsys, ["synth", "--target", str(path), "--method", method])
    assert code == 0
    payload = json.loads(out)
    target = load_target(str(path))[0]
    spec = (synthesize_radix(target, 2) if method == "radix"
            else synthesize_lowrank(target, 2))
    assert payload["depth"] == spec.K
    assert payload["channels"] == list(spec.channels)
    assert payload["spec"] == spec.to_json()


def test_lowrank_synth_at_a_given_depth_reads_only_its_window(capsys):
    args = ["--method", "lowrank", "--K", "4"]
    code, out = run_cli(capsys, ["synth", "--target", "rho3:15", *args])
    assert code == 0
    near = json.loads(out)
    tracemalloc.start()
    try:
        code = main(["synth", "--target", "rho3:1000000000000", *args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert peak < 2 ** 20
    far = json.loads(captured.out)
    assert far["spec"] == near["spec"]
    assert far["replay_residual"] == near["replay_residual"]


def test_lowrank_synth_of_a_dense_window_is_compact(tmp_path, capsys):
    assert main(["synth", "--target", "rho3", "--l", "2", "--K", "12",
                 "--method", "lowrank", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "rho3_lowrank.json").read_text(encoding="utf-8"))
    window = load_target("rho3")[0].truncate(2 ** 12)
    assert payload["filter_count"] <= 1000
    assert payload["replay_residual"] <= 1e-12 * float(window.norm())


def test_study_writes_the_script_artifacts(tmp_path, capsys):
    code = main(["study", "--out", str(tmp_path), "--l", "2", "--K", "4", "--K", "5",
                 "--M-max", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curves_K4.svg", "curves_K5.svg", "rho1_curves.csv", "rho2_curves.csv",
        "rho3_curves.csv", "study_summary.json"]
    summary = json.loads((tmp_path / "study_summary.json").read_text(encoding="utf-8"))
    assert all(summary["checks"].values())
    assert "PASS curves_non_increasing" in out.splitlines()
    # No depth of 2 covers the sparse supports, so the claim checks fail.
    assert main(["study", "--out", str(tmp_path / "shallow"), "--K", "2"]) == 3
    assert "FAIL low_rank_pointwise_easier" in capsys.readouterr().out
    assert (tmp_path / "shallow" / "study_summary.json").exists()


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("memlens "):
                lines.append(shlex.split(line)[1:])
    return lines


def test_the_readme_commands_are_the_contract_readme_cases():
    # The contract pins each README command line, in the README's order,
    # as a readme-* case, so an edit to either shows in the other.
    pinned = [argv for name, argv in corpus.commands() if name.startswith("readme-")]
    assert pinned == _readme_commands()


def test_readme_commands_run(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, argv
        capsys.readouterr()
    for l in (2, 3, 4):
        for target in ("rho1", "rho2", "rho3:255", "impulse:19"):
            for method in ("radix", "lowrank"):
                argv = ["synth", "--target", target, "--l", str(l), "--method", method,
                        "--out", str(tmp_path / f"synth_l{l}")]
                assert main(argv) == 0, argv
                capsys.readouterr()
    written = sorted(tmp_path.rglob("*.json"))
    assert len(written) >= 24
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


@pytest.mark.parametrize("l", [2, 3, 4])
def test_synth_artifacts_are_json_dumps(tmp_path, capsys, rng, l):
    # Negative values leave +0.0 taps beside them and TT cores hold -0.0;
    # about 100 radix paths of depth 8 make key parts past 9, so string
    # order is not numeric order, and over 512 filters, more than one
    # writer block.  Entries far below the largest read as zeros, so the
    # magnitudes get their own targets.
    pools = ([-1.5, 2.0, -0.0, 0.75, -3.25], [5e-324, -1e-310, 2.5e-320], [1e300, -3e299])
    for at, pool in enumerate(pools):
        for method, points, depth in (("radix", 130, 8), ("lowrank", 12, 4)):
            times = np.sort(np.append(
                rng.choice(l ** depth - 1, size=points - 1, replace=False), l ** depth - 1))
            values = rng.choice(pool, points)
            values[-1] = pool[0]        # the top slot is live: the depth is fixed
            path = tmp_path / f"{method}{at}.json"
            path.write_text(json.dumps({"dim": 1, "entries": [
                [t, [v]] for t, v in zip(times.tolist(), values.tolist())]}), encoding="utf-8")
            assert main(["synth", "--target", str(path), "--method", method,
                         "--l", str(l), "--out", str(tmp_path)]) == 0
            capsys.readouterr()
            text = (tmp_path / f"{method}{at}_{method}.json").read_text(encoding="utf-8")
            window = analysis_window(load_target(str(path))[0], l)
            spec = (synthesize_radix(window, l) if method == "radix"
                    else synthesize_lowrank(window, l))
            want = {"l": spec.l, "K": spec.K, "channels": list(spec.channels),
                    "filters": {f"{k},{j},{i}": w for (k, j, i), w in
                                zip(spec.index.tolist(), spec.weights.tolist())}}
            assert text == json.dumps({**json.loads(text), "spec": want},
                                      indent=2, sort_keys=True) + "\n", (method, pool)
            if method == "radix" and at == 0:
                assert spec.filter_count > 512 and spec.channels[1] > 10


@pytest.mark.parametrize("value", [1e16, 1e200])
def test_flat_curves_chart_at_any_scale(tmp_path, capsys, value):
    path = tmp_path / "imp.json"
    path.write_text(json.dumps({"dim": 1, "entries": [[40, [value]]]}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["curve", "--target", str(path), "--K", "2", "--M-max", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    xml.dom.minidom.parse(str(out / "imp_curve.svg"))


def test_computation_errors_exit_two(capsys):
    code = main([
        "measure", "--target", "rho9", "--l", "2",
        "--g", "exponential", "--g-params", "0.5",
    ])
    capsys.readouterr()
    assert code == 2
    code = main([
        "measure", "--target", "/nonexistent/target.json", "--l", "2",
        "--g", "exponential", "--g-params", "0.5",
    ])
    capsys.readouterr()
    assert code == 2
    # The two sparse builtins take no argument.
    for target in ("rho1:garbage", "rho2:5", "rho1:"):
        assert main(["spectrum", "--target", target, "--K", "3"]) == 2
        assert capsys.readouterr().err == (f"error: target {target[:4]} takes no "
                                           f"argument, not {target!r}\n")


# The family document each id form is shorthand for, the argument texts it
# is tried with and the value each names in a document (None: no number),
# and the texts with which the id loads.
ID_DOCUMENTS = {"rho3": lambda x: {"family": "power", "horizon": x},
                "exp": lambda x: {"family": "geometric", "params": {"gamma": x}},
                "impulse": lambda x: {"family": "impulse", "params": {"t": x}}}
ID_ARGUMENTS = {"700": 700, "7.0": 7.0, "1e3": 1e3, "2305843009213693952": 2 ** 61,
                "2305843009213693953": 2 ** 61 + 1, "+5": 5, "0.9": 0.9, ".5": 0.5,
                "5e-1": 0.5, "5.5": 5.5, "abc": None, "": None, "nan": math.nan,
                "inf": math.inf, "-1": -1, "true": True, "1e19": 1e19}
WHOLE_TEXTS = {"700", "7.0", "1e3", "2305843009213693952", "2305843009213693953", "+5"}
ID_LOADS = {"rho3": WHOLE_TEXTS | {"1e19"}, "exp": {"0.9", ".5", "5e-1"},
            "impulse": WHOLE_TEXTS}


@pytest.mark.parametrize("form", sorted(ID_DOCUMENTS))
def test_an_id_loads_exactly_as_its_family_document(capsys, form):
    loaded = set()
    for text, value in ID_ARGUMENTS.items():
        target = f"{form}:{text}"
        try:
            doc = None if value is None else Sequence.from_json(ID_DOCUMENTS[form](value))
        except ValueError:
            doc = None
        try:
            seq, label = load_target(target)
        except ValueError:
            assert doc is None, target
            assert main(["spectrum", "--target", target, "--K", "3"]) == 2, target
            captured = capsys.readouterr()
            assert captured.out == "", target
            assert captured.err.startswith("error: "), target
            assert captured.err.count("\n") == 1, target
            continue
        assert doc is not None and label == target, target
        assert seq.to_json() == doc.to_json(), target
        if isinstance(seq, Sequence):
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(seq.arrays(), doc.arrays())), target
        loaded.add(text)
    assert loaded == ID_LOADS[form]


def test_malformed_json_target_rows_exit_two(tmp_path, capsys):
    docs = [{"entries": rows} for rows in ([[2.5, [1.0]], [7, [2.0]]], [["3", [1.0]]],
                                           [[True, [1.0]]], [[None, [1.0]]], [1, 2])]
    docs += [[1, 2], None, {"entries": 5}, {"family": "geometric", "params": 5},
             {"family": "geometric", "params": {"gamma": None}},
             {"family": "impulse", "params": {"t": 3, "value": None}},
             {"dim": 1.7, "entries": [[0, [1.0]]]},
             {"family": "power", "horizon": 2.5}, {"family": "power", "horizon": "7"},
             {"family": "impulse", "params": {"t": 1.5}},
             {"family": "impulse", "params": {"t": True}},
             {"family": "geometric", "params": {"gamma": "0.5"}},
             # numbers given as strings or booleans, in rows and bare
             {"entries": [[0, ["1.5"]], [1, [True]]]}, {"entries": [[0, 1.0], [1, True]]},
             {"entries": [[0, "2e0"]]},
             # rows saved under a key Sequence.from_json does not know
             {"rows": [[t, [0.5]] for t in range(2 ** 15)]}]

    def error_of(doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["spectrum", "--target", str(path), "--K", "3"]) == 2, doc
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, doc
        assert len(err) < 200, doc
        assert "Traceback" not in err, doc
        return err

    for doc in docs:
        error_of(doc)
    # A family document without the parameter it needs names that field.
    assert error_of({"family": "impulse"}) == "error: the impulse family needs params.t\n"
    assert error_of({"family": "geometric", "params": {}}) == (
        "error: the geometric family needs params.gamma\n")


def test_a_target_of_another_dim_exits_two_at_load(tmp_path, capsys):
    out = tmp_path / "out"
    for dim in (0, 2, 3, 10 ** 18):
        doc = {"dim": dim, "entries": [[0, [1.0, 0.5]], [3, [-2.0, 0.25]]]}
        for indent in (None, 2):
            path = tmp_path / "wide.json"
            path.write_text(json.dumps(doc, indent=indent), encoding="utf-8")
            assert main(["spectrum", "--target", str(path), "--K", "3", "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: memlens reads one-dimensional targets: "
                                    f"dim must be 1, not {dim}\n")
            assert not out.exists()


def test_load_target_leaves_the_collector_as_it_found_it(tmp_path):
    paths = [tmp_path / name for name in ("good.json", "cut.json", "nan.json")]
    paths[0].write_text(json.dumps(Sequence.from_values([1.0, 0.0, 2.0]).to_json()),
                        encoding="utf-8")
    paths[1].write_text('{"entries": [[0, [1.0]]', encoding="utf-8")
    paths[2].write_text('{"entries": [[0, [1.0]], [3, [NaN]]]}', encoding="utf-8")
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seq, label = load_target(str(paths[0]))
            assert (label, seq.to_json()["entries"]) == ("good", [[0, [1.0]], [2, [2.0]]])
            assert gc.isenabled() is enabled
            for path in paths[1:]:
                with pytest.raises(ValueError):
                    load_target(str(path))
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_target_values_exit_two(tmp_path, capsys, token):
    path = tmp_path / "bad.json"
    path.write_text('{"entries": [[0, [1.0]], [3, [%s]]]}' % token, encoding="utf-8")
    out = tmp_path / "out"
    g = ["--g", "exponential", "--g-params", "0.5"]
    # A good target before the bad one leaves no artifact either, printed
    # or written.
    for args in (["spectrum"], ["measure", *g],
                 ["bounds", "--channels", "1,4,4,4,4,1", *g], ["curve"],
                 ["synth"], ["synth", "--method", "lowrank"]):
        for targets in (["--target", str(path)],
                        ["--target", "rho1", "--target", str(path)]):
            for where in ([], ["--out", str(out)]):
                assert main([*args, *targets, *where]) == 2, args
                captured = capsys.readouterr()
                assert captured.out == "", args
                assert captured.err == "error: the value at t=3 is not finite\n"
    assert not out.exists()


NAN_TARGET = '{"entries": [[0, [1.0]], [3, [NaN]]]}'


def test_a_failed_command_exits_two_from_a_process(tmp_path):
    (tmp_path / "bad.json").write_text(NAN_TARGET, encoding="utf-8")
    src = str(Path(memlens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "memlens.cli", "spectrum", "--target", "rho1",
         "--target", "bad.json", "--out", "d"],
        cwd=tmp_path, env=env, capture_output=True, encoding="utf-8", timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: the value at t=3 is not finite\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_a_failure_without_a_message_names_its_type(tmp_path, monkeypatch, capsys):
    # numpy failing to allocate LAPACK's workspace raises a bare MemoryError.
    def out_of_memory(args, emit):
        emit("early.json", {"written": False})
        raise MemoryError()

    monkeypatch.setitem(cli_module._HANDLERS, "spectrum", out_of_memory)
    out = tmp_path / "out"
    assert main(["spectrum", "--target", "rho1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: MemoryError\n")
    assert not out.exists()


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()])
def test_a_failed_write_or_rename_leaves_nothing(tmp_path, monkeypatch, capsys, error):
    out = tmp_path / "out"
    curve = ["curve", "--target", "rho1", "--K", "2", "--M-max", "4",
             "--format", "csv,json,svg", "--out", str(out)]
    spectrum = ["spectrum", "--target", "rho1", "--K", "3", "--out", str(out)]

    def open_failing_last(path, *args, **kwargs):
        if str(path).endswith(f"_curve.svg.{os.getpid()}.tmp"):
            raise error
        return open(path, *args, **kwargs)

    def failing_replace(*args):
        raise error

    # The last of three artifacts fails to write; the only one fails to
    # be renamed into place.
    for argv, owner, name, failing in ((curve, cli_module, "open", open_failing_last),
                                       (spectrum, os, "replace", failing_replace)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, failing, raising=False)
            if isinstance(error, KeyboardInterrupt):
                with pytest.raises(KeyboardInterrupt):
                    main(argv)
            else:
                assert main(argv) == 2
                assert capsys.readouterr().err == "error: disk full\n"
        assert capsys.readouterr().out == ""
        assert list(out.iterdir()) == []
    assert main(curve) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(list(out.iterdir())) == 3


def test_artifacts_keep_the_mode_of_a_plain_open(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        assert main(["spectrum", "--target", "rho1", "--K", "3",
                     "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    (path,) = (tmp_path / "out").iterdir()
    assert path.stat().st_mode & 0o777 == 0o640


def test_two_artifacts_for_one_file_are_refused(tmp_path, capsys):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "k.json").write_text('{"entries": [[0, [1.0]], [3, [2.0]]]}',
                                               encoding="utf-8")
    (tmp_path / "rho3-5.json").write_text('{"entries": [[0, [1.0]]]}', encoding="utf-8")
    out = tmp_path / "dup"
    spectrum = ["spectrum", "--target", str(tmp_path / "a" / "k.json"),
                "--target", str(tmp_path / "b" / "k.json"), "--K", "2"]
    measure = ["measure", "--target", "rho3:5", "--target", str(tmp_path / "rho3-5.json"),
               "--g", "exponential", "--g-params", "0.5"]
    for argv, name in ((spectrum, "k_spectrum.json"), (measure, "rho3-5_measure.json")):
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: two artifacts of this command would "
                                f"both be written to {out / name}\n")
        assert not out.exists()
        # Printed, both texts are kept.
        assert main(argv) == 0
        assert capsys.readouterr().out.count('"target"') == 2


@pytest.mark.parametrize("label", ["a&b,c", 'x "q" <y>\nz', "c\x01d", "\x0b", "e\x1f"])
def test_artifacts_are_well_formed_for_any_target_name(tmp_path, capsys, label):
    path = tmp_path / f"{label}.json"
    path.write_text('{"entries": [[0, [1.0]], [3, [0.5]]]}', encoding="utf-8")
    out = tmp_path / "out"
    assert main(["curve", "--target", str(path), "--K", "2", "--K", "3",
                 "--M-max", "4", "--format", "csv,svg", "--out", str(out)]) == 0
    assert main(["spectrum", "--target", str(path), "--K", "3",
                 "--format", "csv,json", "--out", str(out)]) == 0
    capsys.readouterr()
    for suffix, width in (("_curve.csv", 7), ("_spectrum.csv", 6)):
        with open(out / f"{label}{suffix}", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {width}
        assert {row[0] for row in rows[1:]} == {label}
    spectrum = json.loads((out / f"{label}_spectrum.json").read_text(encoding="utf-8"))
    assert spectrum["target"] == label
    # XML 1.0 allows no control character but tab, newline and carriage
    # return, so the chart shows U+FFFD for each of the others.
    shown = re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f]", "\ufffd", label)
    doc = xml.dom.minidom.parse(str(out / f"{label}_curve.svg"))
    texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
    assert f"{shown}: approximation bound" in texts
    assert csv_field("rho3:5") == "rho3:5"


def test_labels_from_file_names_that_are_not_utf8(tmp_path, capsys):
    # Such a name's bytes decode to lone surrogates, which UTF-8 cannot
    # write: CSV, SVG and the printed paths show U+FFFD for each, JSON
    # keeps its \\u escape.  capsys's stdout is strict UTF-8, as under a
    # UTF-8 locale.
    label = os.fsdecode(b"bad\xff")
    out = tmp_path / "out"
    for stem in (label, "good"):
        path = tmp_path / f"{stem}.json"
        path.write_text('{"entries": [[0, [1.0]], [3, [0.5]]]}', encoding="utf-8")
        assert main(["curve", "--target", str(path), "--K", "4", "--M-max", "2",
                     "--format", "csv,svg", "--out", str(out)]) == 0
        assert main(["spectrum", "--target", str(path), "--format", "json,csv",
                     "--out", str(out)]) == 0
        shown = stem.replace(label, "bad\ufffd")
        assert capsys.readouterr().out.splitlines() == [
            str(out / f"{shown}{suffix}")
            for suffix in ("_curve.csv", "_curve.svg", "_spectrum.json", "_spectrum.csv")]
    for suffix in ("_curve.csv", "_curve.svg", "_spectrum.csv"):
        text = (out / f"{label}{suffix}").read_bytes().decode("utf-8")
        good = (out / f"good{suffix}").read_text(encoding="utf-8")
        assert text == good.replace("good", "bad\ufffd")
    doc = xml.dom.minidom.parse(str(out / f"{label}_curve.svg"))
    texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
    assert "bad\ufffd: approximation bound" in texts
    good = (out / "good_spectrum.json").read_bytes()
    assert (out / f"{label}_spectrum.json").read_bytes() == good.replace(b'"good"',
                                                                        b'"bad\\udcff"')


# The compare flags each scenario reads.
COMPARE_FLAGS = {"exp_decay": {"--l", "--gamma", "--eps", "--horizon"},
                 "impulse_copy": {"--l", "--K", "--eps"}}


def test_compare_reads_only_its_scenario_flags(tmp_path, capsys):
    out = tmp_path / "out"
    for argv, err in ((["--scenario", "exp_decay", "--K", "5"], "--K"),
                      (["--scenario", "impulse_copy", "--gamma", "0.5", "--horizon", "7"],
                       "--gamma or --horizon")):
        assert main(["compare", *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: scenario {argv[1]} takes no {err}\n"
    assert not out.exists()
    # Every flag a scenario reads is taken, and its defaults are today's.
    code, text = run_cli(capsys, ["compare", "--scenario", "exp_decay", "--gamma", "0.5",
                                  "--eps", "0.1", "--horizon", "7", "--l", "3"])
    assert code == 0
    assert json.loads(text)["parameters"] == {"gamma": 0.5, "eps": 0.1, "l": 3, "horizon": 7}
    for scenario, parameters in (
            ("exp_decay", {"gamma": 0.99, "eps": 0.01, "l": 2, "horizon": 1000}),
            ("impulse_copy", {"K": 10, "eps": 0.1, "l": 2, "lag": 1023})):
        code, text = run_cli(capsys, ["compare", "--scenario", scenario])
        assert code == 0 and json.loads(text)["parameters"] == parameters


def test_the_parser_names_every_scenario(capsys):
    # The parser names the scenarios itself, so that parsing loads no
    # analysis module; its choices are the scenarios, in their order.
    from memlens import experiments
    assert main(["compare", "--help"]) == 0
    choices = ",".join(experiments.SCENARIOS)
    assert f"--scenario {{{choices}}}" in capsys.readouterr().out


# Per case, an argv for memlens.cli.main (none: only import memlens) and
# the memlens submodules the process then holds.
_SHARED = {"cli", "sequences", "_jsontext"}
COMMAND_MODULES = {
    "import": ("", set()),
    "spectrum": ("spectrum --target rho3:1000 --K 5", _SHARED | {"tensors"}),
    "synth": ("synth --target rho3:127", _SHARED | {"tensors", "models"}),
    "measure": ("measure --target rho1 --g exponential --g-params 0.5",
                _SHARED | {"tensors", "bounds"}),
    "bounds": ("bounds --target rho3:700 --K 5 --channels 1,4,4,4,4,1 "
               "--g exponential --g-params 0.5", _SHARED | {"tensors", "bounds"}),
    "curve": ("curve --target rho1", _SHARED | {"tensors", "bounds", "charts"}),
    # curve loads charts only to draw its svg chart.
    "curve-csv-json": ("curve --target rho1 --format csv,json",
                       _SHARED | {"tensors", "bounds"}),
    # These three load models: experiments, which they call, also holds the
    # comparison scenarios, which synthesise models, and the scenarios stay
    # there because test_acceptance imports comparison_report from it.
    "compare": ("compare --scenario exp_decay",
                _SHARED | {"tensors", "bounds", "experiments", "models"}),
    "reproduce": ("reproduce", _SHARED | {"tensors", "bounds", "experiments", "models"}),
    "study": ("study", _SHARED | {"tensors", "bounds", "experiments", "models", "charts"}),
}


@pytest.mark.parametrize("case", COMMAND_MODULES)
def test_a_command_loads_only_the_modules_it_calls(case):
    # One fresh interpreter per case: import memlens alone loads no
    # submodule, and a command loads only the library code it calls.
    argv, expected = COMMAND_MODULES[case]
    src = str(Path(memlens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import contextlib, io, sys\n"
              "import memlens\n"
              "if sys.argv[1:]:\n"
              "    import memlens.cli\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert memlens.cli.main(sys.argv[1:]) == 0\n"
              "print(*sorted(m for m in sys.modules if m.startswith('memlens.')))\n")
    done = subprocess.run([sys.executable, "-c", script, *argv.split()],
                          env=env, capture_output=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) == {f"memlens.{name}" for name in expected}


def test_compare_beyond_the_time_limit_exits_two(capsys):
    for K in ("64", "3000"):
        assert main(["compare", "--scenario", "impulse_copy", "--K", K]) == 2
        assert "2^63" in capsys.readouterr().err
    code, out = run_cli(capsys, ["compare", "--scenario", "impulse_copy", "--K", "62"])
    assert code == 0
    assert json.loads(out)["cnn_requirement"]["replay_residual"] == 0.0


def test_curve_of_rho3_with_a_horizon_of_10_to_the_12_finishes(tmp_path, capsys):
    began = time.perf_counter()
    assert main(["curve", "--target", "rho3:1000000000000", "--K", "4", "--M-max", "4",
                 "--format", "csv", "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - began < 10
    assert os.listdir(tmp_path) == ["rho3-1000000000000_curve.csv"]


def test_measure_windows_targets_without_a_horizon(capsys):
    for target in ("rho3", "exp:0.9"):
        values = []
        for extra in ([], ["--K", "5"], ["--K", "7"]):
            code, out = run_cli(capsys, [
                "measure", "--target", target, "--l", "2",
                "--g", "exponential", "--g-params", "0.5", *extra,
            ])
            assert code == 0
            values.append(json.loads(out)["complexity"])
        assert all(math.isfinite(v) and v > 0.0 for v in values)
        assert values[0] == values[1]


def test_reproduce_passes(capsys):
    code, out = run_cli(capsys, ["reproduce"])
    assert code == 0
    assert "FAIL" not in [line.split()[0] for line in out.splitlines() if line]


def _decompositions(monkeypatch, capsys, args):
    """A command's exit code and stdout, and the (window bytes, l, K) of
    each singular_values call it makes."""
    from memlens import tensors
    computed = []
    singular_values = tensors.singular_values

    def counted(window, l, K):
        computed.append((window.tobytes(), l, K))
        return singular_values(window, l, K)

    monkeypatch.setattr(tensors, "singular_values", counted)
    return (*run_cli(capsys, args), computed)


def test_reproduce_decomposes_each_window_once(monkeypatch, capsys):
    # The edge pattern [1, 0, 0, 1] at K = 1-5, the alternating pair at
    # K = 2, and the study's three targets at K = 4, 5, 6.
    code, out, computed = _decompositions(monkeypatch, capsys, ["reproduce"])
    assert code == 0 and out.endswith("totals: 10 pass, 0 fail, 4 logged\n")
    assert len(computed) == len(set(computed)) == 15


def test_study_decomposes_each_window_once(monkeypatch, capsys):
    # The curves and the claim-depth ranks read the same three tables.
    code, _, computed = _decompositions(monkeypatch, capsys, ["study"])
    assert code == 0
    assert len(computed) == len(set(computed)) == 9


def test_reproduce_fail_exits_three(monkeypatch, capsys):
    from memlens import experiments

    def broken_suite():
        return [experiments.ConformanceItem("synthetic-check", "FAIL", "forced failure")]

    monkeypatch.setattr(experiments, "conformance_suite", broken_suite)
    code, out = run_cli(capsys, ["reproduce"])
    assert code == 3
    assert "synthetic-check" in out


# Targets whose every window at l^K <= 2^12 is cheap; impulse positions up
# to 2^70 join them where a command never materialises the support.
SMALL_TARGETS = st.sampled_from(["rho1", "rho2", "rho3", "rho3:300", "exp:0.9",
                                 "exp:0", "impulse:0", "impulse:19", "rho9",
                                 "exp:1.5", "impulse:-1"])
ANY_TARGETS = st.one_of(SMALL_TARGETS,
                        st.integers(0, 2 ** 70).map(lambda t: f"impulse:{t}"))


def _depth(data, top, huge=64):
    """Mostly a depth in [1, top]; one in six times the usage error 0 and
    one in six a depth from `huge` up, far beyond the 2^63 time limit."""
    return data.draw(st.integers(0, 5).flatmap(
        lambda c: st.integers(huge, 5000) if c == 0 else
        st.just(0) if c == 1 else st.integers(1, top)))


def _argv(data):
    command = data.draw(st.sampled_from(
        ["spectrum", "measure", "bounds", "curve", "synth", "compare", "reproduce"]))
    if command == "reproduce":
        return [command]
    l = data.draw(st.sampled_from([2, 3, 4, 5, 6, 1, 0]))
    if command == "compare":
        # The scenario's own flags, each present or not, and at times one
        # flag of the other scenario.
        scenario = data.draw(st.sampled_from(sorted(COMPARE_FLAGS)))
        flags = [f for f in sorted(COMPARE_FLAGS[scenario]) if data.draw(st.booleans())]
        if data.draw(st.integers(0, 3)) == 0:
            flags.append(data.draw(st.sampled_from(
                sorted(set.union(*COMPARE_FLAGS.values()) - COMPARE_FLAGS[scenario]))))
        values = {"--l": lambda: str(l),
                  "--K": lambda: str(_depth(data, 40, huge=60)),
                  "--horizon": lambda: str(data.draw(st.sampled_from([1, 10, 2000, 0]))),
                  "--eps": lambda: repr(data.draw(st.floats(-0.1, 0.6))),
                  "--gamma": lambda: repr(data.draw(st.floats(-0.1, 1.1)))}
        return [command, "--scenario", scenario,
                *(item for flag in flags for item in (flag, values[flag]()))]
    # Windows of at most 2^12 entries below the huge depths.
    K = _depth(data, 12 if l < 2 else int(math.log(2 ** 12, l) + 1e-9))
    huge_ok = command in ("spectrum", "curve") or (
        command == "synth" and data.draw(st.booleans()))
    target = data.draw(ANY_TARGETS if huge_ok else SMALL_TARGETS)
    argv = [command, "--target", target, "--l", str(l), "--K", str(K)]
    if command == "synth":
        argv += ["--method", "radix" if huge_ok else "lowrank"]
        # --K with radix is a usage error; mostly leave it out so radix runs.
        if huge_ok and data.draw(st.integers(0, 3)):
            del argv[5:7]
    if command in ("measure", "bounds"):
        family = data.draw(st.sampled_from(["exponential", "power", "table"]))
        params = data.draw(st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3))
        argv += ["--g", family, "--g-params", ",".join(map(repr, params))]
    if command == "bounds":
        widths = data.draw(st.lists(st.integers(1, 4), min_size=K + 1, max_size=K + 1)
                           if 1 <= K <= 12 and data.draw(st.booleans())
                           else st.lists(st.integers(0, 4), min_size=1, max_size=8))
        argv += ["--channels", ",".join(map(str, widths))]
    if command == "curve":
        argv += ["--M-max", str(data.draw(st.sampled_from([1, 5, 20, 0]))), "--format",
                 data.draw(st.sampled_from(["csv", "json", "svg", "csv,svg"]))]
    return argv


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_fuzz_exits_with_a_documented_code(data):
    argv = _argv(data)
    with tempfile.TemporaryDirectory() as tmp:
        if "--target" in argv and data.draw(st.booleans()):
            bad = Path(tmp) / "bad.json"
            bad.write_text(NAN_TARGET, encoding="utf-8")
            argv += ["--target", str(bad)]
        out = Path(tmp) / "out"
        argv += ["--out", str(out)]
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        if argv[0] == "compare":
            foreign = set(argv) & (set.union(*COMPARE_FLAGS.values()) - COMPARE_FLAGS[argv[2]])
            assert code == 1 or not foreign, argv
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if code in (1, 2):
            assert written == [], argv
        assert not [name for name in written if name.startswith(".")], argv


_TEXT = st.one_of(st.text(max_size=8),
                  st.sampled_from(["", "\x00\x1f\x7f", "\n\t\"\\/", "é", "日本",
                                   "\u2028", "\U0001f600"]))
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 200, 2 ** 200), st.floats(),
    st.floats().map(np.float64), _TEXT,
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]))
_LEAF_LIST = st.one_of(st.lists(st.floats(), max_size=6),
                       st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6),
                       st.lists(st.one_of(st.booleans(), st.integers(0, 1)), max_size=6),
                       st.lists(_TEXT, max_size=6))
_JSON = st.recursive(st.one_of(_SCALAR, _LEAF_LIST), lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(_TEXT, inner, max_size=5)), max_leaves=30)


# A target document: any JSON value, or an object whose keys that
# Sequence.from_json reads hold well-formed or arbitrary values.
_DOCUMENT = st.one_of(_JSON, st.fixed_dictionaries({}, optional={
    "entries": st.one_of(_JSON, st.lists(st.one_of(
        st.tuples(st.integers(0, 9), st.lists(st.floats(-9, 9), min_size=1, max_size=2)),
        st.lists(_JSON, max_size=3)), max_size=6)),
    "family": st.one_of(st.sampled_from(["geometric", "power", "impulse"]), _JSON),
    "params": st.one_of(st.fixed_dictionaries({}, optional={
        "gamma": st.one_of(st.floats(0, 1), _JSON),
        "t": st.one_of(st.integers(0, 9), _JSON),
        "value": st.one_of(st.floats(-9, 9), _JSON)}), _JSON),
    "dim": st.one_of(st.integers(0, 3), _JSON),
    "horizon": st.one_of(st.integers(0, 9), _JSON)}))


@settings(max_examples=200, deadline=None)
@given(_DOCUMENT)
@example([1, 2])
@example({"entries": [[0, {"a": 1.0}]]})
@example({"dim": 2, "entries": []})
@example({"family": "impulse", "params": {"t": 3, "value": 2 ** 1100}})
def test_json_target_documents_exit_zero_or_two(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "doc.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["spectrum", "--target", str(path), "--K", "3", "--out", str(out)])
        assert code in (0, 2), doc
        if code == 2:
            assert stderr.getvalue().startswith("error: "), doc
            assert not out.exists() or not any(out.iterdir()), doc


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dump_is_json_dumps_indented_and_sorted(obj):
    assert _dump(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


_ROW_KEY = st.one_of(_TEXT, st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity",
                                             'a"b', "\x00\x1f", "é日本", "{}", "{0}"]))
_ROW_ITEM = st.one_of(st.floats(), st.floats().map(np.float64),
                      st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]))


@st.composite
def _float_rows(draw):
    """A dict of float rows of one width from 1 to 4, at times with one row
    spoilt: made longer, shorter or empty, or holding one int or bool."""
    width = draw(st.integers(1, 4))
    rows = draw(st.dictionaries(_ROW_KEY, st.lists(_ROW_ITEM, min_size=width,
                                                   max_size=width), max_size=8))
    if rows and draw(st.booleans()):
        row = rows[draw(st.sampled_from(sorted(rows)))]
        at = draw(st.integers(0, width - 1))
        row[at:at + 1] = draw(st.one_of(st.lists(_ROW_ITEM, max_size=2),
                                        st.tuples(st.one_of(st.booleans(), st.integers()))))
    return rows


def test_dump_of_a_large_bank_peaks_near_twice_its_text():
    # synth writes a bank from its arrays, _BLOCK filters at a time.  The
    # traced region orders the keys and builds every block; apart from the
    # key ranks and the order, nothing grows with the bank but the block
    # texts, so the peak is those texts and their join.
    rng = np.random.default_rng(2024)
    times = np.append(rng.choice(2 ** 20 - 1, size=19999, replace=False), 2 ** 20 - 1)
    values = rng.uniform(0.5, 2.0, 20000) * rng.choice((-1.0, 1.0), 20000)
    spec = synthesize_radix(Sequence.from_arrays(times, values), 2)
    assert spec.filter_count == 400000
    tracemalloc.start()
    try:
        text = _dump({"spec": spec})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * len(text)


# Weights a bank's text must tell apart: both zeros, the least subnormal,
# NaN of either sign and both infinities.
_SPECIAL_WEIGHTS = [-0.0, 0.0, 5e-324, math.nan, -math.nan, math.inf, -math.inf]


@st.composite
def _banks(draw):
    """A bank of 0, 1, 512, 513 or a few filters of 2 to 4 taps, keys in
    a random order up to layer 11 and channel 39, so key parts run past
    9, and weights drawn from _SPECIAL_WEIGHTS and a few normal values."""
    l, K, width = draw(st.integers(2, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 40))
    n = draw(st.one_of(st.sampled_from([0, 1, 512, 513]), st.integers(2, 30)))
    if n > 1:
        K, width = max(K, 3), max(width, 23)
    channels = (1,) + (width,) * (K - 1) + (1,)
    sizes = np.multiply(channels[:-1], channels[1:])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    flat = rng.choice(sizes.sum(), size=n, replace=False)
    k = np.searchsorted(sizes.cumsum(), flat, side="right")
    j, i = np.divmod(flat - (sizes.cumsum() - sizes)[k], np.array(channels)[k + 1])
    pool = _SPECIAL_WEIGHTS + draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                            min_size=1, max_size=6))
    return CnnSpec.from_arrays(channels, np.column_stack((k, j, i)),
                               rng.choice(pool, size=(n, l)))


_BANK = CnnSpec.from_arrays((1, 11, 1), [[0, 0, 9], [0, 0, 10], [1, 10, 0]],
                            [[-0.0, 1.0], [math.nan, 5e-324], [math.inf, -math.inf]])


@settings(max_examples=150, deadline=None)
@given(_banks())
@example(_BANK)
def test_dump_writes_a_bank_from_its_arrays_as_json_dumps(spec):
    want, other = spec.to_json(), _BANK.to_json()
    # The last document holds two banks, a list item and a dict value two
    # levels down, each indented as the line it starts on.
    for obj, doc in ((spec, want), ({"spec": spec, "l": 2}, {"spec": want, "l": 2}),
                     ({"a": [1, spec], "b": {"c": {"d": _BANK}}},
                      {"a": [1, want], "b": {"c": {"d": other}}})):
        assert _dump(obj) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dump_refuses_its_placeholder_string_next_to_a_bank():
    with pytest.raises(ValueError, match="placeholder"):
        _dump({"spec": _BANK, "note": _PLACEHOLDER})
    # Without a bank nothing is spliced, so the string is written as json
    # writes it; an object with no json_parts gets json's own error.
    obj = {"note": _PLACEHOLDER}
    assert _dump(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        _dump({"spec": _BANK, "other": object()})


@settings(max_examples=300, deadline=None)
@given(_float_rows())
@example({})
@example({"a": [], "b": []})
@example({"nan": [float("nan")], "inf": [float("inf")], "Infinity": [float("-inf")]})
@example({'"q"\x00\n': [-0.0, np.float64(1.5)], "é日本": [np.float64("nan"), 2.0]})
@example({"a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 2.0, 3.0, 4.0, 5.0]})
@example({"a": [1.0, 2.0], "b": [1.0, 2]})
@example({"a": [1.0, True], "b": [1.0, 2.0]})
@example({"a": [1.0], "b": []})
@example({str(i): [float(i), float("nan") if i == 700 else -0.0] for i in range(1100)})
def test_dump_writes_dicts_of_float_rows_as_json_dumps(rows):
    for obj in (rows, {"spec": {"filters": rows}, "rows": [rows]}):
        assert _dump(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- command-level laws ------------------------------------------------------

# Each command of the scaling law, with the numbers of its JSON output that
# scale with the target.
LAW_COMMANDS = {
    ("spectrum", "--K", "3", "--K", "6"):
        lambda out: [v for row in out["per_K"] for v, _ in row["values"]],
    ("measure", "--g", "exponential", "--g-params", "0.5"):
        lambda out: [out["complexity"]],
    ("bounds", "--K", "5", "--channels", "1,4,4,4,4,1", "--g", "power", "--g-params", "1"):
        lambda out: [out[end][k] for end in ("lower", "upper") for k in ("value", "halfwidth")],
    ("curve", "--K", "4", "--K", "6", "--M-max", "20", "--format", "json"):
        lambda out: [r[k] for r in out["rows"] for k in ("rank_term", "tail_term", "upper_bound")],
    ("synth", "--method", "radix"): lambda out: [out["replay_residual"]],
    ("synth", "--method", "lowrank", "--K", "6"): lambda out: [out["replay_residual"]],
}
# Magnitudes whose squares, scaled by 2^(+-120), stay normal floats.
_LAW_VALUES = st.floats(2.0 ** -20, 2.0 ** 20).flatmap(
    lambda v: st.sampled_from([v, -v]))


def _run_text(argv):
    """(exit code, stdout) of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _run_json(argv) -> dict:
    code, out = _run_text(argv)
    assert code == 0, argv
    return json.loads(out)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.integers(0, 63), _LAW_VALUES, min_size=1, max_size=12),
       st.integers(-60, 60))
def test_scaling_a_row_document_by_a_power_of_two_scales_every_number_exactly(rows, e):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for scale in (1.0, math.ldexp(1.0, e)):
            path = Path(tmp) / f"{len(paths)}.json"
            path.write_text(json.dumps({"dim": 1, "entries": [
                [t, [v * scale]] for t, v in rows.items()]}), encoding="utf-8")
            paths.append(str(path))
        for argv, numbers in LAW_COMMANDS.items():
            base, scaled = (numbers(_run_json([*argv, "--target", p])) for p in paths)
            assert scaled == [math.ldexp(x, e) for x in base], (argv, e)


# Each command line of the row-order law.
ORDER_COMMANDS = (
    ("spectrum", "--format", "json,csv"),
    ("measure", "--g", "exponential", "--g-params", "0.5"),
    ("bounds", "--K", "5", "--channels", "1,4,4,4,4,1", "--g", "power", "--g-params", "1"),
    ("curve", "--format", "csv,json"),
    ("synth", "--method", "radix"),
    ("synth", "--method", "lowrank"),
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.integers(0, 199), st.floats(-1.0, 1.0), min_size=1, max_size=39),
       st.integers(-5, 4), st.randoms(use_true_random=False))
def test_the_order_of_a_row_documents_rows_changes_no_output(rows, e, random):
    rows = [[t, [v * 10.0 ** e]] for t, v in rows.items()]
    shuffled = random.sample(rows, len(rows))
    with tempfile.TemporaryDirectory() as tmp:
        # One file name in two folders: both documents carry the same label.
        paths = []
        for name, doc_rows in (("a", rows), ("b", shuffled)):
            path = Path(tmp) / name / "doc.json"
            path.parent.mkdir()
            path.write_text(json.dumps({"dim": 1, "entries": doc_rows}), encoding="utf-8")
            paths.append(str(path))
        for argv in ORDER_COMMANDS:
            first, second = (_run_text([*argv, "--target", p]) for p in paths)
            assert first == second, argv


@pytest.mark.parametrize("target, arg", [("rho3:100", 100), ("exp:0.9", 0.9),
                                         ("impulse:5", 5)])
def test_an_id_and_its_family_document_write_the_same_bytes(tmp_path, capsys, target, arg):
    form = target.partition(":")[0]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(ID_DOCUMENTS[form](arg)), encoding="utf-8")
    for argv in (*LAW_COMMANDS, ("curve", "--M-max", "20", "--format", "csv")):
        if argv[1:3] == ("--method", "radix") and form == "exp":
            continue    # a radix bank needs a finite support
        by_id, by_doc = (run_cli(capsys, [*argv, "--target", t])
                         for t in (target, str(path)))
        assert by_id[0] == by_doc[0] == 0, argv
        # The label is a JSON string, or the first field of each CSV row.
        relabelled = by_id[1].replace(json.dumps(target), '"doc"').replace(
            f"\n{target},", "\ndoc,")
        assert relabelled == by_doc[1], argv


def test_explicit_zero_rows_leave_the_curve_unchanged(tmp_path, capsys):
    rows = [[3, [0.976]], [9, [-0.049]], [16, [-0.47]], [18, [-0.346]], [19, [-0.356]],
            [20, [-0.226]], [23, [-1.573]], [26, [-0.461]], [28, [-0.425]], [31, [-0.189]]]
    outs = []
    for name, entries in (("a", rows), ("b", rows + [[21, [0.0]], [29, [0.0]]])):
        path = tmp_path / name / "doc.json"
        path.parent.mkdir()
        path.write_text(json.dumps({"dim": 1, "entries": entries}), encoding="utf-8")
        outs.append(run_cli(capsys, ["curve", "--K", "4", "--M-max", "1",
                                     "--format", "json", "--target", str(path)]))
    assert outs[0] == outs[1]
