import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memlens.cli import _dump, build_parser, load_target, main
from memlens.sequences import Sequence


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


def test_curve_svg_output(tmp_path, capsys):
    code = main([
        "curve", "--target", "rho2", "--l", "2", "--K", "5",
        "--M-max", "8", "--format", "svg", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    svgs = list(tmp_path.glob("*.svg"))
    assert svgs and svgs[0].read_text().startswith("<svg")


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
    path.write_text(json.dumps(target.to_json()))
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
    assert main(["synth", "--target", "impulse:19", "--method", "radix", "--K", "2"]) == 1
    assert capsys.readouterr().err == "error: --K applies to --method lowrank\n"


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


def test_lowrank_synth_of_a_dense_window_is_compact(tmp_path, capsys):
    assert main(["synth", "--target", "rho3", "--l", "2", "--K", "12",
                 "--method", "lowrank", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "rho3_lowrank.json").read_text())
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
    summary = json.loads((tmp_path / "study_summary.json").read_text())
    assert all(summary["checks"].values())
    assert "PASS curves_non_increasing" in out.splitlines()
    # No depth of 2 covers the sparse supports, so the claim checks fail.
    assert main(["study", "--out", str(tmp_path / "shallow"), "--K", "2"]) == 3
    assert "FAIL low_rank_pointwise_easier" in capsys.readouterr().out


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("memlens "):
                lines.append(shlex.split(line)[1:])
    return lines


def test_readme_commands_run(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, argv
        capsys.readouterr()


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


def test_malformed_json_target_rows_exit_two(tmp_path, capsys):
    for i, rows in enumerate(([[2.5, [1.0]], [7, [2.0]]], [["3", [1.0]]],
                              [[True, [1.0]]], [[None, [1.0]]], [1, 2])):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps({"entries": rows}))
        assert main(["spectrum", "--target", str(path), "--K", "3"]) == 2, rows
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, rows


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_target_values_exit_two(tmp_path, capsys, token):
    path = tmp_path / "bad.json"
    path.write_text('{"entries": [[0, [1.0]], [3, [%s]]]}' % token)
    out = tmp_path / "out"
    g = ["--g", "exponential", "--g-params", "0.5"]
    for args in (["spectrum"], ["measure", *g],
                 ["bounds", "--channels", "1,4,4,4,4,1", *g], ["curve"],
                 ["synth"], ["synth", "--method", "lowrank"]):
        assert main([*args, "--target", str(path), "--out", str(out)]) == 2, args
        assert capsys.readouterr().err == "error: the value at t=3 is not finite\n"
    assert not out.exists()


def test_compare_beyond_the_time_limit_exits_two(capsys):
    for K in ("64", "3000"):
        assert main(["compare", "--scenario", "impulse_copy", "--K", K]) == 2
        assert "2^63" in capsys.readouterr().err
    code, out = run_cli(capsys, ["compare", "--scenario", "impulse_copy", "--K", "62"])
    assert code == 0
    assert json.loads(out)["cnn_requirement"]["replay_residual"] == 0.0


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


def test_reproduce_fail_exits_three(monkeypatch, capsys):
    from memlens import cli as cli_module
    from memlens.experiments import ConformanceItem

    def broken_suite():
        return [ConformanceItem("synthetic-check", "FAIL", "forced failure")]

    monkeypatch.setattr(cli_module, "conformance_suite", broken_suite)
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
        return [command, "--scenario",
                data.draw(st.sampled_from(["exp_decay", "impulse_copy"])),
                "--l", str(l),
                "--K", str(_depth(data, 40, huge=60)),
                "--horizon", str(data.draw(st.sampled_from([1, 10, 2000, 0]))),
                "--eps", repr(data.draw(st.floats(-0.1, 0.6))),
                "--gamma", repr(data.draw(st.floats(-0.1, 1.1)))]
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


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


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dump_is_json_dumps_indented_and_sorted(obj):
    assert _dump(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
