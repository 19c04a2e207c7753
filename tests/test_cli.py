import json
import math

import pytest

from memlens.cli import main
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
