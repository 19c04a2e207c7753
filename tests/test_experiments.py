import json
import math
import re

import numpy as np
import pytest

from memlens.bounds import (DecayProfile, DepthTable, curve_points, effective_filters,
                            error_curve, rank_budget, rate_bound_interval)
from memlens.cli import main
from memlens.experiments import SCENARIOS, conformance_suite, error_curve_study
from memlens.models import (RnnSpec, cnn_min_depth_expdecay, power_sum_delta_bound,
                            rnn_min_width_impulse, rnn_representation, synthesize_radix)
from memlens.sequences import RHO1_SLOTS, RHO2_SLOTS, SPARSE_VALUE, Sequence, make_target
from memlens.tensors import (analysis_window, coverage_depth, singular_values, tt_svd,
                             window_spectrum)


def test_make_target_sparse_values():
    rho1 = make_target("rho1")
    assert set(rho1.arrays()[0].tolist()) == set(RHO1_SLOTS)
    for t in RHO1_SLOTS:
        assert rho1.value(t) == pytest.approx(math.pi ** 2 / 12)
    rho2 = make_target("rho2")
    assert set(rho2.arrays()[0].tolist()) == set(RHO2_SLOTS)
    assert SPARSE_VALUE == pytest.approx(math.pi ** 2 / 12)
    assert rho1.norm().value == pytest.approx(math.pi ** 2 / 6)
    assert rho2.norm().value == pytest.approx(math.pi ** 2 / 6)


def test_make_target_sparse_ranks():
    assert window_spectrum(make_target("rho1"), 2, 5).rank() == 5
    assert window_spectrum(make_target("rho2"), 2, 5).rank() == 10


def test_make_target_decaying_families():
    rho3 = make_target("rho3:100").truncate(11)
    assert rho3.value(1) == pytest.approx(1.0)
    assert rho3.value(10) == pytest.approx(0.1)
    assert rho3.value(0) == 0.0
    exp = make_target("exp:0.5").truncate(4)
    assert exp.value(0) == 1.0 and exp.value(3) == 0.125
    imp = make_target("impulse:7")
    assert imp.value(7) == 1.0 and len(imp.arrays()[0]) == 1


def test_make_target_degenerate_exponential_is_impulse():
    exp0 = make_target("exp:0")
    assert exp0.value(0) == 1.0
    assert len(exp0.arrays()[0]) == 1


def test_make_target_unknown_name():
    with pytest.raises(ValueError):
        make_target("rho9")


def test_error_curve_study_checks_hold():
    study = error_curve_study(l=2, K_list=(4, 5, 6), M_max=64)
    assert set(study) == {"l", "tables", "depths", "notes", "checks"}
    assert set(study["checks"]) == {
        "low_rank_pointwise_easier",
        "decaying_easier_on_average",
        "curves_non_increasing",
        "plateaus_match_tail_terms",
    }
    assert all(study["checks"].values())
    assert set(study["tables"]) == set(study["depths"]) == {"rho1", "rho2", "rho3"}
    for rows in study["tables"].values():
        depths = sorted({row.K for row in rows})
        assert depths == [4, 5, 6]


def test_error_curve_study_mean_ordering_at_coverage_depth():
    study = error_curve_study(l=2, K_list=(5,), M_max=64)
    _, u2 = curve_points(study["tables"]["rho2"], 5)
    _, u3 = curve_points(study["tables"]["rho3"], 5)
    assert float(np.mean(u3)) < float(np.mean(u2))


def test_error_curve_study_claims_at_the_first_swept_covering_depth():
    cover = max(max(RHO1_SLOTS), max(RHO2_SLOTS))
    for l, K_list in ((2, (3, 4)), (2, (6, 4, 5)), (2, (5,)), (2, (7, 9)), (3, (2, 3, 4)),
                      (3, (4, 3))):
        study = error_curve_study(l=l, K_list=K_list, M_max=4)
        want = next((K for K in sorted(K_list) if l ** K > cover), None)
        claims = [n.split(":")[0] for n in study["notes"] if n.startswith("window tensor ranks")]
        assert claims == ([] if want is None else [f"window tensor ranks at K={want}"])


def _compare_document(tmp_path, scenario, *flags):
    """The JSON document that memlens compare writes for scenario."""
    assert main(["compare", "--scenario", scenario, *flags, "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / f"compare_{scenario}.json").read_text(encoding="utf-8"))


def test_comparison_report_exp_decay(tmp_path):
    # The library's document is the one the command line writes.
    report = SCENARIOS["exp_decay"](gamma=0.99, eps=0.01, l=2)
    assert report == _compare_document(tmp_path, "exp_decay", "--gamma", "0.99",
                                       "--eps", "0.01")
    assert report["scenario"] == "exp_decay"
    assert report["cnn_requirement"]["min_depth"] == 9
    assert report["rnn_requirement"]["width"] == 1
    assert report["rnn_requirement"]["exact"] is True
    assert report["rnn_requirement"]["residual_sup"] <= 1e-12
    assert report["parameters"]["gamma"] == 0.99
    assert "width-1" in report["verdict"]


def test_comparison_report_impulse_copy(tmp_path):
    report = SCENARIOS["impulse_copy"](K=10, eps=0.1)
    assert report == _compare_document(tmp_path, "impulse_copy", "--K", "10", "--eps", "0.1")
    assert report["cnn_requirement"]["depth"] == 10
    assert report["cnn_requirement"]["filter_count"] == 10
    assert report["cnn_requirement"]["replay_residual"] == 0.0
    assert report["parameters"]["lag"] == 2 ** 10 - 1
    assert report["rnn_requirement"]["min_width"] == 20


def test_conformance_suite_statuses():
    items = conformance_suite()
    by_name = {item.name: item for item in items}
    assert all(item.status in {"PASS", "LOGGED"} for item in items)
    logged = {name for name, item in by_name.items() if item.status == "LOGGED"}
    assert logged == {
        "depth-one-spectrum",
        "tail-mass-origin",
        "sparse-slot-indexing",
        "decaying-norm-mismatch",
    }
    assert by_name["window-ranks"].status == "PASS"
    assert by_name["tail-mass-values"].status == "PASS"
    assert all(item.detail for item in items)


_RHO = make_target("rho3:700")
_G = DecayProfile.exponential(0.5)
_SPARSE = Sequence.from_arrays([0, 5, 19], [1.0, -2.0, 3.0])
_RNN = RnnSpec([1.0], [[0.5]], [1.0])


def _study(*args):
    study = error_curve_study(*args)
    return [study[key] for key in ("l", "tables", "notes", "checks")]


def _geometric_window(l, K):
    """analysis_window of 0.5^t at l and K, its window as JSON."""
    window, depth = analysis_window(Sequence.geometric(0.5), l, K)
    return window.to_json(), depth


# (what the argument is called, its plain value, whether it is whole, and a
# call that reads it and returns a repr-able summary of the result).
_ARGUMENTS = [
    ("l", 2, True, lambda l: singular_values(np.arange(1.0, 9.0), l, 3).values.tolist()),
    ("K", 3, True, lambda K: singular_values(np.arange(1.0, 9.0), 2, K).modes.tolist()),
    ("l", 3, True, lambda l: window_spectrum(_RHO, l, 2).values.tolist()),
    ("K", 3, True, lambda K: window_spectrum(_RHO, 2, K).values.tolist()),
    ("l", 2, True, lambda l: [(r, j.tolist(), i.tolist(), fibres.tolist())
                              for r, j, i, fibres in tt_svd(_SPARSE, l, 5)]),
    ("K", 5, True, lambda K: [(r, j.tolist(), i.tolist(), fibres.tolist())
                              for r, j, i, fibres in tt_svd(_SPARSE, 2, K)]),
    ("l", 2, True, lambda l: coverage_depth(l, 10)),
    ("l", 2, True, lambda l: _geometric_window(l, 3)),
    ("K", 3, True, lambda K: _geometric_window(2, K)),
    ("l", 2, True, lambda l: (DepthTable(_RHO, l).l, DepthTable(_RHO, l).masses(3))),
    ("l", 2, True, lambda l: effective_filters((1, 4, 4, 1), l)),
    ("l", 2, True, lambda l: rate_bound_interval(_RHO, l, (1, 4, 4, 1), _G)),
    ("K", 4, True, lambda K: error_curve(DepthTable(_RHO, 2), [K], [1, 2])),
    ("a width M", 2, True, lambda M: error_curve(DepthTable(_RHO, 2), [4], [1, M])),
    ("l", 2, True, lambda l: synthesize_radix(_SPARSE, l).to_json()),
    ("l", 2, True, lambda l: _study(l, (5,), 4)),
    ("K", 5, True, lambda K: _study(2, (K,), 4)),
    ("M_max", 4, True, lambda M: _study(2, (5,), M)),
    ("l", 2, True, lambda l: SCENARIOS["impulse_copy"](K=3, l=l)),
    ("K", 3, True, lambda K: SCENARIOS["impulse_copy"](K=K)),
    ("eps", 0.1, False, lambda e: SCENARIOS["impulse_copy"](K=3, eps=e)),
    ("gamma", 0.5, False, lambda g: SCENARIOS["exp_decay"](gamma=g)),
    ("eps", 0.01, False, lambda e: SCENARIOS["exp_decay"](eps=e)),
    ("l", 3, True, lambda l: SCENARIOS["exp_decay"](l=l)),
    ("horizon", 10, True, lambda h: SCENARIOS["exp_decay"](horizon=h)),
    ("K", 10, True, lambda K: rnn_min_width_impulse(K, 0.1)),
    ("eps", 0.1, False, lambda e: rnn_min_width_impulse(10, e)),
    ("an impulse position", 2, True, lambda t: Sequence.impulse(t).to_json()),
    ("an impulse value", 0.5, False, lambda v: Sequence.impulse(3, v).to_json()),
    ("horizon", 3, True, lambda h: (Sequence.power(horizon=h), Sequence.geometric(0.5, h))),
    ("gamma", 0.5, False, lambda g: Sequence.geometric(g)),
    ("K", 3, True, lambda K: rank_budget(K, 4)),
    ("M", 4, False, lambda M: rank_budget(3, M)),
    # The time readers of a Sequence and of a Family.
    ("t", 19, True, lambda t: _SPARSE.value(t)),
    ("n", 20, True, lambda n: _SPARSE.values_upto(n).tolist()),
    ("length", 20, True, lambda n: _SPARSE.truncate(n).to_json()),
    ("start", 5, True, lambda s: _SPARSE.tail_norm(s)),
    ("start", 5, True, lambda s: _SPARSE.sup_abs_from(s)),
    ("n", 12, True, lambda n: Sequence.power(horizon=10).values_upto(n).tolist()),
    ("length", 12, True, lambda n: Sequence.geometric(0.5, 10).truncate(n).to_json()),
    ("start", 5, True, lambda s: Sequence.power(horizon=10).tail_norm(s)),
    ("start", 2, True, lambda s: Sequence.geometric(0.5).tail_norm(s)),
    ("start", 5, True, lambda s: Sequence.power(horizon=10).sup_abs_from(s)),
    # The exponent of a power profile; its other parameters are read at
    # the end.
    ("p", 1.0, False, lambda p: DecayProfile.power(p)),
    # The recurrence side.
    ("horizon", 4, True, lambda h: rnn_representation(_RNN, h).to_json()),
    ("m_terms", 3, True, lambda m: power_sum_delta_bound(m, 4, 1.0)),
    ("t", 4, True, lambda t: power_sum_delta_bound(3, t, 1.0)),
    ("sup_val", 0.5, False, lambda v: power_sum_delta_bound(3, 4, v)),
    ("gamma", 0.5, False, lambda g: cnn_min_depth_expdecay(g, 0.1, 2)),
    ("eps", 0.1, False, lambda e: cnn_min_depth_expdecay(0.5, e, 2)),
    ("l", 3, True, lambda l: cnn_min_depth_expdecay(0.5, 0.1, l)),
    # The other decay profile parameters, each kept as a float.
    ("a", 1.0, False, lambda a: DecayProfile.power(1.0, a)),
    ("a", 1.0, False, lambda a: DecayProfile.exponential(0.5, a)),
    ("b", 0.5, False, lambda b: DecayProfile.exponential(b)),
    ("a table value", 0.5, False, lambda v: DecayProfile.table([1.0, v], 1)),
    ("a table value", 1.0, False, lambda v: DecayProfile.table([v, 0.5], 1)),
]


@pytest.mark.parametrize("what, plain, whole, call", _ARGUMENTS,
                         ids=[f"{i}-{row[0].replace(' ', '-')}" for i, row in enumerate(_ARGUMENTS)])
def test_every_reader_of_l_K_or_a_parameter_reads_it_by_its_value(what, plain, whole, call):
    # A whole argument may be any whole number, 2.0 or np.int64(2), and a
    # real one any real, np.float64(0.5), with the same result as the plain
    # number; a fraction, a bool or a string is refused by name, not cut.
    same = (float(plain), np.int64(plain)) if whole else (np.float64(plain),)
    want = repr(call(plain))
    for value in same:
        assert repr(call(value)) == want, value
    kind = "a whole number" if whole else "a number"
    for bad in (2.5, True, "2") if whole else (True, "2", None):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be {kind}, not {bad!r}')}$"):
            call(bad)


def test_a_time_before_zero_reads_zero_once_it_is_read_as_a_whole_number():
    rho = make_target("rho1")
    assert rho.value(-1) == rho.value(-1.0) == rho.value(np.int64(-1)) == 0.0
    with pytest.raises(ValueError, match=r"^t must be a whole number, not -1\.5$"):
        rho.value(-1.5)


def test_a_study_of_no_depth_is_refused_by_name():
    with pytest.raises(ValueError, match="^K_list must name at least one depth$"):
        error_curve_study(2, ())
    with pytest.raises(ValueError, match="^M_max must be >= 1$"):
        error_curve_study(M_max=0)
