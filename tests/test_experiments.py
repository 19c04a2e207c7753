import math

import numpy as np
import pytest

from memlens.experiments import (comparison_report, conformance_suite,
                                 error_curve_study, oracle_best_rank_matrix)
from memlens.sequences import RHO1_SLOTS, RHO2_SLOTS, SPARSE_VALUE, make_target
from memlens.tensors import window_spectrum


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


def test_oracle_best_rank_matrix_values():
    eye = np.eye(2)
    assert oracle_best_rank_matrix(eye, 1).value == pytest.approx(1.0)
    assert oracle_best_rank_matrix(3.0 * eye, 0).value == pytest.approx(3.0 * math.sqrt(2.0))
    assert oracle_best_rank_matrix(eye, 2).value == 0.0


def test_error_curve_study_checks_hold():
    study = error_curve_study(l=2, K_list=(4, 5, 6), M_max=64)
    assert study.passed
    assert set(study.checks) == {
        "low_rank_pointwise_easier",
        "decaying_easier_on_average",
        "curves_non_increasing",
        "plateaus_match_tail_terms",
    }
    assert all(study.checks.values())
    assert set(study.tables) == {"rho1", "rho2", "rho3"}
    for table in study.tables.values():
        depths = sorted({row.K for row in table.rows})
        assert depths == [4, 5, 6]


def test_error_curve_study_mean_ordering_at_coverage_depth():
    study = error_curve_study(l=2, K_list=(5,), M_max=64)
    _, u2 = study.tables["rho2"].curve(5)
    _, u3 = study.tables["rho3"].curve(5)
    assert float(np.mean(u3)) < float(np.mean(u2))


def test_error_curve_study_claims_at_the_first_swept_covering_depth():
    cover = max(max(RHO1_SLOTS), max(RHO2_SLOTS))
    for l, K_list in ((2, (3, 4)), (2, (6, 4, 5)), (2, (5,)), (2, (7, 9)), (3, (2, 3, 4)),
                      (3, (4, 3))):
        study = error_curve_study(l=l, K_list=K_list, M_max=4)
        want = next((K for K in sorted(K_list) if l ** K > cover), None)
        claims = [n.split(":")[0] for n in study.notes if n.startswith("window tensor ranks")]
        assert claims == ([] if want is None else [f"window tensor ranks at K={want}"])


def test_comparison_report_exp_decay():
    report = comparison_report("exp_decay", gamma=0.99, eps=0.01, l=2)
    assert report.scenario == "exp_decay"
    assert report.cnn_requirement["min_depth"] == 9
    assert report.rnn_requirement["width"] == 1
    assert report.rnn_requirement["exact"] is True
    assert report.rnn_requirement["residual_sup"] <= 1e-12
    payload = report.to_json()
    assert payload["parameters"]["gamma"] == 0.99
    assert "width-1" in payload["verdict"]


def test_comparison_report_impulse_copy():
    report = comparison_report("impulse_copy", K=10, eps=0.1)
    assert report.cnn_requirement["depth"] == 10
    assert report.cnn_requirement["filter_count"] == 10
    assert report.cnn_requirement["replay_residual"] == 0.0
    assert report.parameters["lag"] == 2 ** 10 - 1
    assert report.rnn_requirement["min_width"] == 20


def test_comparison_report_unknown_scenario():
    with pytest.raises(ValueError):
        comparison_report("fourier")


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
