"""End-to-end acceptance checks, one test per acceptance criterion."""

import ast
import math
import re
import time
import types
from pathlib import Path

import numpy as np
import pytest

import memlens
from memlens.bounds import (COMPLEXITY_NOISE_REL_TOL, DecayProfile, DepthTable,
                            complexity_measure, curve_points, error_curve)
from memlens.experiments import SCENARIOS, conformance_suite, make_target
from memlens.models import (CnnSpec, RnnSpec, cnn_representation,
                            power_sum_delta_bound, rnn_representation, synthesize_radix)
from memlens.sequences import Sequence
from memlens.tensors import (Spectrum, singular_values, truncation_error_bound,
                             window_spectrum)

EXAMPLE_TARGET = [1.0, 0.0, 0.0, 1.0]


def conformance_statuses():
    return {item.name: item.status for item in conformance_suite()}


def test_criterion_01_window_spectra_match_reference_table():
    started = time.monotonic()
    rho = Sequence.from_values(EXAMPLE_TARGET)
    expected = {
        2: [1.0, 1.0, 1.0, 1.0],
        3: [math.sqrt(2.0), 1.0, 1.0, 1.0, 1.0, 0.0],
        4: [math.sqrt(2.0), math.sqrt(2.0), 1.0, 1.0, 1.0, 1.0, 0.0, 0.0],
    }
    for K, values in expected.items():
        computed = singular_values(rho.values_upto(2 ** K), 2, K).values
        assert np.allclose(computed, values, atol=1e-9)
    # the depth-one row disagrees with the reference table and is logged
    assert conformance_statuses()["depth-one-spectrum"] == "LOGGED"
    assert time.monotonic() - started < 1.0


def test_criterion_02_tail_sums_match_reference_values():
    rho = Sequence.from_values(EXAMPLE_TARGET)
    for K in (2, 3, 4):
        spec = window_spectrum(rho, 2, K)
        profile = truncation_error_bound(spec, range(K - 1, 2 * K))
        assert profile[1] ** 2 == pytest.approx(2.0, abs=1e-9)
        assert profile[2] ** 2 == pytest.approx(1.0, abs=1e-9)
    # the s = 0 mass disagrees with the reference case list and is logged
    assert conformance_statuses()["tail-mass-origin"] == "LOGGED"


def test_criterion_03_tensor_rank_claims():
    assert window_spectrum(Sequence.from_values([1, 0, 1, 0]), 2, 2).rank() == 2
    assert window_spectrum(Sequence.from_values([1, 0, 0, 1]), 2, 2).rank() == 4
    assert window_spectrum(make_target("rho1"), 2, 5).rank() == 5
    assert window_spectrum(make_target("rho2"), 2, 5).rank() == 10


def test_criterion_04_radix_synthesis_replays_impulses(rng):
    spec = synthesize_radix(Sequence.impulse(19), 4)
    rep = cnn_representation(spec)
    assert rep.value(19) == 1.0 and len(rep.arrays()[0]) == 1
    for _ in range(100):
        l = int(rng.choice([2, 3, 4]))
        K = int(rng.integers(1, 6))
        t_hat = int(rng.integers(0, l ** K))
        target = Sequence.impulse(t_hat)
        replay = cnn_representation(synthesize_radix(target, l))
        horizon = max(t_hat + 1, replay.radius() + 1 if replay.radius() is not None else 1)
        assert np.array_equal(replay.values_upto(horizon), target.values_upto(horizon))


def test_criterion_05_chains_tensorise_to_outer_products(rng):
    for _ in range(200):
        l = int(rng.choice([2, 3]))
        K = int(rng.choice([2, 3, 4]))
        filters = [rng.normal(size=l) for _ in range(K)]
        chain = CnnSpec.from_arrays((1,) * (K + 1), [(k, 0, 0) for k in range(K)], filters)
        left = cnn_representation(chain).values_upto(l ** K)
        # The window prod_k f_k[d_k] over the base-l digits d_k, mode 1 fastest.
        right = np.ones(())
        for f in filters:
            right = np.multiply.outer(f, right)
        right = right.reshape(-1)
        scale = max(np.max(np.abs(right)), 1.0)
        assert np.allclose(left, right, atol=1e-12 * scale, rtol=1e-12)


def test_criterion_06_padding_law_and_cap_invariance(rng):
    g = DecayProfile.exponential(0.5)
    for _ in range(100):
        l = int(rng.choice([2, 3]))
        K = int(rng.choice([2, 3]))
        rho = Sequence.from_values(rng.normal(size=l ** K))
        if len(rho.arrays()[0]) == 0:
            continue
        base = window_spectrum(rho, l, K).values
        deeper = window_spectrum(rho, l, K + 1).values
        merged = sorted(list(base) + [rho.norm().value] + [0.0] * (l - 1),
                        reverse=True)
        assert np.allclose(deeper, merged, atol=1e-10)
        table = DepthTable(rho, l)
        reference = complexity_measure(table, g).value
        noise = COMPLEXITY_NOISE_REL_TOL * float(rho.norm())
        for extra in (1, 2):
            k_star = 1
            while l ** k_star < rho.radius() + 1:
                k_star += 1
            capped = max(t / g(s) for K in range(1, k_star + extra + 1)
                         for s, t in enumerate(table.masses(K)) if t > noise)
            assert capped == pytest.approx(reference, rel=1e-10)


def oracle_best_rank_matrix(mat, rank: int) -> float:
    """Frobenius error of the best rank-r approximation of a matrix,
    computed with numpy's dense SVD, independent of the library's spectra
    that it cross-checks."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError("need a matrix")
    if not 0 <= rank <= min(a.shape):
        raise ValueError("rank out of range")
    tail = np.linalg.svd(a, compute_uv=False)[rank:]
    return math.sqrt(float(np.sum(tail * tail)))


def test_oracle_best_rank_matrix_values():
    eye = np.eye(2)
    assert oracle_best_rank_matrix(eye, 1) == pytest.approx(1.0)
    assert oracle_best_rank_matrix(3.0 * eye, 0) == pytest.approx(3.0 * math.sqrt(2.0))
    assert oracle_best_rank_matrix(eye, 2) == 0.0


def test_criterion_07_truncation_bound_matches_best_rank_oracle(rng):
    for trial in range(200):
        n = 2 if trial % 2 == 0 else 3
        mat = rng.normal(size=(n, n))
        sigma = np.linalg.svd(mat, compute_uv=False)
        spec = Spectrum.from_mode_values([list(sigma)])
        for kept in range(n + 1):
            ours = truncation_error_bound(spec, [kept])[0]
            oracle = oracle_best_rank_matrix(mat, kept)
            assert abs(ours - oracle) <= 1e-10


def test_criterion_08_error_curves_reproduce_sweep_claims():
    started = time.monotonic()
    l, K, M_max = 2, 5, 64
    sweep = range(1, M_max + 1)
    rho1, rho2 = make_target("rho1"), make_target("rho2")
    rho3 = make_target("rho3")
    t1 = error_curve(DepthTable(rho1, l), [K], sweep)
    t2 = error_curve(DepthTable(rho2, l), [K], sweep)
    t3 = error_curve(DepthTable(rho3, l), [K], sweep)
    _, u1 = (np.asarray(a, dtype=float) for a in curve_points(t1, K))
    _, u2 = (np.asarray(a, dtype=float) for a in curve_points(t2, K))
    _, u3 = (np.asarray(a, dtype=float) for a in curve_points(t3, K))
    assert np.all(u1 <= u2 + 1e-12)
    assert float(np.mean(u3)) < float(np.mean(u2))
    for u in (u1, u2, u3):
        assert np.all(np.diff(u) <= 1e-12)
    # the plateau of each curve is its tail term once the rank budget saturates
    for rows, rho in ((t1, rho1), (t2, rho2), (t3, rho3)):
        last = rows[-1]
        assert last.rank_term == 0.0
        assert last.upper_bound == pytest.approx(last.tail_term, abs=1e-12)
        bracket = rho.tail_norm(l ** K)
        assert last.tail_term == pytest.approx(bracket.value + bracket.halfwidth)
    assert t1[-1].tail_term == 0.0
    assert t2[-1].tail_term == 0.0
    assert t3[-1].tail_term > 0.0
    assert rho3.tail_norm(l ** K).halfwidth > 0.0
    assert time.monotonic() - started < 10.0


def test_criterion_09_architecture_comparisons():
    decay = SCENARIOS["exp_decay"](gamma=0.99, eps=0.01, l=2)
    assert decay["rnn_requirement"]["width"] == 1
    assert decay["rnn_requirement"]["residual_sup"] <= 1e-12
    assert decay["rnn_requirement"]["checked_horizon"] == 10 ** 3
    assert decay["cnn_requirement"]["min_depth"] == 9
    copy = SCENARIOS["impulse_copy"](K=10, eps=0.1)
    assert copy["cnn_requirement"]["filter_count"] == 10
    assert copy["rnn_requirement"]["min_width"] == 20


def test_criterion_10_upper_bound_vanishes_with_depth():
    rho3 = make_target("rho3:10000")
    best = math.inf
    for K in range(1, 15):
        rows = error_curve(DepthTable(rho3, 2), [K], [2 ** K])
        best = min(best, rows[-1].upper_bound)
        if best < 1e-3:
            break
    assert best < 1e-3
    assert K <= 14


def test_criterion_11_power_sum_delta_bound_holds(rng):
    for _ in range(100):
        m = int(rng.integers(1, 5))
        basis, _ = np.linalg.qr(rng.normal(size=(m, m)))
        eigenvalues = rng.uniform(0.05, 0.95, size=m)
        W = basis @ np.diag(eigenvalues) @ basis.T
        c = rng.normal(size=(1, m))
        U = rng.normal(size=(m, 1))
        spec = RnnSpec(c=c, W=W, U=U)
        rep = rnn_representation(spec, horizon=202)
        values = [rep.value(s) for s in range(1, 203)]
        sup_val = max(abs(v) for v in values)
        for t in range(1, 201):
            delta = abs(values[t] - values[t - 1])
            assert delta <= power_sum_delta_bound(m * m, t, sup_val).value


def test_readme_library_example_gives_its_commented_results():
    # Each expression line of README's library example with a comment is
    # evaluated, and its value printed must be the comment's first word.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines, namespace, checked = block.splitlines(), {}, []
    for node in ast.parse(block).body:
        comment = lines[node.lineno - 1].partition("#")[2]
        if isinstance(node, ast.Expr) and comment:
            got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            checked.append((str(got), comment.split()[0].rstrip(",")))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == [("4.0", "4.0"), ("1.0", "1.0")]


def test_star_import_gives_exactly_the_public_names():
    # A stale __all__ entry fails the star import; a missing one fails the
    # comparison with the package's public names that are not modules.
    namespace = {}
    exec("from memlens import *", namespace)
    public = {name for name, value in vars(memlens).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(memlens.__all__)) == len(memlens.__all__)
    assert set(memlens.__all__) == public
    assert namespace.keys() - {"__builtins__"} == public


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export; every other module reads each name it
    # imports, in code or in an annotation.
    unread = []
    for path in sorted(Path(memlens.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name not in read]
    assert unread == []


def test_no_module_reads_a_window_in_fortran_order():
    # tensors reads every window row-major, later digits slower; an
    # order="F" reshape would be a second layout rule.
    fortran = re.compile(r"""order\s*=\s*["']F["']""")
    found = []
    for path in sorted(Path(memlens.__file__).parent.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        found += [f"{path.name}:{n}" for n, line in enumerate(lines, 1) if fortran.search(line)]
    assert found == []


def test_every_svd_of_the_library_runs_in_tensors():
    # Only the two tensors functions call an SVD, the best-rank oracle of
    # criterion 07 lives in the tests, and no module reaches a private
    # name of tensors.
    svds, private = set(), []
    for path in sorted(Path(memlens.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in tree.body:
            if any(isinstance(node, ast.Attribute) and node.attr == "svd"
                   for node in ast.walk(fn)):
                svds.add(f"{path.stem}.{getattr(fn, 'name', fn.lineno)}")
        private += [f"{path.name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id == "tensors"]
        private += [f"{path.name}:{node.lineno} {alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "tensors"
                    for alias in node.names if alias.name.startswith("_")]
    assert svds == {"tensors.singular_values", "tensors.tt_svd"}
    assert private == []


# numpy picks the kernel of these ufuncs at import from the host's SIMD
# level (AVX-512, AVX2, ...), and the kernels differ in the last bit.
_DISPATCHED = {"power", "pow", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
               "cbrt", "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
               "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "arcsinh",
               "arccosh", "arctanh", "asinh", "acosh", "atanh"}


def test_no_module_calls_a_simd_dispatched_transcendental():
    # An output that read one of them would depend on the host.  Arithmetic
    # and sqrt are correctly rounded, and float_power runs libm's pow, as
    # Python's ** does, at every SIMD level.
    found = []
    for path in sorted(Path(memlens.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in _DISPATCHED
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno} np.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in _DISPATCHED]
    assert found == []


def test_the_window_and_its_depth_come_from_analysis_window_alone():
    # Only analysis_window pairs a window with its coverage depth: besides
    # it, only cnn_min_depth_expdecay, whose time is a decay length and not
    # the last time of a window, calls coverage_depth, and no other helper
    # (the former tensors._covered) is defined or named.
    callers, covered = set(), []
    for path in sorted(Path(memlens.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and "coverage_depth" in
                    (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                    for node in ast.walk(fn)):
                callers.add(f"{path.stem}.{fn.name}")
        covered += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if "_covered" in (getattr(node, key, None) for key in ("id", "attr", "name"))]
    assert callers == {"tensors.analysis_window", "models.cnn_min_depth_expdecay"}
    assert covered == []


def test_only_the_cli_imports_inside_a_function():
    # A library module names every module it reads in its top-level
    # imports; only the command line defers them, so that each command
    # loads only what it runs.
    deferred = set()
    for path in sorted(Path(memlens.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                deferred |= {f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                             if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(deferred) == []


def test_artifact_text_stays_in_jsontext():
    # Only _jsontext quotes a CSV label, and only sequences reads a JSON
    # document: a filter bank is written, never read back.
    quoting, readers = [], []
    for path in sorted(Path(memlens.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}
            if "csv_field" in names and path.stem != "_jsontext":
                quoting.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.FunctionDef) and node.name == "from_json"
                    and path.stem != "sequences"):
                readers.append(f"{path.name}:{node.lineno}")
    assert quoting == []
    assert readers == []


def test_cli_serialises_json_in_emit_alone():
    # A handler hands emit its documents: the one _dump call of the command
    # line is in emit, which main defines.
    tree = ast.parse((Path(memlens.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_dump"]
    assert len(calls) == 1
    assert calls[0] in list(ast.walk(functions["emit"]))
    assert functions["emit"] in list(ast.walk(functions["main"]))
