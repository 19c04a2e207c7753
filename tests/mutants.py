"""Mutation checks: does the test suite pin each constant and rule it names?

    python tests/mutants.py

Each mutant below is one edit of one source line: a threshold moved by a
factor, an offset moved by one, a rule swapped for its near neighbour.
For each, in turn, the tree (src/, tests/, README.md, pyproject.toml) is
copied to a temporary directory, the edit is made there, and pytest runs
with -x on only the tests the mutant names.  A mutant is killed when
those tests fail.  Before any mutant, the same tests run once on the
unedited copy, so that a kill is never the work of a tree that already
fails.

A mutant that survives is a finding: either a boundary test is missing,
or the edit moves a free parameter, one whose value no output may
depend on.  FREE_PARAMETERS lists the latter, each with its reason, and
for those survival is the expected outcome.  The script exits 0 when
every mutant is killed or listed there and survives, and 1 otherwise,
printing which.  It uses the standard library only, and pytest does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the repository root
    before: str     # occurs exactly once in the file
    after: str
    tests: tuple    # pytest arguments, relative to the repository root


MUTANTS = (
    Mutant("tail-offset-plus-one", "src/memlens/bounds.py",
           "range(K - 1, self.l * K))", "range(K, self.l * K + 1))",
           ("tests/test_bounds.py",)),
    Mutant("curve-tail-at-l-2", "src/memlens/bounds.py",
           "tail_term = table.rho.tail_norm(table.l ** K).upper",
           "tail_term = table.rho.tail_norm(2 ** K).upper",
           ("tests/test_bounds.py::test_a_table_at_l_3_reads_its_tails_and_depths_at_l_3",)),
    Mutant("depth-table-recomputes", "src/memlens/bounds.py",
           "if K not in self._spectra:", "if True:",
           ("tests/test_cli.py::test_reproduce_decomposes_each_window_once",)),
    Mutant("rank-budget-rounds", "src/memlens/bounds.py",
           "return math.floor(K * M ** (1.0 / K))", "return round(K * M ** (1.0 / K))",
           ("tests/test_bounds.py",)),
    Mutant("unstable-tie-sort", "src/memlens/tensors.py",
           'order = np.argsort(-values, axis=None, kind="stable")',
           'order = np.argsort(-values, axis=None, kind="quicksort")',
           ("tests/test_tensors.py",)),
    Mutant("tt-tolerance-times-100", "src/memlens/tensors.py",
           "_TT_REL_TOL = 1e-13", "_TT_REL_TOL = 1e-11",
           ("tests/test_models.py", "tests/test_cli.py")),
    Mutant("no-rescale-in-root-sum-squares", "src/memlens/sequences.py",
           "if _TINY <= sq <= _HUGE or not x.any():", "if True:",
           ("tests/test_sequences.py",)),
    Mutant("profile-argument-plus-one", "src/memlens/bounds.py",
           "g_arg = max(0, rank_budget(K, M) - K)", "g_arg = max(0, rank_budget(K, M) - K) + 1",
           ("tests/test_bounds.py",)),
    Mutant("lower-bound-one-step-late", "src/memlens/bounds.py",
           "lower = Scalar(rho.sup_abs_from(size))", "lower = Scalar(rho.sup_abs_from(size + 1))",
           ("tests/test_bounds.py",)),
    Mutant("stack-budget-one-byte", "src/memlens/tensors.py",
           "_STACK_BUDGET = 1 << 21", "_STACK_BUDGET = 1",
           ("tests/test_tensors.py",)),
    Mutant("tail-head-terms-2-to-the-4", "src/memlens/sequences.py",
           "_TAIL_HEAD_TERMS = 1 << 12", "_TAIL_HEAD_TERMS = 1 << 4",
           ("tests/test_sequences.py",)),
    Mutant("tail-head-past-the-horizon", "src/memlens/sequences.py",
           "min(start + _TAIL_HEAD_TERMS, stop + 1)", "start + _TAIL_HEAD_TERMS",
           ("tests/test_sequences.py",)),
    Mutant("tail-rest-of-one-term-dropped", "src/memlens/sequences.py",
           "if a <= b:", "if a < b:",
           ("tests/test_sequences.py",)),
    Mutant("tail-head-times-on-a-float-step", "src/memlens/sequences.py",
           "near + np.arange(start - int(near), a - int(near), dtype=float)",
           "np.arange(start, a, dtype=float)",
           ("tests/test_sequences.py",)),
    Mutant("rank-tolerance-times-10", "src/memlens/tensors.py",
           "RANK_REL_TOL = 1e-8", "RANK_REL_TOL = 1e-7",
           ("tests/test_tensors.py",)),
    Mutant("noise-floor-times-100", "src/memlens/bounds.py",
           "COMPLEXITY_NOISE_REL_TOL = 1e-12", "COMPLEXITY_NOISE_REL_TOL = 1e-10",
           ("tests/test_bounds.py",)),
    Mutant("noise-floor-over-100", "src/memlens/bounds.py",
           "COMPLEXITY_NOISE_REL_TOL = 1e-12", "COMPLEXITY_NOISE_REL_TOL = 1e-14",
           ("tests/test_bounds.py",)),
    Mutant("bounds-ignores-a-disagreeing-K", "src/memlens/cli.py",
           "if args.K not in (None, [K]):", "if False:",
           ("tests/test_cli.py::test_each_channel_plan_fault_has_one_text",)),
    Mutant("width-cut-to-int", "src/memlens/tensors.py",
           '_whole(m, "a channel width")', "int(m)",
           ("tests/test_models.py::test_a_channel_width_is_a_whole_number",)),
    Mutant("filter-size-not-read-whole", "src/memlens/sequences.py",
           '_whole(l, "l")', "l",
           ("tests/test_experiments.py::test_every_reader_of_l_K_or_a_parameter_reads_it_by_its_value",)),
    Mutant("horizon-cut-to-int", "src/memlens/sequences.py",
           '_whole(self.horizon, "horizon")', "int(self.horizon)",
           ("tests/test_experiments.py::test_every_reader_of_l_K_or_a_parameter_reads_it_by_its_value",)),
    Mutant("time-index-not-read-whole", "src/memlens/sequences.py",
           '_whole(t, "t")', "t",
           ("tests/test_experiments.py::test_every_reader_of_l_K_or_a_parameter_reads_it_by_its_value",)),
    Mutant("exponential-profile-takes-a-zero", "src/memlens/bounds.py",
           "if self.a <= 0 or not 0.0 < self.b < 1.0:", "if self.a < 0 or not 0.0 < self.b < 1.0:",
           ("tests/test_bounds.py",)),
    Mutant("exponential-profile-takes-b-zero", "src/memlens/bounds.py",
           "if self.a <= 0 or not 0.0 < self.b < 1.0:", "if self.a <= 0 or not 0.0 <= self.b < 1.0:",
           ("tests/test_bounds.py",)),
    Mutant("power-profile-takes-a-zero", "src/memlens/bounds.py",
           "if self.a <= 0 or self.p <= 0:", "if self.a < 0 or self.p <= 0:",
           ("tests/test_bounds.py",)),
    Mutant("power-profile-takes-p-zero", "src/memlens/bounds.py",
           "if self.a <= 0 or self.p <= 0:", "if self.a <= 0 or self.p < 0:",
           ("tests/test_bounds.py",)),
    Mutant("table-profile-takes-a-zero", "src/memlens/bounds.py",
           "any(v <= 0 for v in vals)", "any(v < 0 for v in vals)",
           ("tests/test_bounds.py",)),
    Mutant("tt-step-share-over-K-plus-1", "src/memlens/tensors.py",
           "_TT_REL_TOL ** 2 / (K - 1)", "_TT_REL_TOL ** 2 / (K + 1)",
           ("tests/test_tensors.py",)),
    # The flattening's columns permuted: every singular value stays, so only
    # the layout tests can tell.
    Mutant("mode-view-axes-swapped", "src/memlens/tensors.py",
           "arr.transpose(1, 0, 2)", "arr.transpose(1, 2, 0)",
           ("tests/test_tensors.py",)),
    Mutant("tail-closed-form-from-2-to-the-1024", "src/memlens/sequences.py",
           "_CLOSED_FORM_START = 1 << 511", "_CLOSED_FORM_START = 1 << 1024",
           ("tests/test_sequences.py",)),
    Mutant("tail-subnormal-ends-not-widened", "src/memlens/sequences.py",
           "    if hi < _TINY:", "    if False:",
           ("tests/test_sequences.py",)),
    Mutant("sup-abs-negative-start-not-clamped", "src/memlens/sequences.py",
           'start = max(_whole(start, "start"), 0)', 'start = _whole(start, "start")',
           ("tests/test_sequences.py::test_sup_abs_from",)),
    # The integral bracket misses the true tail from 2^51 on.
    Mutant("horizonless-power-tail-from-2-to-the-56", "src/memlens/sequences.py",
           "_SUMMED_TAIL_START = 1 << 48", "_SUMMED_TAIL_START = 1 << 56",
           ("tests/test_sequences.py",)),
    Mutant("window-length-takes-a-negative", "src/memlens/sequences.py",
           "    if n < 0:", "    if False:",
           ("tests/test_sequences.py::test_values_upto_refuses_a_negative_length",)),
    Mutant("rank-budget-takes-K-zero", "src/memlens/bounds.py",
           "    if K < 1:", "    if K < 0:",
           ("tests/test_bounds.py::test_rank_budget_refuses_a_depth_or_a_width_outside_its_domain",)),
    Mutant("rank-budget-takes-a-negative-M", "src/memlens/bounds.py",
           "if not 0.0 <= M <= _HUGE:", "if not -_HUGE <= M <= _HUGE:",
           ("tests/test_bounds.py::test_rank_budget_refuses_a_depth_or_a_width_outside_its_domain",)),
    Mutant("rank-budget-takes-an-infinite-M", "src/memlens/bounds.py",
           "if not 0.0 <= M <= _HUGE:", "if not 0.0 <= M <= math.inf:",
           ("tests/test_bounds.py::test_rank_budget_refuses_a_depth_or_a_width_outside_its_domain",)),
    Mutant("profile-stores-a-bool", "src/memlens/bounds.py",
           "_number(getattr(self, key), key)", "getattr(self, key)",
           ("tests/test_experiments.py::test_every_reader_of_l_K_or_a_parameter_reads_it_by_its_value",)),
    Mutant("table-profile-reads-a-string", "src/memlens/bounds.py",
           '_number(v, "a table value")', "float(v)",
           ("tests/test_experiments.py::test_every_reader_of_l_K_or_a_parameter_reads_it_by_its_value",)),
    Mutant("from-values-flattens-a-matrix", "src/memlens/sequences.py",
           "if v.ndim != 1:", "if v.ndim == 0:",
           ("tests/test_sequences.py::test_from_values_reads_its_values_as_from_arrays_does",)),
    Mutant("from-values-reads-a-string", "src/memlens/sequences.py",
           "v = _read_values(values)", "v = np.asarray(values, dtype=float)",
           ("tests/test_sequences.py::test_from_values_reads_its_values_as_from_arrays_does",)),
    Mutant("values-tuple-takes-a-string", "src/memlens/sequences.py",
           "if isinstance(values, (list, tuple)):", "if isinstance(values, list):",
           ("tests/test_sequences.py::test_from_values_reads_its_values_as_from_arrays_does",)),
    Mutant("recurrence-overflow-warns", "src/memlens/models.py",
           'with np.errstate(over="ignore", invalid="ignore"):', "if True:",
           ("tests/test_models.py::test_an_overflowing_recurrence_is_refused_without_a_warning",)),
    Mutant("rank-budget-depth-overflows", "src/memlens/bounds.py",
           "    except OverflowError:\n        raise ValueError(f\"K is beyond",
           "    except ZeroDivisionError:\n        raise ValueError(f\"K is beyond",
           ("tests/test_bounds.py::test_rank_budget_refuses_a_depth_or_a_width_outside_its_domain",)),
    Mutant("table-profile-iterates-a-string", "src/memlens/bounds.py",
           "isinstance(self.values, (str, bytes))", "isinstance(self.values, bytes)",
           ("tests/test_bounds.py::test_decay_profiles_refuse_non_finite_parameters",)),
    Mutant("table-profile-takes-a-non-iterable", "src/memlens/bounds.py",
           "or not isinstance(self.values, Iterable):", ":",
           ("tests/test_bounds.py::test_decay_profiles_refuse_non_finite_parameters",)),
    Mutant("from-values-reads-a-whole-string", "src/memlens/sequences.py",
           "if isinstance(values, (str, bytes)):", "if isinstance(values, bytes):",
           ("tests/test_sequences.py::test_from_values_reads_its_values_as_from_arrays_does",)),
    Mutant("path-digits-most-significant-first", "src/memlens/tensors.py",
           "l ** np.arange(K, dtype=np.int64)[:, None] % l",
           "l ** np.arange(K, dtype=np.int64)[::-1, None] % l",
           ("tests/test_tensors.py::test_path_cores_are_the_window_as_a_train_of_fibres",)),
    Mutant("path-cores-skip-the-one-layer-sum", "src/memlens/tensors.py",
           "    if K == 1:\n        return [(1, zero[:1]", "    if False:\n        return [(1, zero[:1]",
           ("tests/test_tensors.py::test_path_cores_are_the_window_as_a_train_of_fibres",)),
    Mutant("tt-svd-keeps-its-zero-fibres", "src/memlens/tensors.py",
           "np.nonzero(core.any(axis=1))", "np.nonzero(core.any(axis=1) | True)",
           ("tests/test_tensors.py::test_tt_svd_is_the_window_as_a_train_of_fibres",)),
    Mutant("float-limit-check-reads-the-first-core", "src/memlens/models.py",
           "np.isfinite(cores[-1][-1])", "np.isfinite(cores[0][-1])",
           ("tests/test_models.py::test_lowrank_synthesis_near_the_float_limit_names_the_limit",)),
    Mutant("profile-keeps-non-table-values-as-given", "src/memlens/bounds.py",
           '        object.__setattr__(self, "values", vals)\n',
           '        if self.family == "table":\n'
           '            object.__setattr__(self, "values", vals)\n',
           ("tests/test_bounds.py::test_decay_profiles_refuse_non_finite_parameters",)),
    Mutant("rank-budget-writes-any-K-as-text", "src/memlens/bounds.py",
           "not {_int_text(K)}", "not {K}",
           ("tests/test_bounds.py::test_rank_budget_refuses_a_depth_or_a_width_outside_its_domain",)),
    Mutant("coverage-depth-holds-only-earlier-times", "src/memlens/tensors.py",
           "while l ** K <= radius:", "while l ** K < radius:",
           ("tests/test_tensors.py::test_analysis_window_rule",)),
    Mutant("horizon-window-cut-at-the-horizon", "src/memlens/tensors.py",
           "rho.truncate(rho.horizon + 1)", "rho.truncate(rho.horizon)",
           ("tests/test_tensors.py::test_analysis_window_rule",)),
    Mutant("window-depth-refused-from-63", "src/memlens/sequences.py",
           "    if K < 64:", "    if K < 63:",
           ("tests/test_cli.py::test_compare_beyond_the_time_limit_exits_two",)),
    Mutant("window-limit-bits-never-counted", "src/memlens/sequences.py",
           "    if l == 1 << a:", "    if False:",
           ("tests/test_tensors.py::test_a_window_beyond_the_time_limit_is_refused_by_name",)),
    Mutant("number-beyond-a-float-unnamed", "src/memlens/sequences.py",
           '        except OverflowError:\n            raise ValueError(f"{what} is beyond',
           '        except ZeroDivisionError:\n            raise ValueError(f"{what} is beyond',
           ("tests/test_bounds.py::test_rank_budget_refuses_a_depth_or_a_width_outside_its_domain",)),
    Mutant("geometric-window-by-dispatched-power", "src/memlens/sequences.py",
           "np.float_power(self.gamma, live, out=live)", "np.power(self.gamma, live, out=live)",
           ("tests/test_acceptance.py::test_no_module_calls_a_simd_dispatched_transcendental",)),
    Mutant("window-past-the-array-limit-unnamed", "src/memlens/sequences.py",
           "    if n >> 60:", "    if n >> 64:",
           ("tests/test_tensors.py::test_a_window_beyond_the_time_limit_is_refused_by_name",)),
    Mutant("delta-bound-reads-an-infinite-sup", "src/memlens/models.py",
           "if not 0.0 <= sup_val <= _HUGE:", "if not 0.0 <= sup_val:",
           ("tests/test_models.py::test_power_sum_delta_bound_values_and_errors",)),
    Mutant("delta-bound-returns-inf", "src/memlens/models.py",
           "    if not bound <= _HUGE:", "    if False:",
           ("tests/test_models.py::test_power_sum_delta_bound_values_and_errors",)),
)

# {mutant name: why no output may depend on the value it moves}.
FREE_PARAMETERS = {}


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        else:
            shutil.copy2(ROOT / name, dest / name)


def _mutate(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.before) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.before!r} does not occur exactly "
                         f"once in {mutant.path}")
    path.write_text(text.replace(mutant.before, mutant.after), encoding="utf-8")


def _pytest(tree: Path, tests):
    """pytest's exit code for tests run with -x in tree (0 passed, 1 failed),
    or None when they run past TIMEOUT_S."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(clean, tests) != 0:
            print(f"error: the unedited tree fails {' '.join(tests)}", file=sys.stderr)
            return 1
        wrong = []
        for mutant in MUTANTS:
            tree = Path(tmp) / mutant.name
            _copy(tree)
            _mutate(tree, mutant)
            start = time.perf_counter()
            code = _pytest(tree, mutant.tests)
            seconds = time.perf_counter() - start
            shutil.rmtree(tree)
            free = mutant.name in FREE_PARAMETERS
            if code == 1:
                outcome, problem = "killed", free and "it is listed as a free parameter"
            elif code == 0:
                outcome, problem = "survived", not free and "no test it names fails"
            else:
                outcome = "timed out" if code is None else f"pytest exit {code}"
                problem = "its tests did not run to a verdict"
            print(f"{mutant.name:34} {outcome:12} {seconds:6.1f} s", flush=True)
            if problem:
                wrong.append(f"{mutant.name} {outcome}, but {problem}")
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
