"""A mutant battery for the exact kernels, run by hand:

    python tests/mutants.py                 # every mutant
    python tests/mutants.py NAME [NAME ...] # the named ones

Each mutant is one source substitution.  It is applied to a copy of src/
in a temporary directory, and a named subset of the test suite runs on
the copy (pytest -x, PYTHONPATH pointing at it) under a per-mutant
timeout.  A failing run kills the mutant; a passing run is a survivor; a
timeout is a finding of its own, never a kill, since a mutant that makes
a loop run away is a defect the suite should name.  A mutant marked
equivalent computes the same function as the original, for the reason
given with it, so it is expected to survive.

The script exits 0 when every mutant is killed or survives as documented,
and 1 otherwise.  It uses only the standard library; pytest does not
collect it, so it adds no gate to the test suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120       # seconds per mutant

# file under src/quivercount, the text replaced (it must occur exactly
# once), its replacement, the test ids to run, and None or the reason the
# mutant is equivalent
Mutant = namedtuple("Mutant", "name path old new tests equivalent")
LIFT_TESTS = ["tests/test_repenum.py::test_lifted_classes_equal_the_whole_group_partition",
              "tests/test_repenum.py::test_class_equation"]
SKIP_PROPERTY = ("tests/test_properties.py::"
                 "test_arrow_tables_solve_exactly_the_pairs_of_positive_nullity")
STABILIZER_TESTS = ["tests/test_repenum.py::test_stabilizer_orders",
                    "tests/test_properties.py::test_stabilizer_orders_equal_the_group_filter"]

MUTANTS = [
    Mutant("moment_star_sign", "repenum.py",
           "tab.add[b][tab.neg[y]]", "tab.add[b][y]",
           ["tests/test_repenum.py::test_moment_map_examples"], None),
    # over a Frobenius ring V^g and V*^g have equal dimensions, so only a
    # ring whose halves differ, sqz(F_2, 2) at (2, 1), can catch this
    Mutant("rank_sum_exponent_half", "repenum.py",
           "p ** (other_dim - modp.rank(", "p ** (sum(map(len, enumerated)) - modp.rank(",
           ["tests/test_repenum.py::test_rank_sum_equals_the_zero_fiber_filter"], None),
    Mutant("rank_sum_line_weight", "repenum.py",
           "+ (p - 1) * sum(lines(", "+ sum(lines(",
           ["tests/test_repenum.py::test_one_rank_per_line_once_per_pair_of_fixed_spaces"],
           None),
    Mutant("rank_sum_zero_point", "repenum.py",
           "return p ** other_dim + ", "return 0 + ",
           ["tests/test_repenum.py::test_rank_sum_equals_the_zero_fiber_filter"], None),
    # a memo that answers for every pair sharing the enumerated half
    Mutant("rank_sum_memo_one_half", "repenum.py",
           "    @cache\n    def rank_sum(",
           "    @(lambda f, memo={}: lambda e, o, s: memo[e] if e in memo "
           "else memo.setdefault(e, f(e, o, s)))\n    def rank_sum(",
           ["tests/test_repenum.py::test_rank_sum_equals_the_zero_fiber_filter"], None),
    Mutant("enumerate_starred_on_ties", "repenum.py",
           "starred = dims[1] < dims[0]", "starred = dims[1] <= dims[0]",
           ["tests/test_repenum.py::test_rank_sum_equals_the_zero_fiber_filter",
            "tests/test_repenum.py::test_preproj_columns_are_combinations_of_basis_pairs",
            "tests/test_guard.py"],
           "on a tie both halves have p^dim points, and enumerating either one "
           "counts the same pairs (x, y) with mu(x, y) = 0 and charges the same "
           "p^dim, with k * |b| moment maps either way"),
    Mutant("fourier_zero_tuple", "repenum.py",
           "tuple(tuple(tab.one if i == j else tab.zero for i in range(a)",
           "tuple(tuple(tab.zero for i in range(a)",
           ["tests/test_repenum.py::test_fourier_fiber_counts", "tests/test_guard.py",
            "tests/test_properties.py::test_preprojective_rank_sums_equal_the_zero_fiber_filter"],
           "a scalar tuple c fixes all of V x V*, as c X - X c = 0 for every "
           "arrow matrix X, so the zero tuple has the identity's fixed space, "
           "basis and rank sum"),
    Mutant("chain_nullity_valuation", "ring_tables.py",
           "total += v\n", "total += v - (v > 1)\n",
           ["tests/test_properties.py::test_chain_ring_elimination_equals_the_f_p_rank"], None),
    Mutant("burnside_width", "repenum.py",
           "for _, t in factors)).bit_length() + 1", "for _, t in factors)).bit_length()",
           ["tests/test_repenum.py"], None),
    # the lift of GL_n classes through the socle quotient: a class of s
    # points modulo W has size0 |W| s elements
    Mutant("lift_size_without_w", "gl.py",
           "size0 * p ** len(pivots) * size", "size0 * size", LIFT_TESTS, None),
    # soc = m holds only when m^2 = 0, so only k_3, eps(k_2(F_2)) and the
    # skewed-basis ring can catch these two
    Mutant("lift_socle_all_of_m", "gl.py",
           "socle = [t.index[s] for s in alg.socle()]", "socle = basis", LIFT_TESTS, None),
    Mutant("lift_k_constant_dropped", "gl.py",
           "fill([point(conjugate(a, b, g0))],", "fill([0],", LIFT_TESTS, None),
    # the units of End(x): the system g_t x - x g_s with its sign, the
    # determinant filter, and the closure of the kept centralizer lifts
    # grown by every generator (by the new one alone it is no group, and
    # the lift keeps units that the true closure holds already)
    Mutant("end_star_sign", "gl.py",
           "t.add[row[cell]][t.neg[x[a * k + j]]]", "t.add[row[cell]][x[a * k + j]]",
           STABILIZER_TESTS + LIFT_TESTS, None),
    Mutant("end_units_without_det", "gl.py",
           "if all(t.is_unit[t.det(b, a)] for b, a in zip(blocks, alpha)):", "if True:",
           STABILIZER_TESTS + LIFT_TESTS, None),
    # the scalars act trivially on every fibre and start the group, so a unit
    # is kept only outside <scalars, kept>; from 1 alone the lift keeps
    # scalar generators (the same classes, more generators to apply)
    Mutant("closure_without_scalars", "gl.py",
           "group, lifts, first = set(scalars),", "group, lifts, first = {one},",
           ["tests/test_repenum.py::test_the_lift_keeps_a_unit_only_outside_the_closure"], None),
    Mutant("closure_by_new_generator", "gl.py",
           "for x in new for s, _ in lifts} - group", "for x in new for s in [h]} - group",
           LIFT_TESTS + ["tests/test_repenum.py::"
                         "test_the_lift_keeps_a_unit_only_outside_the_closure"], None),
    # the classes of all of M_n (the Fourier average) beside those of GL_n:
    # each memo and the canonical forms must keep the two apart
    Mutant("arrow_key_without_whole", "repenum.py",
           '{}), (rows, cols, whole)', '{}), (rows, cols)',
           ["tests/test_repenum.py::test_gl_and_matrix_class_memos_stay_apart"], None),
    Mutant("class_key_without_whole", "gl.py",
           'key = "classes", size, whole', 'key = "classes", size',
           ["tests/test_repenum.py::test_gl_and_matrix_class_memos_stay_apart"], None),
    Mutant("matrix_classes_without_x", "gl.py",
           "irreducible[1 - whole:]", "irreducible[1:]",
           ["tests/test_repenum.py::test_lifted_classes_equal_the_whole_group_partition",
            "tests/test_repenum.py::test_fourier_fiber_counts"], None),
    # the canonical forms over a field: a centralizer order with sum lam_i^2
    # for sum lam'_i^2 in its exponent, and a companion column without its
    # sign, which only a field of odd order can see
    Mutant("centralizer_unconjugated", "gl.py",
           "squares = sum((2 * i + 1) * k for i, k in enumerate(sorted(lam, reverse=True)))",
           "squares = sum(k * k for k in lam)", LIFT_TESTS, None),
    Mutant("companion_without_sign", "gl.py",
           "= [t.neg[c] for c in h[:-1]]", "= list(h[:-1])", LIFT_TESTS, None),
    # the arrow tables skip a pair of classes when their labels are
    # disjoint: a label missing a factor, or a skip of every pair with
    # unequal labels, skips pairs of positive nullity
    Mutant("label_drops_a_factor", "gl.py",
           "labels.append(frozenset(partitions))",
           "labels.append(frozenset(list(partitions)[1:]))", [SKIP_PROPERTY], None),
    Mutant("labels_equal_not_disjoint", "repenum.py",
           "1 if f.isdisjoint(h) else", "1 if f != h else", [SKIP_PROPERTY], None),
    # the counterexample's Burnside sum over 1 + m: the units outside it, one
    # fixed point each, and the p - 1 points of each line
    Mutant("counterexample_units_off_1_plus_m", "repenum.py",
           "divmod(units - p ** (dim - rd) + p ** dim", "divmod(p ** dim",
           ["tests/test_repenum.py::test_counterexample_line_ranks_equal_the_unit_loop"], None),
    Mutant("counterexample_line_weight", "repenum.py",
           "+ (p - 1) * ranked, units)", "+ ranked, units)",
           ["tests/test_repenum.py::test_counterexample_line_ranks_equal_the_unit_loop"], None),
    Mutant("times_transposed", "ring_tables.py",
           "mul[a[r * inner + k]][b[k * cols + c]]", "mul[a[r * inner + k]][b[c * inner + k]]",
           ["tests/test_repenum.py::test_class_equation", "tests/test_finite_algebra.py"], None),
]


def run(mutant, scratch):
    """Apply the mutant to a copy of src/ under scratch and run its tests;
    returns (outcome, seconds), the outcome killed, survived, timeout or
    stale (the text to replace is missing or not unique)."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src)
    path = src / "quivercount" / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return "stale", 0.0
    path.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *mutant.tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    # pytest exits 1 on a failed test; any other nonzero status (no test
    # collected, a usage error) means the subset did not run
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return outcome, time.perf_counter() - start


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit("unknown mutant %s" % ", ".join(sorted(unknown)))
    findings = 0
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as scratch:
            outcome, seconds = run(mutant, Path(scratch))
        expected = "survived" if mutant.equivalent else "killed"
        ok = outcome == expected
        findings += not ok
        print("%-26s %-8s %6.1f s%s" % (mutant.name, outcome, seconds,
                                         "" if ok else "   <- expected %s" % expected))
        if mutant.equivalent and ok:
            print("    equivalent: %s" % mutant.equivalent)
    print("%d mutants, %d findings" % (len(chosen), findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
