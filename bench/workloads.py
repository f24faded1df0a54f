"""The benchmark's workloads: seeded inputs, the jobs run on them, and the
checks that every exact output must pass.

`build(workload, seed)` imports quivercount, builds the workload's rings,
graphs and quivers and returns its jobs; everything it does counts as
set-up.  A job is a name, a thunk that computes one exact output, and a
list of checks.  A check is a label and a predicate over the outputs of
all jobs; it runs after the timed region.  Checks use cross-engine
identities where they exist and, for jobs of a fixed shape, the exact
values recorded from the library in references.json; for verify_all that
is the battery's summary line, which pins its number of checks.  Counts do not
depend on vertex labels, edge ids or arrow orientations, so the recorded
values hold for every seed.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

@dataclass
class Job:
    name: str
    run: Callable[[], object]
    checks: List[Tuple[str, Callable[[dict], bool]]] = field(default_factory=list)


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def load_spec():
    """BENCHMARK.json: the workload names and the metric names and units."""
    with open(SPEC) as fh:
        return json.load(fh)


def digest(value):
    """Short digest of an exact output's canonical text."""
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def matches_reference(name, references):
    return ("matches the recorded value", lambda out: str(out[name]) == references[name])


def build(workload, seed, references):
    if workload not in BUILDERS:
        raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(BUILDERS)))
    rng = random.Random("%s:%d" % (workload, seed))
    return BUILDERS[workload](rng, references)


# -- closed_forms ------------------------------------------------------------

def _relabel(graph, rng):
    """Same graph with shuffled vertex labels and fresh random edge ids."""
    from quivercount import Multigraph
    perm = list(range(1, graph.n + 1))
    rng.shuffle(perm)
    ids = rng.sample(range(1, 10 * graph.edge_count() + 1), graph.edge_count())
    return Multigraph(graph.n, [(ids[i], perm[u - 1], perm[v - 1])
                                for i, (_, u, v) in enumerate(graph.edges)])


def _random_graph(rng, vertices, edges):
    """A random connected multigraph (loops and parallel edges allowed)."""
    from quivercount import Multigraph
    while True:
        pairs = [(rng.randint(1, vertices), rng.randint(1, vertices)) for _ in range(edges)]
        graph = Multigraph(vertices, [(i + 1, u, v) for i, (u, v) in enumerate(pairs)])
        if graph.is_connected():
            return _relabel(graph, rng)


def _closed_forms(rng, references):
    from quivercount import (QPoly, RatQT, a_d_cyclic_closed_form, a_d_polynomial,
                             a_genfun, cycle_graph, q_eulerian, r_d_polynomial, r_genfun)
    from quivercount.genfun import epsilon1_value, epsilon_value, eulerian_numbers

    c7 = _relabel(cycle_graph(7), rng)
    c8 = _relabel(cycle_graph(8), rng)
    randoms = [_random_graph(rng, 3, 6) for _ in range(2)]
    qm1 = QPoly({1: 1, 0: -1})

    def r_inversion(graph, name):
        def check(out):
            f = out[name]
            sign = (-1) ** ((graph.edge_count() - 1) % 2)
            rhs = RatQT(epsilon_value(graph)) + sign * (QPoly.monomial(graph.b1()) * f)
            return f.invert_vars() == rhs
        return "inversion identity via invert_vars", check

    def a_inversion(graph, name):
        def check(out):
            f = out[name]
            rhs = RatQT(epsilon1_value(graph)) + (-1) ** (graph.n % 2) * f
            return f.invert_vars() == rhs
        return "inversion identity via invert_vars", check

    def q_at_one(out):
        rows = {}
        for (i, j), c in out["q_eulerian_7"].coeffs.items():
            rows[j] = rows.get(j, 0) + c
        return [rows.get(j, 0) for j in range(7)] == eulerian_numbers(7)

    jobs = [
        Job("r_genfun_C7", lambda: r_genfun(c7), [
            matches_reference("r_genfun_C7", references),
            r_inversion(c7, "r_genfun_C7"),
            ("T^d coefficients equal R_d, d = 0..4",
             lambda out: all(out["r_genfun_C7"].series_coefficient(d) == r_d_polynomial(c7, d)
                             for d in range(5)))]),
        Job("r_d_C8_5", lambda: r_d_polynomial(c8, 5), [
            matches_reference("r_d_C8_5", references),
            ("(q-1) R_5(C8) + 8 * 5^7 equals the cyclic closed form A_5(C8)",
             lambda out: qm1 * out["r_d_C8_5"] + QPoly.const(8 * 5 ** 7)
             == a_d_cyclic_closed_form(8, 5))]),
        Job("q_eulerian_7", lambda: q_eulerian(7), [
            matches_reference("q_eulerian_7", references),
            ("F_7 at q = 1 is the Eulerian row 7", q_at_one)]),
    ]
    for k, graph in enumerate(randoms, 1):
        gen, poly = "a_genfun_G%d" % k, "a_d4_G%d" % k
        jobs.append(Job(gen, lambda g=graph: a_genfun(g), [
            a_inversion(graph, gen),
            ("T^d coefficients equal A_d, d = 0..3",
             lambda out, g=graph, f=gen: all(out[f].series_coefficient(d) == a_d_polynomial(g, d)
                                             for d in range(4)))]))
        jobs.append(Job(poly, lambda g=graph: a_d_polynomial(g, 4), [
            ("equals the T^4 coefficient of A",
             lambda out, f=gen, p=poly: out[f].series_coefficient(4) == out[p]),
            ("degree 4 * b1 with leading coefficient 4^bridges",
             lambda out, g=graph, p=poly: out[p].degree() == 4 * g.b1()
             and out[p].leading_coefficient() == 4 ** g.bridge_count())]))
    return jobs


# -- group_average -------------------------------------------------------------

def _orient(quiver, rng, per_arrow):
    """A seeded orientation: each arrow flipped independently (trees, where
    every orientation has the same cost) or all arrows reversed together."""
    ids = [e for e, s, t in quiver.arrows() if s != t]
    if per_arrow:
        return quiver.flip([e for e in ids if rng.random() < 0.5])
    return quiver.flip(ids) if rng.random() < 0.5 else quiver


def _group_average(rng, references):
    from quivercount import (a_count, banana_quiver, cycle_quiver, jordan_quiver, m_count,
                             m_preproj, make_field, make_prime_field, make_truncated,
                             path_quiver)

    f2, f3, f5 = make_prime_field(2), make_prime_field(3), make_prime_field(5)
    f4 = make_field(4)
    k2f2, k2f3 = make_truncated(f2, 2), make_truncated(f3, 2)
    kronecker = _orient(banana_quiver(2), rng, per_arrow=False)
    a2 = _orient(path_quiver(2), rng, per_arrow=True)
    c2 = _orient(cycle_quiver(2), rng, per_arrow=False)
    jordan = jordan_quiver()
    a3 = _orient(path_quiver(3), rng, per_arrow=True)
    a2_preproj = _orient(path_quiver(2), rng, per_arrow=True)

    def job(name, thunk, *extra):
        return Job(name, thunk, [matches_reference(name, references), *extra])

    def conjugacy_classes(name, q):
        # m_count of the Jordan loop at rank 2 counts conjugacy classes of
        # 2x2 matrices over F_q, of which there are q^2 + q.
        return ("equals q^2 + q at q = %d" % q, lambda out: out[name] == q * q + q)

    return [
        job("a_count_kronecker_F5_22", lambda: a_count(kronecker, f5, (2, 2))),
        job("m_count_A2_k2F2_22", lambda: m_count(a2, k2f2, (2, 2))),
        job("m_count_C2_k2F2_22", lambda: m_count(c2, k2f2, (2, 2))),
        job("m_count_jordan_F5_2", lambda: m_count(jordan, f5, (2,)),
            conjugacy_classes("m_count_jordan_F5_2", 5)),
        job("m_count_jordan_F4_2", lambda: m_count(jordan, f4, (2,)),
            conjugacy_classes("m_count_jordan_F4_2", 4)),
        job("m_count_A3_k2F3_121", lambda: m_count(a3, k2f3, (1, 2, 1))),
        job("m_preproj_A2_F3_22", lambda: m_preproj(a2_preproj, f3, (2, 2))),
    ]


# -- verify_all ----------------------------------------------------------------

def _verify_all(rng, references):
    from quivercount import cli

    def run():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["verify", "all"])
        return code, text.getvalue()

    summary = references["verify_all_summary"]

    def complete_battery(out):
        code, text = out["verify_all"]
        lines = text.splitlines()
        return (code == 0 and bool(lines) and lines[-1] == summary
                and not any(line.startswith("FAIL") for line in lines))

    return [Job("verify_all", run, [("exit code 0 and the summary reads %r" % summary,
                                     complete_battery)])]


# workload name (as in BENCHMARK.json) -> builder
BUILDERS = {"closed_forms": _closed_forms,
            "group_average": _group_average,
            "verify_all": _verify_all}
