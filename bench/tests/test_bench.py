"""Tests of the benchmark harness itself (tracer, checks, metric names)."""

import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_synthetic_nested_call(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner(x):
        clock.now += 2.0
        return x + 1

    traced_inner = tracer.wrap("b.inner", "b", inner)

    def outer():
        clock.now += 1.0
        y = traced_inner(traced_inner(0))
        clock.now += 3.0
        return y

    tracer.job = "synthetic"
    assert tracer.wrap("a.outer", "a", outer)() == 2
    assert tracer.self_s["a"] == 4.0
    assert tracer.self_s["b"] == 4.0
    assert tracer.total_s["a.outer"] == 8.0
    assert tracer.calls == {"a.outer": 1, "b.inner": 2}

    path = tmp_path / "spans.jsonl"
    tracer.write_spans(str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    root = [s for s in spans if s["name"] == "a.outer"]
    assert len(root) == 1 and root[0]["parent"] is None
    children = [s for s in spans if s["name"] == "b.inner"]
    assert [c["parent"] for c in children] == [root[0]["id"]] * 2
    assert all(s["job"] == "synthetic" for s in spans)
    assert [(c["start"], c["end"]) for c in children] == [(1.0, 3.0), (3.0, 5.0)]


def test_traced_generator_counts_items_and_resumptions():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def produce(n):
        for i in range(n):
            clock.now += 1.0
            yield i

    assert list(tracer.wrap_generator("m.produce", "m", produce)(3)) == [0, 1, 2]
    assert tracer.counts["m.produce.yielded"] == 3
    assert tracer.calls["m.produce"] == 1
    assert tracer.calls["m.produce.next"] == 4
    assert tracer.self_s["m"] == 3.0


def test_instrumentation_counts_and_restores():
    worker.import_library()
    from quivercount import cycle_graph, genfun, r_genfun
    original = genfun.r_genfun
    expected = r_genfun(cycle_graph(3))
    tracer = Tracer()
    restore = layers.instrument(tracer)
    try:
        assert genfun.r_genfun is not original
        assert genfun.r_genfun(cycle_graph(3)) == expected
    finally:
        restore()
    assert genfun.r_genfun is original
    metrics = layers.layer_metrics(tracer, ["multigraph.strict_filtrations.yielded",
                                            "genfun.cvector_of_filtration.calls",
                                            "repenum.fix_nullity.calls"])
    assert metrics["multigraph.strict_filtrations.yielded"] == 13   # Fubini(3)
    assert metrics["genfun.cvector_of_filtration.calls"] == 13
    assert metrics["repenum.fix_nullity.calls"] == 0


def _jordan_f4(references):
    jobs = workloads.build("group_average", 0, references)
    return [job for job in jobs if job.name == "m_count_jordan_F4_2"]


def test_corrupted_reference_makes_failed_ratio_nonzero():
    worker.import_library()
    references = workloads.load_references()
    jobs = _jordan_f4(references)
    outputs, records, _ = worker.execute(jobs)
    attempted, failures = worker.check(jobs, outputs, records, workloads.digest)
    assert failures == []

    corrupted = dict(references, m_count_jordan_F4_2=str(int(references["m_count_jordan_F4_2"]) + 1))
    jobs = _jordan_f4(corrupted)
    outputs, records, _ = worker.execute(jobs)
    attempted, failures = worker.check(jobs, outputs, records, workloads.digest)
    assert len(failures) / attempted > 0
    assert failures == ["m_count_jordan_F4_2: matches the recorded value"]


def test_verify_all_check_pins_the_battery_size():
    worker.import_library()
    (job,) = workloads.build("verify_all", 0, workloads.load_references())
    (_, complete_battery), = job.checks
    assert complete_battery({"verify_all": (0, "PASS  a\n57 checks, 0 failed\n")})
    assert not complete_battery({"verify_all": (0, "PASS  a\n56 checks, 0 failed\n")})
    assert not complete_battery({"verify_all": (1, "FAIL  a\n57 checks, 1 failed\n")})


def test_raising_job_fails_with_its_checks():
    job = workloads.Job("boom", lambda: 1 // 0, [("never reached", lambda out: out["boom"] == 0)])
    outputs, records, _ = worker.execute([job])
    attempted, failures = worker.check([job], outputs, records, workloads.digest)
    assert attempted == 2 and len(failures) == 2
    assert failures[0].startswith("boom: raised ZeroDivisionError")


def test_names_match_benchmark_json():
    worker.import_library()
    spec = workloads.load_spec()
    assert spec["paths"] == ["bench"]
    assert sorted(workloads.BUILDERS) == sorted(w["name"] for w in spec["workloads"])

    rep = {"wall_s": 2.0, "burst_s": 0.004, "setup_s": 0.5, "setup_burst_s": 0.004,
           "peak_rss_mb": 20.0}
    emitted = run.end_to_end([rep], [rep, rep])
    assert sorted(emitted) == sorted(m["name"] for m in spec["end_to_end"])

    per_layer = [m["name"] for m in spec["per_layer"]]
    assert layers.OVERHEAD in per_layer
    names = [name for name in per_layer if name != layers.OVERHEAD]
    assert sorted(layers.layer_metrics(Tracer(), names)) == sorted(names)
    for misspelt in ("verify.check_nothing.s", "nomodule.self_s", "modp.solve.calls"):
        with pytest.raises(KeyError):
            layers.layer_metric(Tracer(), misspelt)


def _gl_order(n, q, d=1):
    """|GL_n(F_q[t]/(t^d))| = |GL_n(F_q)| * q^(n^2 (d-1))."""
    return math.prod(q ** n - q ** i for i in range(n)) * q ** (n * n * (d - 1))


def _fubini(m):
    f = [1]
    for n in range(1, m + 1):
        f.append(sum(math.comb(n, k) * f[n - k] for k in range(1, n + 1)))
    return f[m]


def test_pathological_enumerand_counts():
    with open(os.path.join(BENCH, "pathological.json")) as fh:
        cases = {c["name"]: c["enumerands"] for c in json.load(fh)["cases"]}
    units = {(q, d): (q - 1) * q ** (d - 1) for q, d in [(3, 2), (5, 1), (5, 2)]}
    jordan_k2f3 = _gl_order(2, 3, 2) // units[(3, 2)]
    assert cases == {
        "r_d_C8_8": 8 ** 8,
        "r_genfun_C10": _fubini(10),
        "m_count_jordan_k2F3_2": jordan_k2f3 ** 2,
        "m_count_A2_k2F3_22": jordan_k2f3 * _gl_order(2, 3, 2),
        "a_preproj_A2_F5_22": _gl_order(2, 5) // units[(5, 1)] * _gl_order(2, 5),
        "a_count_A3_k2F5_121": units[(5, 2)] ** 2 * (_gl_order(2, 5, 2) // units[(5, 2)]),
    }
