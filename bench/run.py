"""Exact-counting benchmark for quivercount.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Every repetition of a workload runs in
a fresh interpreter (bench/worker.py), so module-level caches start cold
as they do for a user; each is a single closed-loop client that starts a
job only after the previous one returned.

--trace 0 sets up the workload in SETUP_PROCESSES set-up-only
interpreters, then repeats the workload until the next repetition would
end after S seconds (at least MIN_REPS times), and reports the medians:
  wall_s       seconds to finish the job list, set-up excluded
  setup_s      seconds to import quivercount and build the inputs
  peak_rss_mb  peak resident memory of the workload's interpreter
Both times are scaled to a reference machine speed by the bursts of
bench/speed.py timed in the same interpreter; the raw times are printed
as well.

--trace 1 runs the workload once untraced and once under the tracer
(bench/layers.py), reports the per-layer metrics of the traced run (times
scaled like wall_s) and trace.overhead_ratio (traced wall_s over untraced
wall_s), and writes the spans to .bench_out/.  The two runs must give
identical outputs.

Every output is checked outside the timed region.  One line per job and
repetition gives its seconds and a digest of its exact output.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A repetition that crashes or times out ends the run with exit code 1 and
no result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROCESSES = 24
MIN_REPS = 2
DEADLINE_S = 170

sys.path.insert(0, HERE)
import layers  # noqa: E402
from speed import scale  # noqa: E402
from workloads import load_spec  # noqa: E402

SPEC = load_spec()
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class RunError(RuntimeError):
    pass


def spawn(workload, seed, deadline, extra=()):
    """Run one worker process; returns its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a repetition")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError("repetition exceeded the %d s deadline" % DEADLINE_S) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def compare_digests(reps, label):
    """One check per job of each later repetition: same output as the first."""
    attempted, failures = 0, []
    first = {job["name"]: job["digest"] for job in reps[0]["jobs"]}
    for rep in reps[1:]:
        for job in rep["jobs"]:
            attempted += 1
            if job["digest"] != first[job["name"]]:
                failures.append("%s: %s output differs from the first run" % (job["name"], label))
    return attempted, failures


def report_jobs(reps, labels):
    for label, rep in zip(labels, reps):
        for job in rep["jobs"]:
            print("job %-8s %-26s %9.4f s  %s" % (label, job["name"], job["seconds"], job["digest"]))


def end_to_end(setups, reps):
    """The end-to-end metrics: medians over the repetitions, and for
    setup_s over every set-up in the run."""
    return {
        "wall_s": statistics.median(scale(r["wall_s"], r["burst_s"]) for r in reps),
        "setup_s": statistics.median(scale(r["setup_s"], r["setup_burst_s"])
                                     for r in setups + reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def run_untraced(workload, seed, seconds, deadline):
    setups = [spawn(workload, seed, deadline, ["--setup-only"]) for _ in range(SETUP_PROCESSES)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(spawn(workload, seed, deadline))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    report_jobs(reps, ["rep%d" % i for i in range(len(reps))])
    for label, rep in zip(("rep%d" % i for i in range(len(reps))), reps):
        print("raw %-8s wall %.4f s  setup %.4f s  burst %.5f s over the jobs, %.5f s after set-up"
              % (label, rep["wall_s"], rep["setup_s"], rep["burst_s"], rep["setup_burst_s"]))
    print("repetitions %d, set-ups %d" % (len(reps), len(setups) + len(reps)))
    return reps, compare_digests(reps, "repeated"), end_to_end(setups, reps)


def run_traced(workload, seed, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (workload, seed))
    base = spawn(workload, seed, deadline)
    traced = spawn(workload, seed, deadline, ["--trace", spans])
    report_jobs([base, traced], ["untraced", "traced"])
    metrics = {name: scale(value, traced["burst_s"]) if UNITS[name] == "s" else value
               for name, value in traced["layers"].items()}
    metrics[layers.OVERHEAD] = (scale(traced["wall_s"], traced["burst_s"])
                                / scale(base["wall_s"], base["burst_s"]))
    print("spans written to %s (unscaled seconds)" % os.path.relpath(spans, ROOT))
    return [base, traced], compare_digests([base, traced], "traced"), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quivercount", "__init__.py")):
        print("error: no quivercount sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            reps, (extra_attempts, extra_failures), metrics = run_traced(
                args.workload, args.seed, deadline)
        else:
            reps, (extra_attempts, extra_failures), metrics = run_untraced(
                args.workload, args.seed, args.seconds, deadline)
        named = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
        if sorted(metrics) != sorted(named):
            raise RunError("the metrics %s differ from those named in BENCHMARK.json"
                           % sorted(set(metrics) ^ set(named)))
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = extra_attempts + sum(r["attempted"] for r in reps)
    failures = extra_failures + [f for r in reps for f in r["failures"]]
    for failure in failures:
        print("FAILED %s" % failure)
    print("failed_ratio %.6f (%d of %d jobs and checks)"
          % (len(failures) / attempted, len(failures), attempted))
    for name, value in metrics.items():
        print("metric %-52s %.6g %s" % (name, value, UNITS[name]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
