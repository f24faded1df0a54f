"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N
                            [--setup-only] [--trace SPANS.jsonl]

Imports quivercount from the checkout's src/, builds the workload (timed
as set-up), times SETUP_BURSTS speed bursts (bench/speed.py), runs its
jobs one after another (a single closed-loop client, timed as wall time),
records peak resident memory, and then checks every output outside the
timed region.  A SpeedProbe samples bursts during the jobs, and their
time is taken out of the job and span times.  With --trace the jobs run
under the tracer, the spans are written to SPANS.jsonl at the end, and
the per-layer counters are reported; the tracer is removed before the
checks run.  All times are reported as measured; bench/run.py scales them.
Prints one JSON object on its last stdout line.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import speed

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_library():
    """Import quivercount from this checkout, never from anywhere else."""
    sys.path.insert(0, SRC)
    import quivercount
    where = os.path.dirname(os.path.abspath(quivercount.__file__))
    if where != os.path.join(SRC, "quivercount"):
        raise ImportError("quivercount was imported from %s, not from %s" % (where, SRC))


def execute(jobs, tracer=None, now=time.perf_counter):
    """Run the jobs in order; returns (outputs, per-job records, wall seconds).
    A job that raises has no output and records the error."""
    outputs, records = {}, []
    begin = now()
    for job in jobs:
        t0 = now()
        try:
            if tracer is None:
                outputs[job.name] = job.run()
            else:
                tracer.job = job.name
                outputs[job.name] = tracer.span("job." + job.name, "bench", job.run)
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        records.append({"name": job.name, "seconds": now() - t0, "error": error})
    return outputs, records, now() - begin


def check(jobs, outputs, records, digest):
    """Evaluate every check; fills in digests and returns (attempted, failures).

    Each job run and each check is one attempt.  A job that raised fails,
    and so does every one of its checks."""
    attempted, failures = 0, []
    for job, record in zip(jobs, records):
        attempted += 1
        if record["error"] is not None:
            failures.append("%s: raised %s" % (job.name, record["error"].strip().splitlines()[-1]))
        record["digest"] = digest(outputs[job.name]) if job.name in outputs else None
        for label, predicate in job.checks:
            attempted += 1
            try:
                ok = predicate(outputs)
            except Exception as exc:
                ok = False
                label = "%s (raised %s: %s)" % (label, type(exc).__name__, exc)
            if not ok:
                failures.append("%s: %s" % (job.name, label))
    return attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    args = parser.parse_args(argv)

    import_library()
    import workloads
    probe = speed.SpeedProbe()
    tracer = restore = None
    if args.trace:
        import layers
        import tracer as tracing
        tracer = tracing.Tracer(clock=probe.clock)
        restore = layers.instrument(tracer)
    jobs = workloads.build(args.workload, args.seed, workloads.load_references())
    setup_s = time.perf_counter() - START
    bursts = [speed.burst() for _ in range(speed.SETUP_BURSTS)]
    result = {"setup_s": setup_s, "setup_burst_s": statistics.mean(bursts)}
    if not args.setup_only:
        with probe:
            outputs, records, wall_s = execute(jobs, tracer, probe.clock)
        result["burst_s"] = statistics.mean(probe.samples or bursts)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            restore()
            names = [m["name"] for m in workloads.load_spec()["per_layer"]
                     if m["name"] != layers.OVERHEAD]
            result["layers"] = layers.layer_metrics(tracer, names)
            tracer.write_spans(args.trace)
        attempted, failures = check(jobs, outputs, records, workloads.digest)
        result.update(wall_s=wall_s, jobs=records, attempted=attempted, failures=failures)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
