"""Benchmark runner for z2nsuper.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; z2nsuper is imported from its `src/`.  One
run is one fresh process on one thread, a closed loop with one client: a
seeded batch of distinct jobs, sized so that it takes about S seconds at the
defining commit, runs back to back.

--trace 0 reports the end-to-end metrics; set-up is repeated three times and
its median reported.  --trace 1 runs a fixed prefix of the batch twice, first
plain and then with the outside-in tracer, and reports the per-layer metrics.
Output checks run after each job, outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and the metrics.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 3
# Stop starting jobs after this much time in the process, so a run on a much
# slower build still ends (and reports) well within three minutes.
DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def sha(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


class Outcome:
    """One job's wall time, output digest and problems."""

    def __init__(self, job, wall_ns, digest, problems):
        self.job = job
        self.wall_ns = wall_ns
        self.digest = digest
        self.problems = problems


def run_job(wl, job, tracer=None):
    """Time one job, then render and check it outside the timed region."""
    if tracer is not None:
        tracer.job = job.index
        tracer.install()
    out = None
    err = None
    t0 = time.perf_counter_ns()
    try:
        out = wl.run(job)
    except Exception:  # a failing job is counted, not fatal
        err = traceback.format_exc()
    wall = time.perf_counter_ns() - t0
    if tracer is not None:
        tracer.uninstall()
    if err is not None:
        return Outcome(job, wall, "", ["raised:\n" + err])
    try:
        text = wl.render(job, out)
        problems = wl.check(job, out)
    except Exception:
        text, problems = "", ["check raised:\n" + traceback.format_exc()]
    return Outcome(job, wall, sha([text]), problems)


def run_batch(jobs, step):
    """step(job) for each job, back to back, until the deadline."""
    results = []
    for job in jobs:
        if time.perf_counter() - _T_START > DEADLINE_S:
            print("deadline reached after %d of %d jobs" % (len(results), len(jobs)),
                  file=sys.stderr)
            break
        results.append(step(job))
    return results


def report_failures(outcomes):
    for o in outcomes:
        for p in o.problems:
            print("FAIL job %d (%s): %s" % (o.job.index, o.job.cls, p), file=sys.stderr)


def class_means(outcomes):
    by = {}
    for o in outcomes:
        by.setdefault(o.job.cls, []).append(o.wall_ns / 1e9)
    return {cls: round(statistics.mean(v), 4) for cls, v in by.items()}


def setup(wl, seed, count):
    """Generate the batch and run the warm-up job; returns (jobs, warm-up outcome)."""
    warm, jobs = wl.make_batch(seed, count)
    return jobs, run_job(wl, warm)


def timed_run(wl, args):
    started_s = time.perf_counter() - _T_START   # run.py start to here, z2nsuper import included
    count = wl.batch_size(args.seconds)
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs, warm = setup(wl, args.seed, count)
        times.append(time.perf_counter() - t0)
        digests.add(sha(j.text for j in jobs))
    outcomes = run_batch(jobs, lambda job: run_job(wl, job))
    walls = [o.wall_ns / 1e9 for o in outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    report_failures(outcomes + [warm])
    attempted = max(1, len(outcomes))
    metrics = {
        "setup_s": started_s + statistics.median(times),
        "jobs_per_s": (len(outcomes) - failed) / sum(walls) if walls else 0.0,
        "pass_ratio": (len(outcomes) - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # The median job time is printed, not reported as a metric: the median
    # job lands in a fast or a slow phase of the machine as a whole, so its
    # run-to-run spread exceeds any bound a regression gate can use.
    notes = {
        "jobs": len(outcomes),
        "job_s_p50": "%.6f s (n=%d)" % (statistics.median(walls) if walls else 0.0, len(walls)),
        "class_mean_s": class_means(outcomes),
        "setup_repeats_s": times,
        "inputs_sha256": sorted(digests),
        "outputs_sha256": sha(o.digest for o in outcomes),
    }
    correct = failed == 0 and not warm.problems and len(digests) == 1 and len(outcomes) == count
    return correct, attempted, failed, metrics, END_TO_END_UNITS, notes


def traced_run(wl, args, import_s):
    from tracer import Tracer, metric_units

    count = min(wl.trace_jobs, wl.batch_size(args.seconds))
    jobs, warm = setup(wl, args.seed, count)
    tracer = Tracer()
    # Each job runs plain and then traced, so both see the same warm state.
    pairs = run_batch(jobs, lambda job: (run_job(wl, job), run_job(wl, job, tracer)))
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    report_failures(plain + traced + [warm])
    mismatched = [t.job.index for p, t in zip(plain, traced) if p.digest != t.digest]
    for i in mismatched:
        print("FAIL job %d: traced output differs from the untraced output" % i,
              file=sys.stderr)
    failed = sum(1 for p, t in zip(plain, traced)
                 if p.problems or t.problems or p.digest != t.digest)
    plain_ns = sum(o.wall_ns for o in plain)
    traced_ns = sum(o.wall_ns for o in traced)
    metrics = tracer.layer_metrics()
    metrics["setup.import_s"] = import_s
    metrics["trace.overhead_ratio"] = traced_ns / plain_ns if plain_ns else 0.0
    metrics["trace.unattributed_s"] = (traced_ns - tracer.top_ns) / 1e9
    notes = {
        "jobs": len(traced),
        "traced_wall_ns": traced_ns,
        "self_ns_total": tracer.self_ns_total(),
        "unattributed_ns": traced_ns - tracer.top_ns,
        "spans": len(tracer.spans),
        "inputs_sha256": sha(j.text for j in jobs),
        "outputs_sha256": sha(o.digest for o in traced),
        "untraced_outputs_sha256": sha(o.digest for o in plain),
    }
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    dump = dict(workload=wl.name, seed=args.seed, machine=machine(), metrics=metrics,
                **tracer.dump())
    with open(os.path.join(out_dir, "trace-%s-seed%d.json" % (wl.name, args.seed)), "w") as fh:
        json.dump(dump, fh)
    correct = (failed == 0 and not warm.problems and len(traced) == count
               and len(plain) == count)
    return correct, len(traced), failed, metrics, metric_units(), notes


def main(argv=None):
    p = argparse.ArgumentParser(description="z2nsuper benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "z2nsuper")):
        print("error: no z2nsuper sources under %s" % src, file=sys.stderr)
        return 2
    sys.path[:0] = [src, BENCH_DIR]
    t0 = time.perf_counter()
    import z2nsuper  # noqa: F401
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    workdir = os.path.join(BENCH_DIR, "out", "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](workdir)
        if args.trace:
            result = traced_run(wl, args, import_s)
        else:
            result = timed_run(wl, args)
        correct, attempted, failed, metrics, units, notes = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    print("machine %s" % json.dumps(machine()))
    for key, value in notes.items():
        print("%s %s" % (key, value))
    for name, value in metrics.items():
        print("metric %-48s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
