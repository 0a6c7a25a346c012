"""Benchmark of the gekeler CLI: end-to-end metrics or a traced run.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
One client runs one job at a time (a closed loop, no threads, no pool).
Each pass over the workload's job list runs in a fresh interpreter
(worker.py), so state the program keeps in memory lasts one pass.  An
end-to-end run makes a fixed number of passes, about S seconds' worth at
the commit that added the benchmark; a traced run repeats passes until S
seconds have been measured, at least MIN_PASSES of each kind.
Every job's output is checked.  With --trace 0 the last line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics:
untraced and traced passes alternate, and the arithmetic microbenchmarks
run once.  The lines above it give each metric with its unit and sample
count.  End-to-end times are scaled by calibration slices (calib.py) to
a fixed machine speed; NOTES.md says why.
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
sys.path.insert(0, HERE)

import calib  # noqa: E402
import micro  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 165      # every worker is stopped by then
MIN_PASSES = 3         # of each kind of pass
# Seconds a pass with its worker launch took at the commit that added the
# benchmark, on a shared 2-vCPU VM in a busy stretch (calm stretches run
# 10-40% faster).  They turn --seconds into a fixed number of end-to-end
# passes, so that every commit's medians are taken over as many samples.
PASS_S_AT_PIN = {"icm_window": 4.5, "census": 2.7, "intake": 1.7}


class WorkerError(Exception):
    pass


def run_worker(workload, seed, mode, deadline, spans=None):
    """(set-up seconds, result dict or None if stopped) of one worker."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {err.strip()}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else {})


def tail(values):
    """(value, percentile) of the highest percentile with at least 10
    samples beyond it; with too few samples for that rank to lie above the
    median, the largest sample."""
    s = sorted(values)
    k = len(s) - 11
    if k < len(s) // 2:
        k = len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


class Run:
    def __init__(self, args):
        self.args = args
        self.jobs = workloads.jobs_for(args.workload, args.seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []

    def worker(self, mode, spans=None):
        return run_worker(self.args.workload, self.args.seed, mode,
                          self.deadline, spans)

    def one_pass(self, mode, spans=None):
        """(set-up seconds, result) of one pass; None if it was stopped."""
        setup_s, res = self.worker(mode, spans)
        self.attempted += len(self.jobs)
        if res is None:  # stopped at the run limit: every job counts as failed
            self.failed += len(self.jobs)
            self.failures.append(f"{mode} pass stopped at the run limit")
            return setup_s, None
        for job, (_, status, rc) in zip(self.jobs, res["jobs"]):
            if status != workloads.OK:
                self.failed += 1
                self.wrong += status == workloads.WRONG
                self.failures.append(f"{status} (exit {rc}): {job['argv']}")
        return setup_s, res

    def more(self, started, passes):
        if time.monotonic() > self.deadline - 15:
            return False
        measured = time.perf_counter() - started
        return measured < self.args.seconds or passes < MIN_PASSES


def end_to_end(run):
    """Metrics of a fixed number of passes.  Each job time is scaled by the
    mean calibration slice of its pass, each set-up by a slice timed here
    before the launch and one the worker times once it is ready."""
    passes = max(MIN_PASSES,
                 round(run.args.seconds / PASS_S_AT_PIN[run.args.workload]))
    setups, raw_setups, results = [], [], []
    while len(results) < passes and time.monotonic() < run.deadline - 15:
        for mode in ("probe", "pass"):
            before = calib.slice_s()
            setup_s, res = (run.worker(mode) if mode == "probe"
                            else run.one_pass(mode))
            if res is None:
                break
            raw_setups.append(setup_s)
            setups.append(calib.scale(setup_s, [before, res["calib"][0]]))
        if res is None:
            break
        results.append(res)
    if not results:
        raise WorkerError("no pass finished within the run limit")
    record(run, "passes", {"setups": raw_setups, "scaled_setups": setups,
                           "passes": results})
    n = len(results)
    jobs = [[calib.scale(r["jobs"][j][0], r["calib"]) for r in results]
            for j in range(len(run.jobs))]
    job_s = [statistics.median(times) for times in jobs]
    tail_s, tail_pct = tail(job_s)
    raw_pass_s = statistics.median(r["pass_s"] for r in results)
    each = f"each job's median of {n} scaled times"
    return [
        ("pass_s", sum(job_s), "s",
         f"sum over {len(job_s)} jobs of {each}; median unscaled pass "
         f"{raw_pass_s:.4g} s"),
        ("job_p50_s", statistics.median(job_s), "s",
         f"median over {len(job_s)} jobs of {each}"),
        ("job_tail_s", tail_s, "s",
         f"p{tail_pct:.1f} over {len(job_s)} jobs of {each}"),
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} scaled interpreter launches; unscaled "
         f"{statistics.median(raw_setups):.4g} s"),
        ("peak_rss_mb", statistics.median(r["rss_mb"] for r in results), "MB",
         f"median of {n} passes"),
    ]


def record(run, kind, data):
    """Write a run's raw data to perfbench/out/ (ignored by git)."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{kind}-{run.args.workload}-"
                        f"seed{run.args.seed}.json")
    with open(path, "w") as f:
        json.dump(data, f)


def per_layer(run):
    _, res = run.worker("micro")
    if res is None:
        raise WorkerError("microbenchmarks did not finish within the run limit")
    run.wrong += len(res["bad_checks"])
    run.failures.extend(f"microbenchmark check: {b}" for b in res["bad_checks"])
    rates = res["rates"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    plain, traced = [], []
    started = time.perf_counter()
    while run.more(started, len(traced)):
        mode = "pass" if len(plain) <= len(traced) else "traced"
        spans = None
        if mode == "traced":
            spans = os.path.join(HERE, "out", f"spans-{run.args.workload}-"
                                 f"seed{run.args.seed}-pass{len(traced)}.json")
        _, res = run.one_pass(mode, spans)
        if res is None:
            break
        (plain if mode == "pass" else traced).append(res)
    if not plain or not traced:
        raise WorkerError("no traced pass finished within the run limit")

    n = f"median of {len(traced)} traced passes"

    def med(kind, name):
        return statistics.median(t["trace"][kind][name] for t in traced)

    metrics = []
    for name in tracing.SPAN_NAMES:
        metrics.append((f"{name}.calls", med("calls", name), "count", n))
        metrics.append((f"{name}.self_s", med("self_s", name), "s", n))
    results = med("counters", "quotient.invariant_subspaces.results")
    kept = med("counters", "weakeq.weak_classes.kept")
    distinct = med("counters", "primes.primes_above_in_max.distinct")
    calls = med("calls", "primes.primes_above_in_max")
    metrics += [
        ("quotient.dim.max", med("counters", "quotient.dim.max"), "count", n),
        ("quotient.invariant_subspaces.results", results, "count", n),
        ("weakeq.useful_ratio", kept / results if results else 0.0, "ratio",
         f"{kept} weak classes kept / {results} lattices enumerated"),
        ("primes.primes_above_in_max.distinct_ratio",
         distinct / calls if calls else 0.0, "ratio",
         f"{distinct} distinct (context, p) / {calls} calls"),
        ("trace.overhead", min(t["pass_s"] for t in traced)
         / min(p["pass_s"] for p in plain), "ratio",
         f"fastest traced / fastest untraced pass, {len(traced)} and "
         f"{len(plain)} passes"),
    ]
    for name in micro.METRICS:
        metrics.append((name, rates[name], "1/s",
                        f"median of {micro.REPEATS} slices of {micro.SLICE_S} s"))

    whole = med("incl_s", "cli.main")
    for kind, label in (("self_s", "self"), ("incl_s", "inclusive")):
        share = {s: med(kind, s) / whole for s in tracing.SPAN_NAMES}
        top = sorted(share, key=share.get, reverse=True)[:8]
        print(f"largest {label} time, share of cli.main: "
              + ", ".join(f"{s} {100 * share[s]:.0f}%" for s in top))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gekeler", "cli.py")):
        sys.exit(f"error: no program source at {os.path.join(ROOT, 'src')}")
    run = Run(args)
    try:
        # compiles the program's byte code, so that set-up is not timed cold
        run.worker("probe")
        metrics = per_layer(run) if args.trace else end_to_end(run)
    except WorkerError as exc:
        sys.exit(f"error: {exc}")

    for line in run.failures:
        print(line, file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} jobs, {run.failed} failed, {run.wrong} wrong")
    if not args.trace:
        print(f"  {'failed_frac':<45} {run.failed / run.attempted:<14.6g} "
              f"{'1':<6} {run.failed} of {run.attempted} jobs")
    for name, value, unit, note in metrics:
        print(f"  {name:<45} {value:<14.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in metrics},
    }))


if __name__ == "__main__":
    main()
