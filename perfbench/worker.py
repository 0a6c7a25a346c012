"""One pass of a workload in a fresh interpreter; started by run.py.

  python3 perfbench/worker.py --workload NAME --seed N --mode MODE

MODE is ``probe`` (set up, time one calibration slice and exit),
``pass`` (run every job once), ``traced`` (the same with tracing.py's
wrappers installed) or ``micro`` (the arithmetic microbenchmarks).  The
worker prints ``ready`` once ``gekeler.cli`` is imported and the job list
is built, then one JSON line with its results.  Each job calls
``gekeler.cli.main(argv)``, the entry point of the console script, with
stdout and stderr captured.  A pass times a calibration slice (calib.py)
before each job and after the last, untimed as job time.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
JOB_TIMEOUT_S = 30


class JobTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot catch it."""


def _on_alarm(_signum, _frame):
    raise JobTimeout()


def run_job(cli, argv):
    """(exit code or failure text, captured stdout) of one CLI call."""
    out = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except JobTimeout:
        rc = "timeout"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed run
        rc = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, out.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("probe", "pass", "traced", "micro"))
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import gekeler.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"gekeler imported from {cli.__file__}, not from {SRC}")
    import calib
    import workloads
    jobs = workloads.jobs_for(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "probe":
        print(json.dumps({"calib": [calib.slice_s()]}))
        return

    if args.mode == "micro":
        import micro
        rates, bad = micro.run(args.seed)
        print(json.dumps({"rates": rates, "bad_checks": bad}))
        return

    pins = workloads.load_pins()
    rec = None
    if args.mode == "traced":
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)
    signal.signal(signal.SIGALRM, _on_alarm)

    results, slices = [], []
    clock = time.perf_counter
    for i, job in enumerate(jobs):
        slices.append(calib.slice_s())
        if rec is not None:
            rec.start_job(i)
        t0 = clock()
        rc, stdout = run_job(cli, job["argv"])
        results.append((clock() - t0, rc, stdout))
    slices.append(calib.slice_s())

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"pass_s": sum(r[0] for r in results), "rss_mb": rss_mb,
           "calib": slices, "jobs": []}
    for job, (dt, rc, stdout) in zip(jobs, results):
        status = workloads.check(job, rc, stdout, pins)
        out["jobs"].append([dt, status, rc if isinstance(rc, int) else str(rc)])
    if rec is not None:
        out["trace"] = rec.summary()
        if args.spans:
            rec.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
