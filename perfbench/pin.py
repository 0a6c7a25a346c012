"""Regenerate expected.json from the program in ../src.

Run from the repository root:  python3 perfbench/pin.py
It runs every job of icm_window and census and the intake pool of
PINNED_SEED once and stores the exit code and the pinned fields.  Two
census jobs are pinned to their brute-force L-polynomials instead and
marked ``known_failure``, because the program rejects them (see NOTES.md,
known defects); any other job that ends without an answer is wrong.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from gekeler.cli import main  # noqa: E402

# L-polynomials from direct point counts over F_q and F_{q^2}; both are
# (1 + c t^2)^2-type repeated-root Weil polynomials that the float Weil
# gate of the program rejects with exit 1.
BRUTE_FORCE = {
    ("zeta", "--q", "5", "--f", "x^2 - (T^5 + T + 1)"):
        {"m": 1, "g": 2, "L": [1, 0, 10, 0, 25]},
    ("zeta", "--q", "4", "--f", "x^2 + x + T^5 + a"):
        {"m": 1, "g": 2, "L": [1, 0, 8, 0, 16]},
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    fields = workloads.summarize(argv, json.loads(out.getvalue())) \
        if rc == 0 else None
    return {"rc": rc, "fields": fields}


def main_pin():
    jobs = {}
    for name in workloads.WORKLOADS:
        for job in workloads.jobs_for(name, workloads.PINNED_SEED):
            argv = job["argv"]
            pin = run(argv)
            if tuple(argv) in BRUTE_FORCE:
                pin = {"rc": 0, "fields": BRUTE_FORCE[tuple(argv)],
                       "known_failure": True}
            jobs[workloads.job_key(argv)] = pin
    data = {"pinned_seed": workloads.PINNED_SEED, "jobs": jobs}
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(jobs)} jobs")


if __name__ == "__main__":
    main_pin()
