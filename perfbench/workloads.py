"""Job lists of the benchmark workloads and the checks on their outputs.

A job is one argv for ``gekeler.cli.main``.  ``icm_window`` and ``census``
are fixed lists; the seed only fixes the order in which a pass runs them.
``intake`` is a pool drawn from the seed by a generator that builds
polynomial strings without calling the package.  Each job carries what is
known about its answer without running it (``kind``).  ``expected.json``
pins the fields that matter, taken from the program at the commit that
added the benchmark, for the fixed lists and for the intake pool of
``PINNED_SEED``; other intake pools are checked against ``kind`` alone.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("icm_window", "census", "intake")
PINNED_SEED = 0
INTAKE_JOBS = 250

ICM_WINDOW = [
    ["icm", "--q", "3", "--f", "x^2 - T^5", "--prime", "T"],
    ["icm", "--q", "3", "--f", "x^2 - T^7", "--prime", "T"],
    ["icm", "--q", "2", "--f", "x^3 - T^4", "--prime", "T"],
    ["icm", "--q", "2", "--f", "x^3 - T^5", "--prime", "T"],
    ["icm", "--q", "9", "--f", "x^2 - T^5", "--prime", "T"],
    ["overorders", "--q", "2", "--f", "x^3 - T^5", "--prime", "T"],
    ["ratio", "--q", "5", "--f", "x^2 - T^5", "--prime", "T"],
    ["product", "--q", "3", "--f", "x^2 - T^3*(T + 1)^3"],
    ["product", "--q", "2", "--f", "x^2 + T*x + T^3"],
]

CENSUS = [
    ["product", "--q", "3", "--f", "x^2 - T", "--check-depth", "5"],
    ["product", "--q", "5", "--f", "x^2 - (T^3 + T + 1)", "--check-depth", "3"],
    ["product", "--q", "2", "--f", "x^3 + T*x + T^4 + T + 1", "--check-depth", "6"],
    ["product", "--q", "3", "--f", "x^2 - (T^2 + 1)", "--check-depth", "4"],
    ["product", "--q", "3", "--f", "x^2 - 2", "--check-depth", "4"],
    ["zeta", "--q", "2", "--f", "x^2 + x + T^7"],
    ["zeta", "--q", "3", "--f", "x^2 - (T^5 + 2*T + 1)"],
    ["zeta", "--q", "3", "--f", "x^2 - (T^7 + T + 2)"],
    ["zeta", "--q", "4", "--f", "x^2 + x + T^5 + T^3 + a"],
    ["zeta", "--q", "4", "--f", "x^2 + x + T^5 + a"],
    ["zeta", "--q", "5", "--f", "x^2 - (T^5 + T + 1)"],
    ["zeta", "--q", "7", "--f", "x^2 - (T^5 + 3)"],
    ["zeta", "--q", "11", "--f", "x^2 - (T^5 + T + 1)"],
]

# q -> (characteristic, extension degree); 6, 10 and 12 are not prime powers.
_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
           8: (2, 3), 9: (3, 2)}
_QS = tuple(sorted(_FIELDS))
_COMPOSITE = (6, 10, 12)


def _elt(rng, p, e, nonzero=False):
    """A random element of F_{p^e} written in the CLI grammar."""
    while True:
        digits = [rng.randrange(p) for _ in range(e)]
        if any(digits) or not nonzero:
            break
    terms = []
    for i, c in enumerate(digits):
        if c == 0:
            continue
        mono = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
        if not mono:
            terms.append(str(c))
        else:
            terms.append(mono if c == 1 else f"{c}*{mono}")
    if not terms:
        return "0"
    return terms[0] if len(terms) == 1 else "(" + " + ".join(terms) + ")"


def _tpoly(rng, p, e, max_deg, nonzero=False, exact=False):
    """A random polynomial in T of degree <= max_deg (== if exact), as a string."""
    while True:
        terms = []
        for i in range(max_deg, -1, -1):
            c = _elt(rng, p, e, nonzero=exact and i == max_deg)
            if c == "0":
                continue
            mono = "" if i == 0 else ("T" if i == 1 else f"T^{i}")
            if not mono:
                terms.append(c)
            else:
                terms.append(mono if c == "1" else f"{c}*{mono}")
        if terms or not nonzero:
            break
    return " + ".join(terms) if terms else "0"


def _xpoly(r, coeffs):
    """x^r + sum coeffs[i] x^i, skipping zero coefficients."""
    terms = ["x" if r == 1 else f"x^{r}"]
    for i in range(r - 1, -1, -1):
        c = coeffs[i]
        if c == "0":
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        terms.append(f"({c})*{mono}" if mono else f"({c})")
    return " + ".join(terms)


def _linear_prime(rng, p, e):
    c = _elt(rng, p, e)
    return "T" if c == "0" else f"T + {c}"


def _intake_job(rng, i):
    """The i-th ``primes`` job of a pool and what its answer is known to be.

    The kind, q and rank follow a fixed schedule, so that every pool has the
    same mix and only the coefficients depend on the seed.
    """
    q = _QS[i % len(_QS)]
    p, e = _FIELDS[q]
    r = 2 + (i // len(_QS)) % 2
    slot = i % 20
    if slot == 0:
        f = _xpoly(r, [_tpoly(rng, 5, 1, 2) for _ in range(r)])
        argv = ["primes", "--q", str(_COMPOSITE[i % 3]), "--f", f]
        return {"argv": argv, "kind": "reject"}
    if slot == 1:
        # a product of two monic factors in x
        lin = f"(x + {_tpoly(rng, p, e, 2)})"
        rest = _xpoly(r - 1, [_tpoly(rng, p, e, 2) for _ in range(r - 1)])
        return {"argv": ["primes", "--q", str(q), "--f", f"{lin}*({rest})"],
                "kind": "reject"}
    if slot == 2:
        # x^r + c(T) in characteristic r: df/dx = 0
        q = (2, 4, 8)[i % 3] if r == 2 else (3, 9)[i % 2]
        p, e = _FIELDS[q]
        f = f"x^{r} + {_tpoly(rng, p, e, 3, nonzero=True)}"
        return {"argv": ["primes", "--q", str(q), "--f", f], "kind": "reject"}
    if slot <= 8:
        # Eisenstein at a degree-1 prime P: irreducible, P totally ramified
        prime = _linear_prime(rng, p, e)
        coeffs = [f"({prime})*({_tpoly(rng, p, e, 1)})" for _ in range(r)]
        coeffs[0] = f"{_elt(rng, p, e, nonzero=True)}*({prime})"
        if r % p == 0:
            # keep f separable in characteristic dividing r
            coeffs[1] = f"({prime})*({_elt(rng, p, e, nonzero=True)})"
        argv = ["primes", "--q", str(q), "--f", _xpoly(r, coeffs), "--prime"]
        if slot == 3:
            bad = (f"({prime})*({prime})", f"({prime})*(T)", "T^2")[i % 3]
            return {"argv": argv + [bad], "kind": "reject"}
        return {"argv": argv + [prime], "kind": "eisenstein", "rank": r}
    # exact degrees keep the cost of one job close to that of its neighbours
    f = _xpoly(r, [_tpoly(rng, p, e, 2, exact=True) for _ in range(r)])
    argv = ["primes", "--q", str(q), "--f", f]
    if slot % 2:
        argv += ["--prime", _linear_prime(rng, p, e)]
    return {"argv": argv, "kind": "random", "rank": r}


def jobs_for(workload, seed):
    """The job list of one pass, as dicts with ``argv`` and ``kind``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "intake":
        return [_intake_job(rng, i) for i in range(INTAKE_JOBS)]
    if workload == "icm_window":
        argvs = list(ICM_WINDOW)
    elif workload == "census":
        argvs = list(CENSUS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(argvs)
    return [{"argv": a, "kind": "pinned"} for a in argvs]


def job_key(argv):
    return " | ".join(argv)


def summarize(argv, report):
    """The fields of a report that are pinned; other fields are ignored."""
    cmd = argv[0]
    if cmd == "primes":
        if "--prime" in argv:
            return {"primes": sorted([q["e"], q["f"], q["regular"]]
                                     for q in report["primes"])}
        return {"singular_primes": list(report["singular_primes"])}
    if cmd == "overorders":
        return {"orders": len(report["orders"])}
    if cmd == "icm":
        return {"m_p": report["m_p"],
                "classes": sorted(len(g["classes"])
                                  for g in report["by_overorder"])}
    if cmd == "ratio":
        return {"m_p": report["m_p"], "value": report["value"],
                "residues": sorted([s["e"], s["f"], s["norm"]]
                                   for s in report["residues"])}
    if cmd == "product":
        out = {"value": report["value"],
               "singular": sorted([s["p"], s["m_p"]]
                                  for s in report["singular"]),
               "m": report["zeta"]["m"], "g": report["zeta"]["g"],
               "L": report["zeta"]["L"]}
        if "--check-depth" in argv:
            out["check"] = [[c["depth"], c["value"]] for c in report["check"]]
        return out
    if cmd == "zeta":
        return {"m": report["m"], "g": report["g"], "L": report["L"]}
    raise ValueError(f"no summary for {cmd!r}")


def load_pins():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["jobs"]


OK, WRONG, FAILED = "ok", "wrong", "failed"


def check(job, rc, stdout, pins):
    """Classify one job as ok, wrong (a wrong answer) or failed.

    ``rc`` is the exit code, or a string when the job raised or timed out.
    A job fails without being wrong only if its pin is marked
    ``known_failure`` (a known defect of the program) and it ends in an
    exit code other than 0 or 2, an exception or a timeout.  Every other
    outcome that differs from the expected one is wrong: an exit code,
    exception or timeout where an answer was due, or pinned fields or
    known properties of the answer that differ.
    """
    pin = pins.get(job_key(job["argv"]))
    if rc not in (0, 2):
        return FAILED if pin is not None and pin.get("known_failure") \
            else WRONG
    try:
        fields = summarize(job["argv"], json.loads(stdout)) if rc == 0 else None
    except (ValueError, KeyError, TypeError):
        return WRONG
    if pin is not None:
        return OK if [rc, fields] == [pin["rc"], pin.get("fields")] else WRONG
    kind = job["kind"]
    if kind == "reject":
        return OK if rc == 2 else WRONG
    if kind == "eisenstein":
        return OK if fields == {"primes": [[job["rank"], 1, True]]} else WRONG
    if kind == "random":
        if rc == 2:
            return OK
        if "primes" in fields:
            total = sum(e * f for e, f, _ in fields["primes"])
            return OK if total == job["rank"] else WRONG
        return OK if all(isinstance(s, str) for s in fields["singular_primes"]) \
            else WRONG
    return WRONG  # a pinned job whose pin is missing
