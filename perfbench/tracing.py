"""Spans and counters around the public functions of each gekeler module.

The wrappers live here, not in the program: ``install`` replaces each
traced function at every module binding that refers to it (a function
imported by name into another module is a second binding), each traced
method on its class, and each traced class's ``__init__``.  A span is
(name, job, parent span, start, end); spans stay in memory until
``write_spans`` at the end of the pass.  Self time is a span's duration
minus the time covered by its traced child spans.
"""

import json
import sys
import time

# (module, attribute path); the span name is "<module>.<path>".
TARGETS = [
    ("cli", "main"),
    ("parse", "parse_bipoly"),
    ("bifactor", "is_irreducible_bivariate"),
    ("bipoly", "discriminant"),
    ("context", "AlgebraContext"),
    ("primes", "kummer_dedekind"),
    ("primes", "singular_primes"),
    ("primes", "maximal_order"),
    ("primes", "primes_above_in_max"),
    ("primes", "infinite_places"),
    ("kalgebra", "split_local_components"),
    ("overorders", "p_overorders"),
    ("quotient", "LatticeQuotient"),
    ("quotient", "invariant_subspaces"),
    ("weakeq", "local_icm"),
    ("weakeq", "weak_classes"),
    ("weakeq", "globally_weakly_equivalent"),
    ("weakeq", "locally_weakly_equivalent"),
    ("ideals", "FracIdeal.colon"),
    ("ideals", "FracIdeal.__mul__"),
    ("ideals", "FracIdeal.intersect"),
    ("amatrix", "hnf"),
    ("amatrix", "det"),
    ("amatrix", "kernel_basis"),
    ("klinalg", "rref"),
    ("gpoly", "factor"),
    ("residue", "ResidueField.inv"),
    ("zeta", "l_polynomial"),
    ("zeta", "count_places"),
    ("ratios", "gekeler_ratio"),
    ("ratios", "gekeler_product"),
    ("ratios", "partial_products"),
]

SPAN_NAMES = [f"{mod}.{path}" for mod, path in TARGETS]

COUNTERS = ("quotient.dim.max", "quotient.invariant_subspaces.results",
            "weakeq.weak_classes.kept",
            "primes.primes_above_in_max.distinct")


class Recorder:
    """Spans, per-name calls and self time, and counters of one pass."""

    def __init__(self):
        self.spans = []            # (name index, job, parent, start, end)
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.incl_s = [0.0] * len(SPAN_NAMES)   # outermost spans only
        self._active = [0] * len(SPAN_NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.job = -1
        self._stack = []           # [span index, child time]
        self._seen = set()         # per-job keys for the distinct counters

    def start_job(self, job):
        self.job = job
        self._seen.clear()

    def wrap(self, name_idx, fn, after=None):
        rec = self

        def traced(*args, **kwargs):
            stack = rec._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(rec.spans), 0.0]
            rec.spans.append(None)
            stack.append(frame)
            rec._active[name_idx] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                rec.calls[name_idx] += 1
                rec.self_s[name_idx] += dur - frame[1]
                rec._active[name_idx] -= 1
                if not rec._active[name_idx]:
                    rec.incl_s[name_idx] += dur
                if stack:
                    stack[-1][1] += dur
                rec.spans[frame[0]] = (name_idx, rec.job, parent, t0, t1)
            if after is not None:
                after(rec, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def summary(self):
        return {"calls": dict(zip(SPAN_NAMES, self.calls)),
                "self_s": dict(zip(SPAN_NAMES, self.self_s)),
                "incl_s": dict(zip(SPAN_NAMES, self.incl_s)),
                "counters": dict(self.counters)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"names": SPAN_NAMES,
                       "fields": ["name", "job", "parent", "start", "end"],
                       "spans": self.spans}, fh)


def _after_quotient(rec, args, _result):
    quo = args[0]
    c = rec.counters
    c["quotient.dim.max"] = max(c["quotient.dim.max"], quo.dim)


def _after_invariant_subspaces(rec, _args, result):
    rec.counters["quotient.invariant_subspaces.results"] += len(result)


def _after_weak_classes(rec, args, result):
    # weak_classes memoizes per context; count each (context, S) once
    key = ("weak", id(args[0].ctx), args[1].canonical_key())
    if key not in rec._seen:
        rec._seen.add(key)
        rec.counters["weakeq.weak_classes.kept"] += len(result)


def _after_primes_above(rec, args, _result):
    key = ("pam", id(args[0]), args[1])
    if key not in rec._seen:
        rec._seen.add(key)
        rec.counters["primes.primes_above_in_max.distinct"] += 1


_AFTER = {
    "quotient.LatticeQuotient": _after_quotient,
    "quotient.invariant_subspaces": _after_invariant_subspaces,
    "weakeq.weak_classes": _after_weak_classes,
    "primes.primes_above_in_max": _after_primes_above,
}


def install(rec):
    """Wrap every target at every binding of it."""
    package = sys.modules["gekeler"]
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "gekeler" or n.startswith("gekeler."))]
    for idx, (mod_name, path) in enumerate(TARGETS):
        after = _AFTER.get(SPAN_NAMES[idx])
        module = getattr(package, mod_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, rec.wrap(idx, owner.__dict__[attr], after))
            continue
        original = getattr(module, attr)
        if isinstance(original, type):
            original.__init__ = rec.wrap(idx, original.__dict__["__init__"], after)
            continue
        wrapper = rec.wrap(idx, original, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
