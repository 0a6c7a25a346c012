"""Command-line front end.

Subcommands: primes, overorders, icm, ratio, product, zeta, oracle.
Reports are JSON on stdout (or --out), byte-identical across runs for
identical invocations; timings go to stderr.  Exit codes: 0 success,
2 rejected input, 1 internal invariant failure.
"""

import argparse
import json
import math
import sys
import time

from . import __version__
from .errors import InputError, InternalCheckError
from .gf import gf_of_order
from .parse import parse_bipoly, parse_fqpoly
from .context import AlgebraContext
from .ideals import Order
from .primes import kummer_dedekind, singular_primes, discriminant_of_f, _require_prime
from .overorders import p_overorders
from .weakeq import local_icm
from .zeta import l_polynomial, constant_field_degree, genus
from .ratios import (gekeler_ratio, gekeler_product, finite_level_ratio,
                     partial_products, format_fraction)
from . import oracle as oracle_mod


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="gekeler",
        description="exact local ideal class monoids and Gekeler ratios "
                    "for F_q[T][x]/f")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, prime=False, need_f=True):
        sp.add_argument("--q", type=int, required=True,
                        help="field size, a prime power")
        if need_f:
            sp.add_argument("--f", type=str, required=True,
                            help="defining polynomial, monic in x")
        sp.add_argument("--prime", type=str, required=prime,
                        help="monic irreducible of F_q[T]")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", type=int, default=oracle_mod.DEFAULT_BUDGET)
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("primes", help="splitting / singular primes of R")
    common(sp)
    sp = sub.add_parser("overorders", help="p-overorders of R")
    common(sp, prime=True)
    sp = sub.add_parser("icm", help="local ideal class monoid at p")
    common(sp, prime=True)
    sp = sub.add_parser("ratio", help="exact local ratio at p")
    common(sp, prime=True)
    sp.add_argument("--level", type=int, default=None,
                    help="also report the truncated ratio at this level")
    sp = sub.add_parser("product", help="exact product of local ratios")
    common(sp)
    sp.add_argument("--check-depth", type=int, default=None,
                    help="also report partial products over deg p <= D")
    sp = sub.add_parser("zeta", help="constant field degree, genus, L-polynomial")
    common(sp)
    sp = sub.add_parser("oracle", help="brute-force validators")
    sp.add_argument("what", choices=["count", "orbits", "commutant", "slcount"])
    common(sp)
    sp.add_argument("--level", type=int, default=1)
    return ap


def _parse_job(args, need_prime=False):
    field = gf_of_order(args.q)
    ctx = AlgebraContext(field, parse_bipoly(field, args.f), seed=args.seed)
    ctx.require_separable()
    p = None
    if args.prime is not None:
        p = parse_fqpoly(field, args.prime)
        try:
            _require_prime(ctx, p)
        except InputError:
            raise InputError(f"--prime {args.prime!r} is not a monic irreducible") from None
    elif need_prime:
        raise InputError("--prime is required")
    return ctx, p


def _echo(args, ctx, p):
    out = {
        "command": args.command,
        "version": __version__,
        "q": args.q,
        "f": ctx.f.to_str(),
        "seed": args.seed,
    }
    if p is not None:
        out["prime"] = p.to_str()
    return out


def _run_primes(args):
    ctx, p = _parse_job(args)
    report = _echo(args, ctx, p)
    if p is not None:
        split = kummer_dedekind(Order.monogenic(ctx), p)
        report.update(split.to_json_dict())
    else:
        report["discriminant"] = discriminant_of_f(ctx).to_str()
        report["singular_primes"] = [s.to_str() for s in singular_primes(ctx)]
    return report


def _run_overorders(args):
    ctx, p = _parse_job(args, need_prime=True)
    report = _echo(args, ctx, p)
    report["orders"] = p_overorders(ctx, p).to_json_list()
    return report


def _run_icm(args):
    ctx, p = _parse_job(args, need_prime=True)
    report = _echo(args, ctx, p)
    report.update(local_icm(ctx, p).to_json_dict())
    return report


def _run_ratio(args):
    ctx, p = _parse_job(args, need_prime=True)
    report = _echo(args, ctx, p)
    report.update(gekeler_ratio(ctx, p).to_json_dict())
    if args.level is not None:
        report["level"] = args.level
        report["level_value"] = format_fraction(
            finite_level_ratio(ctx, p, args.level, budget=args.budget))
    return report


def _run_product(args):
    ctx, p = _parse_job(args)
    report = _echo(args, ctx, p)
    pr = gekeler_product(ctx)
    report.update(pr.to_json_dict())
    if args.check_depth is not None:
        partials = []
        for d, val in partial_products(ctx, args.check_depth):
            gap = abs(math.log(float(val / pr.value)))
            partials.append({"depth": d,
                             "value": format_fraction(val),
                             "log_gap": f"{gap:.6f}"})
        report["check"] = partials
    return report


def _run_zeta(args):
    ctx, p = _parse_job(args)
    report = _echo(args, ctx, p)
    lp = l_polynomial(ctx)
    report["m"] = constant_field_degree(ctx)
    report["g"] = genus(ctx)
    report["L"] = list(lp.coeffs)
    return report


def _run_oracle(args):
    ctx, p = _parse_job(args)
    report = _echo(args, ctx, p)
    report["what"] = args.what
    if args.what == "commutant":
        report["dimension"] = oracle_mod.commutant_dimension(ctx)
        return report
    if p is None:
        raise InputError("--prime is required for this oracle")
    report["level"] = args.level
    if args.what == "count":
        report["count"] = oracle_mod.count_matrices_with_charpoly(
            ctx, p, args.level, budget=args.budget)
    elif args.what == "orbits":
        report["orbits"] = oracle_mod.brute_orbit_count(
            ctx, p, args.level, budget=args.budget)
    else:
        sl, gl, units = oracle_mod.brute_sl_count(
            ctx.r, p, args.level, budget=args.budget)
        report["sl"] = sl
        report["gl"] = gl
        report["units"] = units
        report["sl_closed_form"] = oracle_mod.sl_order_closed_form(
            ctx.r, ctx.field.q ** int(p.degree), args.level)
    return report


_RUNNERS = {
    "primes": _run_primes,
    "overorders": _run_overorders,
    "icm": _run_icm,
    "ratio": _run_ratio,
    "product": _run_product,
    "zeta": _run_zeta,
    "oracle": _run_oracle,
}


def main(argv=None):
    # values are exact, so integers of any length must print
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    ap = _build_parser()
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    try:
        report = _RUNNERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"elapsed: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
