"""The argparse front end the command line had before its option table,
kept as an oracle for `cli._read_argv`: both must accept the same argvs
with the same values."""

import argparse

from gekeler import __version__
from gekeler.errors import DEFAULT_BUDGET


def build_parser():
    """The argument parser of the `gekeler` command, built with argparse."""
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
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
