"""Command-line front end.

Subcommands: primes, overorders, icm, ratio, product, zeta, oracle.
argv is read through one option table (_COMMON and _COMMANDS) by the
rules argparse follows: --name value or --name=value, a unique prefix of
a name, options in any order, the last of a repeated option, negative
numbers as values.  argparse itself is not imported: building its
parsers took about as long as a typical job.  A malformed argv, like
every other rejected input, prints "error: ..." and exits 2; --help and
--version print to stdout and exit 0.  Reports are JSON on stdout (or
--out), byte-identical across runs for identical invocations; timings go
to stderr.  Exit codes: 0 success, 2 rejected input, 1 internal
invariant failure.
"""

import gc
import json
import math
import os
import re
import sys
import time
import types
from json.encoder import encode_basestring_ascii as _str_text

from . import __version__
from .errors import DEFAULT_BUDGET, InputError, InternalCheckError
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


# option -> (type, default, help text); every subcommand takes these
_COMMON = {
    "--q": (int, None, "field size, a prime power"),
    "--f": (str, None, "defining polynomial, monic in x"),
    "--prime": (str, None, "monic irreducible of F_q[T]"),
    "--seed": (int, 0, ""),
    "--budget": (int, DEFAULT_BUDGET, ""),
    "--out": (str, None, ""),
}
_QF, _QFP = ("--q", "--f"), ("--q", "--f", "--prime")
# subcommand -> (help text, required options, its other options)
_COMMANDS = {
    "primes": ("splitting / singular primes of R", _QF, {}),
    "overorders": ("p-overorders of R", _QFP, {}),
    "icm": ("local ideal class monoid at p", _QFP, {}),
    "ratio": ("exact local ratio at p", _QFP, {"--level": (
        int, None, "also report the truncated ratio at this level")}),
    "product": ("exact product of local ratios", _QF, {"--check-depth": (
        int, None, "also report partial products over deg p <= D")}),
    "zeta": ("constant field degree, genus, L-polynomial", _QF, {}),
    "oracle": ("brute-force validators", _QF, {"--level": (int, 1, "")}),
}
# the choices of the oracle's positional argument `what`
_WHAT = ("count", "orbits", "commutant", "slcount")
_HELP = ("-h", "--help")
_ROOT = (*_HELP, "--version")


def _option(tok, names):
    """(name, explicit value or None) of an option token, by argparse's
    rules: a name, NAME=VALUE, a unique prefix of a long name with or
    without =VALUE, or -h glued to a value; an unknown option keeps the
    whole token as its name.  None for a value: a token not starting with
    '-', '-' alone, a negative number, or one holding a space."""
    if tok[:1] != "-" or tok == "-":
        return None
    if tok in names:
        return tok, None
    name, eq, value = tok.partition("=")
    if eq and name in names:
        return name, value
    if tok[1] == "-":
        hits = [(n, value if eq else None) for n in names if n.startswith(name)]
    else:
        hits = [(n, tok[2:]) for n in names if n == tok[:2]]
    if len(hits) > 1:
        raise InputError(f"ambiguous option: {tok} could match "
                         + ", ".join(n for n, _ in hits))
    if hits:
        return hits[0]
    if re.match(r"^-\d+$|^-\d*\.\d+$", tok) or " " in tok:   # argparse's test
        return None
    return tok, None


def _usage(command=None):
    """The --help text of the program or of one subcommand."""
    if command is None:
        head = ("gekeler [-h] [--version] {" + ",".join(_COMMANDS) + "} ...\n\n"
                "exact local ideal class monoids and Gekeler ratios "
                "for F_q[T][x]/f")
        rows = [(c, spec[0]) for c, spec in _COMMANDS.items()]
        rows += [("-h, --help", "show this help message and exit"),
                 ("--version", "show program's version number and exit")]
    else:
        text, required, extra = _COMMANDS[command]
        words = [command] + (["{" + ",".join(_WHAT) + "}"]
                             if command == "oracle" else [])
        rows = [("-h, --help", "show this help message and exit")]
        for name, (_, _, hint) in {**_COMMON, **extra}.items():
            spec = f"{name} {name[2:].upper().replace('-', '_')}"
            words.append(spec if name in required else f"[{spec}]")
            rows.append((spec, hint))
        head = "gekeler " + " ".join(words) + "\n\n" + text
    width = max(len(a) for a, _ in rows) + 2
    return ("usage: " + head + "\n\n"
            + "\n".join(f"  {a:<{width}}{b}".rstrip() for a, b in rows))


def _read_argv(argv):
    """The subcommand and option values of argv, read through _COMMANDS and
    _COMMON as argparse would read them, or the text that --help or
    --version prints.  Raises InputError for an argv argparse refuses and
    for a --budget, --level or --check-depth below 1."""
    cut = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(tok, _ROOT) for tok in argv[:cut]]
    unknown = []
    for i, tok in enumerate(argv):
        kind = kinds[i] if i < cut else None
        if kind is None:
            break
        if kind[0] in _ROOT:
            if kind[1] is not None:
                raise InputError(f"argument {kind[0]}: ignored explicit "
                                 f"argument {kind[1]!r}")
            return __version__ if kind[0] == "--version" else _usage()
        unknown.append(tok)
    else:
        raise InputError("the following arguments are required: command")
    command, rest = tok, argv[i + 1:]
    if command not in _COMMANDS:
        raise InputError(f"argument command: invalid choice: {command!r}")
    _, required, extra = _COMMANDS[command]
    options = {**_COMMON, **extra}
    values = {name: spec[1] for name, spec in options.items()}
    cut = rest.index("--") if "--" in rest else len(rest)
    kinds = [_option(tok, (*_HELP, *options)) for tok in rest[:cut]]
    j, what_open, what_at = 0, command == "oracle", None
    while j < len(rest):
        tok, kind = rest[j], (kinds[j] if j < cut else None)
        j += 1
        if kind is not None:
            name, value = kind
            if name in _HELP:
                if value is not None:
                    raise InputError(f"argument -h/--help: ignored explicit "
                                     f"argument {value!r}")
                return _usage(command)
            if name not in options:
                unknown.append(tok)
                continue
            if value is None:
                if j >= cut or kinds[j] is not None:
                    raise InputError(f"argument {name}: expected one argument")
                value, j = rest[j], j + 1
            try:
                values[name] = options[name][0](value)
            except ValueError:
                raise InputError(f"argument {name}: invalid int value: "
                                 f"{value!r}") from None
        elif j - 1 == cut:
            # every token after "--" is a value; the "--" itself is taken
            # by the oracle's `what` when it stands next to it
            if not (what_open or what_at == j - 2):
                unknown.append(tok)
        elif what_open:
            if tok not in _WHAT:
                raise InputError(f"argument what: invalid choice: {tok!r}")
            values["what"], what_open, what_at = tok, False, j - 1
        else:
            unknown.append(tok)
    missing = [n for n in required if values[n] is None] + ["what"] * what_open
    if missing:
        raise InputError("the following arguments are required: "
                         + ", ".join(missing))
    if unknown:
        raise InputError("unrecognized arguments: " + " ".join(unknown))
    for name, text in (("--budget", "--budget"), ("--level", "truncation level"),
                       ("--check-depth", "--check-depth")):
        if values.get(name) is not None and values[name] < 1:
            raise InputError(f"{text} must be >= 1")
    return types.SimpleNamespace(command=command, **{
        name.lstrip("-").replace("-", "_"): v for name, v in values.items()})


def _parse_job(args):
    field = gf_of_order(args.q)
    ctx = AlgebraContext(field, parse_bipoly(field, args.f), seed=args.seed)
    p = None
    if args.prime is not None:
        p = parse_fqpoly(field, args.prime)
        try:
            _require_prime(ctx, p)
        except InputError:
            raise InputError(f"--prime {args.prime!r} is not a monic irreducible") from None
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
    ctx, p = _parse_job(args)
    report = _echo(args, ctx, p)
    report["orders"] = p_overorders(ctx, p).to_json_list()
    return report


def _run_icm(args):
    ctx, p = _parse_job(args)
    report = _echo(args, ctx, p)
    report.update(local_icm(ctx, p).to_json_dict())
    return report


def _run_ratio(args):
    ctx, p = _parse_job(args)
    if args.level is not None:   # a level over budget is refused first
        from .oracle import check_matrix_budget
        check_matrix_budget(p, args.level, ctx.r, args.budget)
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
    from . import oracle as oracle_mod
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


def _check_out(path):
    """Refuse an --out path that cannot be written before any work is done:
    a directory, a missing parent directory, or no write permission."""
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if (os.path.isdir(path) or not os.path.isdir(parent)
            or not os.access(target, os.W_OK)):
        raise InputError(f"cannot write --out {path}")


_RUNNERS = {
    "primes": _run_primes,
    "overorders": _run_overorders,
    "icm": _run_icm,
    "ratio": _run_ratio,
    "product": _run_product,
    "zeta": _run_zeta,
    "oracle": _run_oracle,
}


def _json_text(value, indent="\n"):
    """The text of json.dumps(value, indent=2), built without its pure-Python
    encoder: each str and int is written by the encoder's own routine, any
    other scalar by json.dumps, and lists, tuples and dicts (of str keys)
    are laid out here."""
    kind = type(value)
    if kind is str:
        return _str_text(value)
    if kind is int:
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        return ("{" + inner + ("," + inner).join(
            [_str_text(k) + ": " + _json_text(v, inner)
             for k, v in value.items()]) + indent + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return ("[" + inner + ("," + inner).join(
            [_json_text(v, inner) for v in value]) + indent + "]")
    return json.dumps(value)


def main(argv=None):
    # values are exact, so integers of any length must print
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    t0 = time.monotonic()
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):   # the text of --help or --version
            print(args)
            return 0
        if args.out:
            _check_out(args.out)
        report = _RUNNERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1
    text = _json_text(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        print(text)
    print(f"elapsed: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return 0


# the first collection of generation 1 traverses every object start-up made
# (about 0.4 ms); take it here, not in whichever job first triggers it
gc.collect(1)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
