import json
import io
import contextlib
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gekeler
from conftest import make_ctx
from gekeler.cli import main
from gekeler.gf import gf
from gekeler.parse import MAX_EXPONENT, parse_fqpoly
from gekeler import ratios as G


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_product_cusp():
    code, out, _ = run_cli(["product", "--q", "3", "--f", "x^2 - T^3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == "2/1"
    assert rep["singular"] == [{"p": "T", "m_p": 2}]
    assert rep["zeta"] == {"m": 1, "g": 0, "L": [1]}
    assert rep["version"]
    assert rep["seed"] == 0


def test_icm_cusp():
    code, out, _ = run_cli(["icm", "--q", "3", "--f", "x^2 - T^3", "--prime", "T"])
    assert code == 0
    rep = json.loads(out)
    assert rep["m_p"] == 2
    assert len(rep["by_overorder"]) == 2
    for grp in rep["by_overorder"]:
        assert "den" in grp["order"] and "num" in grp["order"]
        assert len(grp["classes"]) == 1


def test_reducible_rejected_with_exit_2():
    code, out, err = run_cli(["product", "--q", "3", "--f", "x^2 - T^2"])
    assert code == 2
    assert out == ""
    assert "reducible" in err


def test_inseparable_rejected_with_exit_2():
    code, _, err = run_cli(["zeta", "--q", "3", "--f", "x^3 - T"])
    assert code == 2
    assert "inseparable" in err.lower()


def test_a_reducible_inseparable_f_is_reported_as_inseparable():
    code, out, err = run_cli(["zeta", "--q", "2", "--f", "x^2 - T^2"])
    assert code == 2
    assert out == ""
    assert "inseparable" in err.lower()


def test_parse_error_has_column():
    code, _, err = run_cli(["zeta", "--q", "3", "--f", "x^2 - $"])
    assert code == 2
    assert "column" in err


def test_huge_exponent_rejected_at_its_column():
    t0 = time.monotonic()
    code, _, err = run_cli(["primes", "--q", "3", "--f", "x^2 - T^99999999"])
    assert code == 2
    assert "column 9" in err
    assert time.monotonic() - t0 < 1
    # the cap itself still parses
    assert parse_fqpoly(gf(3), f"T^{MAX_EXPONENT}").degree == MAX_EXPONENT


def test_bad_q_rejected():
    code, _, err = run_cli(["zeta", "--q", "6", "--f", "x^2 - T"])
    assert code == 2
    assert "prime power" in err


def test_bad_prime_rejected():
    code, _, err = run_cli(["icm", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T^2 - 1"])
    assert code == 2
    assert err == "error: --prime 'T^2 - 1' is not a monic irreducible\n"


def test_prime_is_tested_once(monkeypatch):
    from gekeler import gpoly
    real = gpoly.is_irreducible
    tested = []

    def is_irreducible(F, f):
        tested.append(tuple(f))
        return real(F, f)

    monkeypatch.setattr(gpoly, "is_irreducible", is_irreducible)
    code, _, _ = run_cli(["ratio", "--q", "3", "--f", "x^2 - T^3",
                          "--prime", "T^2 + 1"])
    assert code == 0
    assert tested.count((1, 0, 1)) == 1


def test_huge_extension_field_refused_early():
    # infinity is ramified, so m = 1 needs no GF(q^2); the census of the
    # places of degree 1 would walk all q elements, and is refused first
    t0 = time.perf_counter()
    code, out, err = run_cli(["zeta", "--q", "1000000007",
                              "--f", "x^2 - (T^3 + T + 1)"])
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert "census of degree 1 over F_1000000007 " in err


def test_budget_exceeded_exit_2():
    code, _, err = run_cli(["oracle", "count", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T", "--level", "3", "--budget", "100"])
    assert code == 2
    assert "budget" in err


_CUSP = ["--q", "3", "--f", "x^2 - T^3", "--prime", "T", "--level", "7"]


@pytest.mark.parametrize("argv, size", [
    (["oracle", "count"] + _CUSP, 3 ** 7),
    (["oracle", "count"] + _CUSP[:-1] + ["6"], 3 ** 6),
    (["oracle", "count", "--q", "2", "--f", "x^2 + x + T^3", "--prime", "T",
      "--level", "10"], 2 ** 10),
    (["oracle", "orbits"] + _CUSP, 3 ** 7),
    (["oracle", "slcount"] + _CUSP, 3 ** 7),
    (["ratio"] + _CUSP, 3 ** 7)])
def test_oracle_budget_is_checked_before_the_tables(argv, size):
    # |A/p^n| = q^(n deg p) fixes the number of 2 x 2 matrices, so each
    # oracle refuses before it fills its |A/p^n|^2 sum and product tables,
    # which took half a minute for A/T^7 over F_3
    t0 = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: enumerating {size ** 4} matrices exceeds the "
                   "budget 10000000\n")


def test_ratio_level_over_budget_is_refused_before_the_local_ratio(monkeypatch):
    # q^(n deg p) fixes the number of matrices, so the refusal needs no ratio
    from gekeler import cli

    def refuse(*args):
        raise AssertionError("the local ratio was computed")

    monkeypatch.setattr(cli, "gekeler_ratio", refuse)
    code, out, err = run_cli(["ratio", "--q", "2", "--f", "x^3 - T^8",
                              "--prime", "T", "--level", "9"])
    assert (code, out) == (2, "")
    assert err == (f"error: enumerating {2 ** 81} matrices exceeds the "
                   "budget 10000000\n")


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_check_depth_below_one_is_rejected(depth):
    code, out, err = run_cli(["product", "--q", "3", "--f", "x^2 - T",
                              "--check-depth", depth])
    assert (code, out) == (2, "")
    assert err == "error: --check-depth must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["ratio", "--q", "3", "--f", "x^2 - T^3", "--prime", "T", "--level", "1",
     "--budget", "-5"],
    ["icm", "--q", "3", "--f", "x^2 - T^3", "--prime", "T", "--budget", "-1"],
    ["oracle", "count", "--q", "3", "--f", "x^2 - T^3", "--prime", "T",
     "--budget", "0"],
    ["product", "--q", "3", "--f", "x^2 - T", "--budget", "0"]])
def test_budget_below_one_is_rejected(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "error: --budget must be >= 1\n"


def test_zeta_elliptic():
    code, out, _ = run_cli(["zeta", "--q", "5", "--f", "x^2 - (T^3 + T + 1)"])
    assert code == 0
    rep = json.loads(out)
    assert (rep["m"], rep["g"], rep["L"]) == (1, 1, [1, 3, 5])


def test_primes_subcommand():
    code, out, _ = run_cli(["primes", "--q", "3", "--f", "x^2 - T^3"])
    rep = json.loads(out)
    assert rep["singular_primes"] == ["T"]
    assert rep["discriminant"] == "T^3"
    code, out, _ = run_cli(["primes", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T"])
    rep = json.loads(out)
    assert rep["p"] == "T"
    assert [(q["e"], q["f"], q["regular"]) for q in rep["primes"]] \
        == [(2, 1, False)]
    assert "ideal" in rep["primes"][0]


def test_overorders_subcommand():
    code, out, _ = run_cli(["overorders", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T"])
    rep = json.loads(out)
    assert len(rep["orders"]) == 2


def test_ratio_with_level():
    code, out, _ = run_cli(["ratio", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T - 1", "--level", "2"])
    rep = json.loads(out)
    assert rep["value"] == "3/2"
    assert rep["m_p"] == 1
    assert rep["level_value"] == "3/2"


def test_product_check_depth():
    code, out, _ = run_cli(["product", "--q", "3", "--f", "x^2 - T",
                            "--check-depth", "2"])
    rep = json.loads(out)
    assert rep["value"] == "1/1"
    assert [c["depth"] for c in rep["check"]] == [1, 2]
    assert rep["check"][0]["value"] == "9/8"


def test_deep_check_depth_prints_exact_values():
    # the depth-8 partial product has numerator and denominator of more
    # than 4300 digits, Python's default cap on int-to-str conversion
    t0 = time.monotonic()
    code, out, _ = run_cli(["product", "--q", "3", "--f", "x^2 - T",
                            "--check-depth", "8"])
    assert code == 0
    assert time.monotonic() - t0 < 2
    last = json.loads(out)["check"][-1]
    assert last["depth"] == 8
    expected = G.partial_products(make_ctx(3, "x^2 - T"), 8)[-1][1]
    assert len(str(expected.denominator)) > 4300
    assert Fraction(last["value"]) == expected


def test_oracle_subcommands():
    code, out, _ = run_cli(["oracle", "commutant", "--q", "3", "--f", "1 - x + x^3"])
    assert json.loads(out)["dimension"] == 3
    code, out, _ = run_cli(["oracle", "count", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T", "--level", "1"])
    assert json.loads(out)["count"] == 9
    code, out, _ = run_cli(["oracle", "orbits", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T", "--level", "1"])
    assert json.loads(out)["orbits"] == 2
    code, out, _ = run_cli(["oracle", "slcount", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T", "--level", "1"])
    rep = json.loads(out)
    assert (rep["sl"], rep["gl"], rep["units"]) == (24, 48, 2)
    assert rep["sl_closed_form"] == 24


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(["zeta", "--q", "3", "--f", "x^2 - T^3",
                            "--out", str(path)])
    assert code == 0
    assert out == ""
    rep = json.loads(path.read_text())
    assert rep["g"] == 0


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_out_path_that_cannot_be_written_is_refused_first(tmp_path, monkeypatch,
                                                          where):
    # the path is checked before any work: the job never runs
    from gekeler import cli
    path = tmp_path / "nonexistent" / "x.json" if where == "missing" else tmp_path

    def refuse(args):
        raise AssertionError("ran the job")

    monkeypatch.setitem(cli._RUNNERS, "icm", refuse)
    code, out, err = run_cli(["icm", "--q", "3", "--f", "x^2 - T^3",
                              "--prime", "T", "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write --out {path}\n"


def test_product_builds_no_kummer_dedekind_ideal(monkeypatch):
    # the singular primes and the splitting types read the Dedekind record
    from gekeler.ideals import FracIdeal

    def refuse(*args):
        raise AssertionError("built a Kummer-Dedekind ideal")

    monkeypatch.setattr(FracIdeal, "from_elements", staticmethod(refuse))
    for q, f in [(3, "x^2 - T^3*(T + 1)^3"), (2, "x^2 + T*x + T^3"),
                 (2, "x^3 - T^5"), (3, "x^4 + T^3")]:
        code, out, _ = run_cli(["product", "--q", str(q), "--f", f])
        assert code == 0 and json.loads(out)["singular"]


def test_lost_endpoint_order_is_an_internal_failure(monkeypatch):
    # a walk that drops O is a fault of the program, not of the input
    from gekeler import overorders
    real = overorders.invariant_subspaces

    def drop_top(field, mats, nil):
        return [w for w in real(field, mats, nil) if len(w) != len(nil)]

    monkeypatch.setattr(overorders, "invariant_subspaces", drop_top)
    code, out, err = run_cli(["overorders", "--q", "2", "--f", "x^3 - T^5",
                              "--prime", "T"])
    assert code == 1
    assert out == ""
    assert err == ("internal invariant failure: p_overorders: enumeration "
                   "lost an endpoint order for q = 2, f = x^3 + T^5, p = T\n")


def test_unstable_top_lattice_is_an_internal_failure(monkeypatch):
    # a ring that does not map the top of a quotient into itself is a
    # fault of the program: here pi acting on L/TL, L = A + A*T*pi + A*pi^2
    from gekeler import overorders
    from gekeler.context import KElement
    from gekeler.fqpoly import FqPoly
    from gekeler.ideals import FracIdeal
    real = overorders.LatticeQuotient

    def skewed(top, bottom):
        ctx = bottom.ctx
        t = FqPoly.gen(ctx.field)
        cols = bottom.basis_columns()
        cols[1] = tuple(e * t for e in cols[1])
        lattice = FracIdeal.from_columns(ctx, cols, bottom.den)
        return real(lattice, lattice.scale(KElement.from_fqpoly(ctx, t)))

    monkeypatch.setattr(overorders, "LatticeQuotient", skewed)
    code, _, err = run_cli(["overorders", "--q", "2", "--f", "x^3 - T^5",
                            "--prime", "T"])
    assert code == 1
    assert err == ("internal invariant failure: p_overorders: element does "
                   "not stabilize the top lattice for q = 2, f = x^3 + T^5, "
                   "p = T\n")


def test_oversized_unit_transversal_is_refused_before_it_is_listed():
    # at T the rank-6 window has |U| = 3^12 units of 22x22 matrices, over
    # 10^8 entries: refused with exit 2 before U is listed, here under an
    # 800 MB address space set only in the child
    env = dict(os.environ,
               PYTHONPATH=str(Path(gekeler.__file__).resolve().parents[1]))
    cap = 800 * 2 ** 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "gekeler", "icm", "--q", "3",
                           "--f", "(x^2 + 1)^3 + T^6*x", "--prime", "T"],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=limit)
    assert time.monotonic() - t0 < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: weak_classes: the unit transversal "
                                  "would hold 531441 matrices of size 22x22")
    assert proc.stderr.endswith("for q = 3, f = x^6 + (T^6)*x + 1, p = T\n")


def _m_p(rep):
    """m_p as each report gives it: the count of p-overorders for
    `overorders` (two orders, two classes here), the one singular prime's
    for `product`."""
    if "orders" in rep:
        return len(rep["orders"])
    if "singular" in rep:
        return rep["singular"][0]["m_p"]
    return rep["m_p"]


@pytest.mark.parametrize("argv, m_p", [
    (["overorders", "--f", "x^2 - T^3", "--prime", "T"], 2),
    (["icm", "--f", "x^2 - T^3", "--prime", "T"], 2),
    (["ratio", "--f", "x^2 - T^3", "--prime", "T"], 2),
    (["product", "--f", "x^2 - T^3"], 2),
    (["icm", "--f", "x^2 - T^5", "--prime", "T"], 3),
    (["icm", "--f", "x^2 - T", "--prime", "T + 1"], 1)])
def test_windows_over_a_huge_prime_field_list_no_field(argv, m_p):
    # over F_q, q = 10^9 + 7, every cover space of these windows is at most
    # a line, so the walk lists no element of F_q; here under an 800 MB
    # address space set only in the child
    env = dict(os.environ,
               PYTHONPATH=str(Path(gekeler.__file__).resolve().parents[1]))
    cap = 800 * 2 ** 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run([sys.executable, "-m", "gekeler", argv[0], "--q",
                           "1000000007", *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=limit)
    assert proc.returncode == 0, proc.stderr
    assert _m_p(json.loads(proc.stdout)) == m_p


def test_rationals_are_reduced_with_positive_denominator():
    code, out, _ = run_cli(["ratio", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T + 1"])
    rep = json.loads(out)
    num, den = map(int, rep["value"].split("/"))
    import math
    assert den > 0 and math.gcd(num, den) == 1


def test_byte_identical_reruns():
    invocations = [
        ["product", "--q", "3", "--f", "x^2 - T^3"],
        ["icm", "--q", "3", "--f", "x^2 - T^3", "--prime", "T"],
        ["ratio", "--q", "3", "--f", "x^2 - T^3", "--prime", "T", "--level", "1"],
        ["zeta", "--q", "5", "--f", "x^2 - (T^3 + T + 1)"],
        ["primes", "--q", "3", "--f", "x^2 - T^3"],
        ["overorders", "--q", "3", "--f", "x^2 - T^3", "--prime", "T"],
        ["oracle", "slcount", "--q", "2", "--f", "x^2 - T^3", "--prime", "T",
         "--level", "2"],
    ]
    for args in invocations:
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first.encode() == second.encode()


def test_report_text_is_json_dumps_with_indent_2(monkeypatch):
    # the report writer lays out what json.dumps(report, indent=2) would, on
    # the report of every benchmark job and an oracle job, and on each kind
    # of scalar and empty container
    from conftest import perfbench_workloads
    from gekeler import cli
    workloads = perfbench_workloads()
    reports = []
    for name, runner in cli._RUNNERS.items():
        monkeypatch.setitem(cli._RUNNERS, name, lambda args, run=runner:
                            reports.append(run(args)) or reports[-1])
    oracle = ["oracle", "slcount", "--q", "3", "--f", "x^2 - T^3", "--prime", "T",
              "--level", "2"]
    for argv in workloads.ICM_WINDOW + workloads.CENSUS + [oracle]:
        assert run_cli(argv)[0] == 0
    assert len(reports) == 23
    reports.append({"empty": [[], {}, ()],
                    "scalars": (0, -10 ** 40, 2.5, True, False, None),
                    "t\u00e9xt \"\\\n": "\u00fc\t\U0001d53d",
                    "nested": {"a": {"b": [[1]]}}})
    for report in reports:
        assert cli._json_text(report) == json.dumps(report, indent=2)


def test_import_prints_nothing_and_builds_no_table():
    # a benchmark worker's first line after `import gekeler.cli` must be its
    # own; every field, orbit list and prime sieve is built on first use
    env = dict(os.environ,
               PYTHONPATH=str(Path(gekeler.__file__).resolve().parents[1]))
    check = ("import sys, gekeler.cli\n"
             "from gekeler import cli, fqpoly, primes\n"
             "print(len(sys.modules['gekeler.gf']._FIELD_CACHE),\n"
             "      primes._orbit_logs.cache_info().currsize,\n"
             "      fqpoly._sieve.cache_info().currsize, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout == ""
    assert proc.stderr.split() == ["0", "0", "0"]


def test_import_loads_neither_dataclasses_nor_the_oracle():
    # start-up compiles and runs only what a small job uses; the brute-force
    # oracle is loaded by the first subcommand that runs it, and argv is
    # read without argparse
    env = dict(os.environ,
               PYTHONPATH=str(Path(gekeler.__file__).resolve().parents[1]))
    check = ("import contextlib, io, sys, gekeler.cli\n"
             "names = ('dataclasses', 'inspect', 'gekeler.oracle', 'argparse')\n"
             "print(*[n for n in names if n in sys.modules], file=sys.stderr)\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = gekeler.cli.main(['ratio', '--q', '3', '--f', 'x^2 - T^3',\n"
             "                             '--prime', 'T', '--level', '1'])\n"
             "print(code, 'gekeler.oracle' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines[0] == ""
    assert lines[-1] == "0 True"


def test_main_keeps_no_state_between_calls():
    # main() reads every argv through the same module-level table; a second
    # call prints the same bytes, and an explicit --budget leaves the default
    # as it was
    from gekeler import cli
    from gekeler.oracle import DEFAULT_BUDGET
    argv = ["product", "--q", "3", "--f", "x^2 - T", "--check-depth", "3"]
    first = run_cli(argv)
    budget_argv = ["oracle", "count", "--q", "3", "--f", "x^2 - T^3",
                   "--prime", "T", "--level", "3"]
    assert run_cli(budget_argv + ["--budget", "100"])[0] == 2
    second = run_cli(argv)
    assert first[0] == second[0] == 0
    assert first[1].encode() == second[1].encode()
    assert cli._read_argv(budget_argv).budget == DEFAULT_BUDGET


