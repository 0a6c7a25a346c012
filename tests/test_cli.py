import json
import io
import contextlib
import time
from fractions import Fraction

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
    assert "irreducible" in err


def test_budget_exceeded_exit_2():
    code, _, err = run_cli(["oracle", "count", "--q", "3", "--f", "x^2 - T^3",
                            "--prime", "T", "--level", "3", "--budget", "100"])
    assert code == 2
    assert "budget" in err


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
