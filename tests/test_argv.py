"""The command line's argv reader against the argparse parser it replaced.

`cli._read_argv` reads argv through one option table; every argv that
argparse accepted must give the same values, and every argv it refused
must be refused, through `main`'s "error: ..." path with exit code 2.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gekeler
from argparse_oracle import build_parser
from conftest import perfbench_workloads
from gekeler import cli
from gekeler.errors import InputError
from test_acceptance import CLI_INVOCATIONS

_WORKLOADS = perfbench_workloads()
_CUSP = ["--q", "3", "--f", "x^2 - T^3"]

README_EXAMPLES = [
    ["product", "--q", "3", "--f", "x^2 - T^3"],
    ["icm", "--q", "3", "--f", "x^2 - T^3", "--prime", "T"],
    ["ratio", "--q", "3", "--f", "x^2 - T^3", "--prime", "T - 1"],
    ["ratio", "--q", "3", "--f", "x^2 - T^3", "--prime", "T - 1", "--level", "2"],
    ["product", "--q", "3", "--f", "x^2 - T", "--check-depth", "4"],
    ["zeta", "--q", "5", "--f", "x^2 - (T^3 + T + 1)"],
    ["primes", "--q", "3", "--f", "x^2 - T^3"],
    ["primes", "--q", "3", "--f", "x^2 - T^3", "--prime", "T"],
    ["overorders", "--q", "3", "--f", "x^2 - T^3", "--prime", "T"],
] + [["oracle", what, *_CUSP, "--prime", "T", "--level", "2"]
     for what in ("count", "orbits", "commutant", "slcount")]

EDGE_FORMS = [
    ["icm", "--q=3", "--f=x^2 - T^3", "--prime=T"],
    ["product", "--q", "3", "--f", "x^2 - T", "--check", "4"],
    ["product", "--q", "3", "--f", "x^2 - T", "--c=4", "--bud", "7"],
    ["icm", "--pr", "T", "--f", "x^2 - T^3", "--q", "3"],
    ["oracle", "--q", "3", "--f", "x^2 - T^3", "count"],
    ["oracle", *_CUSP, "count", "--prime", "T", "--level", "2"],
    ["oracle", *_CUSP, "--", "count"],
    ["icm", *_CUSP, "--prime", "T", "--seed", "1", "--seed", "4"],
    ["icm", *_CUSP, "--prime", "T", "--seed", "-5"],
    ["icm", *_CUSP, "--prime", "T", "--seed", " 7 "],
    ["icm", "--q", "3", "--f", "-x^2 + T^3", "--prime", "T"],
    ["icm", "--q", "3", "--f=-x^2+T^3", "--prime", "T"],
    ["zeta", "--q", "3", "--f", "", "--out", "-"],
]

MALFORMED = [
    [],
    ["--seed", "3"],
    ["icmm", *_CUSP, "--prime", "T"],
    ["--", "icm", *_CUSP, "--prime", "T"],
    ["icm", "--f", "x^2 - T^3", "--prime", "T"],
    ["icm", "--q", "3", "--prime", "T"],
    ["icm", *_CUSP],
    ["ratio", *_CUSP, "--level", "2"],
    ["overorders", *_CUSP],
    ["icm", "--q", "x", "--f", "x^2 - T^3", "--prime", "T"],
    ["icm", "--q", "3.0", "--f", "x^2 - T^3", "--prime", "T"],
    ["icm", *_CUSP, "--prime", "T", "--foo", "1"],
    ["icm", *_CUSP, "--prime", "T", "-q", "3"],
    ["icm", *_CUSP, "--prime", "T", "--level", "2"],
    ["primes", *_CUSP, "--check-depth", "2"],
    ["icm", *_CUSP, "--prime"],
    ["icm", "--q", "--f", "x^2 - T^3", "--prime", "T"],
    ["icm", "--q", "3", "--f", "-T", "--prime", "T"],
    ["icm", *_CUSP, "--prime", "T", "--"],
    ["icm", *_CUSP, "--prime", "T", "--=3"],
    ["icm", *_CUSP, "--prime", "T", "-hx"],
    ["icm", *_CUSP, "--prime", "T", "--version"],
    ["oracle", *_CUSP],
    ["oracle", "counts", *_CUSP],
    ["oracle", "count", "orbits", *_CUSP],
    ["oracle", "count", *_CUSP, "--"],
]


_PARSER = build_parser()


def _oracle_values(argv):
    return vars(_PARSER.parse_args(argv))


def _read(argv):
    args = cli._read_argv(list(argv))
    return args if isinstance(args, str) else vars(args)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _accepted_argvs():
    intake = [job["argv"] for job in _WORKLOADS.jobs_for("intake", 0)]
    return (_WORKLOADS.ICM_WINDOW + _WORKLOADS.CENSUS + intake
            + CLI_INVOCATIONS + README_EXAMPLES + EDGE_FORMS)


def test_accepted_argvs_read_as_argparse_reads_them():
    argvs = _accepted_argvs()
    assert len(argvs) == 9 + 13 + 250 + 12 + 13 + 13
    for argv in argvs:
        assert _read(argv) == _oracle_values(argv), argv


def test_edge_forms_give_the_last_value_and_negative_numbers():
    icm = ["icm", *_CUSP, "--prime", "T"]
    assert _read(icm + ["--seed", "1", "--seed", "4"])["seed"] == 4
    assert _read(icm + ["--seed", "-5"])["seed"] == -5
    assert _read(icm + ["--se=-5", "--pr", "T + 1"])["prime"] == "T + 1"
    assert _read(["product", *_CUSP, "--check", "4"])["check_depth"] == 4
    assert _read(["oracle", *_CUSP, "count"])["what"] == "count"


@pytest.mark.parametrize("argv", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_argv_is_refused_like_any_rejected_input(argv):
    with contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as exc:
        _PARSER.parse_args(argv)
    assert exc.value.code == 2
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reader_agrees_with_argparse_on_mutated_argvs():
    # tokens that reach every rule: prefixes, NAME=VALUE, "--", negative
    # numbers, values with spaces or a leading "-", help and version
    vocab = ["icm", "oracle", "product", "ratio", "count", "--q", "3", "-5",
             "--f", "x^2 - T^3", "-T", "--prime", "T", "--pr", "--seed",
             "--se", "--budget", "--out", "--level", "--l", "--check-depth",
             "--check", "--", "-", "-h", "--help", "--he", "-hx", "--version",
             "--v", "--q=3", "--f=x", "--=x", "--seed=", "--foo", "-x", "",
             "--level=2", "--c=2", "-1.5", "--x y", "0", "1_0"]
    bases = [["icm", *_CUSP, "--prime", "T"], ["oracle", "count", *_CUSP],
             ["product", *_CUSP], ["ratio", *_CUSP, "--prime", "T"], []]
    rng = random.Random(35)
    outcomes = set()
    for _ in range(3000):
        argv = list(rng.choice(bases))
        for _ in range(rng.randrange(7)):
            op = rng.randrange(3)
            if op == 0 or not argv:
                argv.insert(rng.randrange(len(argv) + 1), rng.choice(vocab))
            elif op == 1:
                del argv[rng.randrange(len(argv))]
            else:
                argv[rng.randrange(len(argv))] = rng.choice(vocab)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                want = _oracle_values(argv)
        except SystemExit as exc:
            want = exc.code
        try:
            got = _read(argv)
        except InputError:
            got = 2
        if isinstance(got, str):    # --help or --version
            got = 0
        if isinstance(want, dict) and any(
                want.get(name) is not None and want[name] < 1
                for name in ("budget", "level", "check_depth")):
            want = 2    # the reader refuses a limit below 1
        assert got == want, argv
        outcomes.add(got if not isinstance(got, dict) else "values")
    assert outcomes >= {0, 2, "values"}


@pytest.mark.parametrize("argv, text", [
    (["product", "--q", "3", "--f", "x^2 - T^2", "--check-depth", "0"],
     "--check-depth must be >= 1"),
    (["ratio", "--q", "3", "--f", "x^2 - T^2", "--prime", "T", "--level", "0"],
     "truncation level must be >= 1"),
    (["oracle", "count", "--q", "3", "--f", "x^2 - T^2", "--prime", "T",
      "--level", "-1"], "truncation level must be >= 1"),
    (["oracle", "commutant", "--q", "3", "--f", "x^2 - T^2", "--level", "0"],
     "truncation level must be >= 1")])
def test_levels_below_one_are_refused_before_any_work(monkeypatch, argv, text):
    # f is reducible, so a check made after the context is built would
    # report that first
    def refuse(*args):
        raise AssertionError("built the field")

    monkeypatch.setattr(cli, "gf_of_order", refuse)
    assert _run(argv) == (2, "", f"error: {text}\n")


def test_subcommand_help_comes_from_the_table():
    code, out, err = _run(["oracle", "-h"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: gekeler oracle {count,orbits,commutant,"
                          "slcount} --q Q --f F [--prime PRIME]")
    assert "--level LEVEL" in out
    assert _run(["--vers"]) == (0, gekeler.__version__ + "\n", "")


def _console(*argv):
    env = dict(os.environ,
               PYTHONPATH=str(Path(gekeler.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "gekeler", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_console_entry_help_version_and_usage_error():
    proc = _console("--help")
    assert proc.returncode == 0
    for command in ("primes", "overorders", "icm", "ratio", "product", "zeta",
                    "oracle"):
        assert command in proc.stdout
    proc = _console("icm", "--help")
    assert proc.returncode == 0 and "--prime" in proc.stdout
    proc = _console("--version")
    assert (proc.returncode, proc.stdout) == (0, gekeler.__version__ + "\n")
    proc = _console()
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")
