import importlib.util
from pathlib import Path

import pytest

from gekeler.gf import gf
from gekeler.parse import parse_bipoly
from gekeler.context import AlgebraContext

_CTX_CACHE = {}

# curves whose pipeline quotients are checked against reference algorithms
ORACLE_CURVES = [
    (3, "x^2 - T^3"),
    (3, "x^2 - T^3*(T + 1)^3"),
    (3, "x^2 - T^2*(T + 1)^3"),
    (3, "(x^2 - (1 + T^3 - T - 1))^2 + 4*x^2"),
    (2, "x^3 - T^4"),
    (2, "x^3 - T^5"),
    (3, "x^4 + T^3"),
]

# over F_2 at T, O/f has c = 3 > q local components in some window of each
# three-branch curve, where a kept W can hold no unit, so the walk there
# must start at 0
THREE_BRANCH_CURVES = [(2, "x*(x+T)*(x^2+T) + T^5"),
                       (2, "x*(x+T^2)*(x+T+T^2) + T^7")]

# the curves of the census benchmark workload, whose constant field is F_q
# except for x^2 - 2 over F_3 (m = 2)
CENSUS_CURVES = [
    (3, "x^2 - T"), (5, "x^2 - (T^3 + T + 1)"), (2, "x^3 + T*x + T^4 + T + 1"),
    (3, "x^2 - (T^2 + 1)"), (2, "x^2 + x + T^7"), (3, "x^2 - (T^5 + 2*T + 1)"),
    (3, "x^2 - (T^7 + T + 2)"), (4, "x^2 + x + T^5 + T^3 + a"),
    (4, "x^2 + x + T^5 + a"), (5, "x^2 - (T^5 + T + 1)"), (7, "x^2 - (T^5 + 3)"),
    (11, "x^2 - (T^5 + T + 1)"),
]


def perfbench_workloads():
    """The benchmark's workloads module, perfbench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_ctx(q, fstr, seed=0):
    from gekeler.gf import gf_of_order
    key = (q, fstr, seed)
    if key not in _CTX_CACHE:
        field = gf_of_order(q)
        _CTX_CACHE[key] = AlgebraContext(field, parse_bipoly(field, fstr),
                                         seed=seed)
    return _CTX_CACHE[key]


@pytest.fixture
def f3():
    return gf(3)


@pytest.fixture
def f2():
    return gf(2)


@pytest.fixture
def cusp():
    """R = F_3[T][x]/(x^2 - T^3), the running singular example."""
    return make_ctx(3, "x^2 - T^3")


@pytest.fixture
def ramified_regular():
    """R = F_3[T][x]/(x^2 - T), maximal at every prime."""
    return make_ctx(3, "x^2 - T")


@pytest.fixture
def elliptic5():
    return make_ctx(5, "x^2 - (T^3 + T + 1)")


@pytest.fixture
def cubic_cusp2():
    """x^3 - T^4 over F_2: rank-3 singular example with 4 overorders."""
    return make_ctx(2, "x^3 - T^4")
