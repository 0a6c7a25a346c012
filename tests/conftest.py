import pytest

from gekeler.gf import gf
from gekeler.parse import parse_bipoly
from gekeler.context import AlgebraContext

_CTX_CACHE = {}


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
