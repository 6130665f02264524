import numpy as np
import pytest
from hypothesis import given, strategies as st

from obslat.errors import ConstructionError, DimensionMismatch
from obslat.lattice import OrderInterval, as_index_set, as_vector, clamp

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def vec_pair(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    u = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    return u, v


def test_length_mismatch():
    with pytest.raises(DimensionMismatch):
        as_vector([1.0], "v", 2)


def test_vector_validation():
    with pytest.raises(ConstructionError):
        as_vector([])
    with pytest.raises(ConstructionError):
        as_vector([1.0, np.nan])
    with pytest.raises(ConstructionError):
        as_vector([np.inf])
    with pytest.raises(ConstructionError):
        as_vector([[1.0, 2.0]])
    for strings in (["1.0", "2"], [1.0, "2"], np.array(["1.0"])):
        with pytest.raises(ConstructionError, match="must hold finite numbers"):
            as_vector(strings)
    v = np.array([0.5, 1.5])
    assert as_vector(v) is v
    assert np.array_equal(as_vector([True, 0, 2]), [1.0, 0.0, 2.0])


def test_clamp_examples():
    box = OrderInterval([0.0, 0.0], [1.0, 1.0])
    assert np.array_equal(clamp([5.0, -5.0], box), [1.0, 0.0])
    inside = np.array([0.25, 0.75])
    assert np.array_equal(clamp(inside, box), inside)
    once = clamp([3.0, -2.0], box)
    assert np.array_equal(clamp(once, box), once)


@given(st.data())
def test_clamp_nonexpansive(data):
    u, v = vec_pair(data.draw)
    lo = np.minimum(u, v) - 1.0
    hi = lo + np.abs(data.draw(st.lists(st.floats(0, 10), min_size=len(u), max_size=len(u))))
    box = OrderInterval(lo, hi)
    assert np.max(np.abs(clamp(u, box) - clamp(v, box))) <= np.max(np.abs(u - v))


def test_interval_validation():
    with pytest.raises(ConstructionError):
        OrderInterval([1.0], [0.0])
    with pytest.raises(DimensionMismatch):
        OrderInterval([0.0, 0.0], [1.0])
    box = OrderInterval([0.0], [1.0])
    assert box.lo[0] <= 0.5 <= box.hi[0]
    assert not box.lo[0] <= 1.5 <= box.hi[0]


def test_interval_owns_its_bounds():
    lo = np.zeros(3)
    OrderInterval(lo, np.ones(3))
    lo[0] = -1.0  # the caller's array stays writable
    base = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    box = OrderInterval(base[0], base[1])
    base[0, 0] = 5.0  # and writing to it leaves the box as it was checked
    assert box.lo.tolist() == [0.0, 0.0, 0.0] and box.hi.tolist() == [1.0, 1.0, 1.0]
    assert not box.lo.flags.writeable and not box.hi.flags.writeable


def test_index_sets_take_integers_only():
    assert as_index_set([3, 1.0, np.int64(1), np.float64(0.0), True], 4, "core") == [0, 1, 3]
    for bad in (2.5, "2", np.nan, np.inf, None, np.float64(-0.5)):
        with pytest.raises(ConstructionError, match="core index .* is not an integer"):
            as_index_set([0, bad], 4, "core")
    with pytest.raises(ConstructionError, match="out of range"):
        as_index_set([4.0], 4, "core")
