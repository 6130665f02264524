import numpy as np
import pytest
from hypothesis import given, strategies as st

from obslat.errors import ConstructionError, DimensionMismatch, PreconditionError
from obslat.lattice import (
    OrderInterval,
    as_index_set,
    as_vector,
    clamp,
    join,
    meet,
    rk_join,
    rk_meet,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def vec_pair(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    u = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    return u, v


def test_meet_join_examples():
    assert np.array_equal(meet([1, -2], [0, 3]), [0, -2])
    assert np.array_equal(join([1, -2], [0, 3]), [1, 3])


def test_meet_idempotent():
    u = np.array([0.3, -1.2, 5.0])
    assert np.array_equal(meet(u, u), u)


def test_meet_plus_join_is_sum():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u, v = rng.normal(size=5), rng.normal(size=5)
        assert np.array_equal(meet(u, v) + join(u, v), u + v)


def test_length_mismatch():
    with pytest.raises(DimensionMismatch):
        meet([1.0, 2.0], [1.0])


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


@given(st.data())
def test_lattice_absorption(data):
    u, v = vec_pair(data.draw)
    assert np.array_equal(join(u, meet(u, v)), u)
    assert np.array_equal(meet(u, join(u, v)), u)


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


def test_rk_worked_example():
    # sup over [0,x] of <l,z> + <m,x-z>; grid enumeration with step 1e-2 is
    # exact here because the linear objective peaks at a vertex of the box.
    l, m, x = np.array([1.0, -2.0]), np.array([-1.0, 3.0]), np.array([1.0, 1.0])
    grid = np.linspace(0.0, 1.0, 101)
    best = max(
        l[0] * z0 + l[1] * z1 + m[0] * (x[0] - z0) + m[1] * (x[1] - z1)
        for z0 in grid
        for z1 in grid
    )
    assert rk_join(l, m, x) == pytest.approx(4.0, abs=1e-12)
    assert best == pytest.approx(rk_join(l, m, x), abs=1e-12)


def test_rk_trivial_cases():
    l = np.array([1.0, -2.0])
    x = np.array([0.5, 2.0])
    assert rk_join(l, l, x) == pytest.approx(float(l @ x))
    assert rk_meet(l, l, x) == pytest.approx(float(l @ x))
    assert rk_join(l, -l, np.zeros(2)) == 0.0


def test_rk_requires_nonnegative_x():
    with pytest.raises(PreconditionError):
        rk_join([1.0], [2.0], [-0.5])


@given(st.data())
def test_rk_matches_dual_lattice_ops(data):
    n = data.draw(st.integers(1, 8))
    l = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    m = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    x = np.abs(np.array(data.draw(st.lists(st.floats(0, 10), min_size=n, max_size=n))))
    assert abs(rk_join(l, m, x) - float(join(l, m) @ x)) <= 1e-9
    assert abs(rk_meet(l, m, x) - float(meet(l, m) @ x)) <= 1e-9


def test_rk_against_vertex_enumeration():
    # Independent oracle: enumerate every vertex of [0, x].
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        l, m = rng.normal(size=n), rng.normal(size=n)
        x = np.abs(rng.normal(size=n))
        vals = []
        for mask in range(1 << n):
            z = np.array([x[i] if mask >> i & 1 else 0.0 for i in range(n)])
            vals.append(float(l @ z + m @ (x - z)))
        assert rk_join(l, m, x) == pytest.approx(max(vals), abs=1e-9)
        assert rk_meet(l, m, x) == pytest.approx(min(vals), abs=1e-9)


def test_index_sets_take_integers_only():
    assert as_index_set([3, 1.0, np.int64(1), np.float64(0.0), True], 4, "core") == [0, 1, 3]
    for bad in (2.5, "2", np.nan, np.inf, None, np.float64(-0.5)):
        with pytest.raises(ConstructionError, match="core index .* is not an integer"):
            as_index_set([0, bad], 4, "core")
    with pytest.raises(ConstructionError, match="out of range"):
        as_index_set([4.0], 4, "core")
