"""Componentwise lattice operations on finite real vectors.

A vector in R^n with the componentwise order is a vector lattice: meet and
join are componentwise min and max, and the dual of R^n (under the Euclidean
pairing) is again R^n with the componentwise order, so dual meets and joins
can be evaluated directly via the Riesz-Kantorovich box optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DimensionMismatch, PreconditionError

#: Magnitude at which an obstacle side is treated as absent (one-sided problem).
UNBOUNDED = 1e30


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and convert ``x`` to a finite 1-D float array (length >= 1)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ConstructionError(f"{name} must be one-dimensional, got shape {v.shape}")
    if v.size < 1:
        raise ConstructionError(f"{name} must have length >= 1")
    if not np.all(np.isfinite(v)):
        raise ConstructionError(f"{name} contains NaN or infinite entries")
    return v


def _check_same_length(u: np.ndarray, v: np.ndarray) -> None:
    if u.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")


def meet(u, v) -> np.ndarray:
    """Componentwise minimum u ∧ v."""
    u, v = as_vector(u, "u"), as_vector(v, "v")
    _check_same_length(u, v)
    return np.minimum(u, v)


def join(u, v) -> np.ndarray:
    """Componentwise maximum u ∨ v."""
    u, v = as_vector(u, "u"), as_vector(v, "v")
    _check_same_length(u, v)
    return np.maximum(u, v)


def positive_part(u) -> np.ndarray:
    """u ∨ 0."""
    return np.maximum(as_vector(u, "u"), 0.0)


def negative_part(u) -> np.ndarray:
    """u ∧ 0 (nonpositive, and positive_part(u) + negative_part(u) == u)."""
    return np.minimum(as_vector(u, "u"), 0.0)


@dataclass(frozen=True, eq=False)
class OrderInterval:
    """Box [lo, hi] in the componentwise order; the feasible set of a solve.

    One-sided problems encode the missing side at +-UNBOUNDED.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo, "lo")
        hi = as_vector(self.hi, "hi")
        _check_same_length(lo, hi)
        if np.any(lo > hi):
            i = int(np.argmax(lo - hi))
            raise ConstructionError(
                f"interval requires lo <= hi componentwise; violated at index {i} "
                f"({lo[i]} > {hi[i]})"
            )
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    @property
    def lower_absent(self) -> bool:
        """True when the whole lower side is the missing-side sentinel."""
        return bool(np.all(self.lo <= -UNBOUNDED))

    @property
    def upper_absent(self) -> bool:
        return bool(np.all(self.hi >= UNBOUNDED))

    def contains(self, u, tol: float = 0.0) -> bool:
        u = as_vector(u, "u")
        _check_same_length(u, self.lo)
        return bool(np.all(u >= self.lo - tol) and np.all(u <= self.hi + tol))


def clamp(u, box: OrderInterval) -> np.ndarray:
    """Project u onto the box: componentwise median(lo, u, hi)."""
    u = as_vector(u, "u")
    _check_same_length(u, box.lo)
    return np.clip(u, box.lo, box.hi)


def _rk_extremum(l, m, x, kind: str) -> float:
    l, m, x = as_vector(l, "l"), as_vector(m, "m"), as_vector(x, "x")
    _check_same_length(l, m)
    _check_same_length(l, x)
    if np.any(x < 0):
        raise PreconditionError("Riesz-Kantorovich formula requires x >= 0 componentwise")
    # The objective z -> <l,z> + <m,x-z> is linear, so its extremum over the
    # box [0,x] is attained at a vertex: pick z_i in {0, x_i} componentwise.
    if kind == "join":
        z = np.where(l >= m, x, 0.0)
    else:
        z = np.where(l <= m, x, 0.0)
    return float(l @ z + m @ (x - z))


def rk_join(l, m, x) -> float:
    """sup over z in [0,x] of <l,z> + <m,x-z>; equals <join(l,m), x>."""
    return _rk_extremum(l, m, x, "join")


def rk_meet(l, m, x) -> float:
    """inf over z in [0,x] of <l,z> + <m,x-z>; equals <meet(l,m), x>."""
    return _rk_extremum(l, m, x, "meet")
