"""Finite real vectors in the componentwise order.

A vector in R^n with the componentwise order is a vector lattice: meet and
join are componentwise min and max, which the library takes directly with
``np.minimum`` and ``np.maximum``.  This module holds the input validators,
the order interval [lo, hi] that is the feasible set of a solve, and the
projection onto it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DimensionMismatch

#: Magnitude at which an obstacle side is treated as absent (one-sided problem).
UNBOUNDED = 1e30


def as_vector(x, name: str = "vector", n: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to a finite 1-D float array (length >= 1).

    With ``n`` given, a length other than n raises DimensionMismatch.  A string
    entry raises ConstructionError; a float64 array is returned uncopied.
    """
    v = np.asarray(x)
    if v.ndim != 1:
        raise ConstructionError(f"{name} must be one-dimensional, got shape {v.shape}")
    if v.size < 1:
        raise ConstructionError(f"{name} must have length >= 1")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {n}")
    if v.dtype.kind not in "biuf" or not np.isfinite(v).all():
        raise ConstructionError(f"{name} must hold finite numbers (dtype {v.dtype})")
    return v.astype(float, copy=False)


def as_index(i, name: str) -> int:
    """``i`` as an int; a string or a number with a fractional part raises ConstructionError."""
    # int first: isinstance against the numbers.Integral ABC is about 20x slower
    if isinstance(i, (int, numbers.Integral)) or (isinstance(i, numbers.Real) and float(i).is_integer()):
        return int(i)
    raise ConstructionError(f"{name} {i!r} is not an integer")


def as_real(x, name: str) -> float:
    """``x`` as a float; a string or any other non-number raises ConstructionError."""
    if not isinstance(x, numbers.Real):
        raise ConstructionError(f"{name} {x!r} is not a number")
    return float(x)


def as_index_set(indices, n: int, name: str) -> list[int]:
    """Sorted distinct :func:`as_index` of ``indices``; one outside range(n) raises ConstructionError."""
    name = f"{name} index"
    out = sorted(set(as_index(i, name) for i in indices))
    for i in out:
        if not 0 <= i < n:
            raise ConstructionError(f"{name} {i} out of range for {n} points")
    return out


@dataclass(frozen=True, eq=False)
class OrderInterval:
    """Box [lo, hi] in the componentwise order; the feasible set of a solve.

    One-sided problems encode the missing side at +-UNBOUNDED.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo, "lo").copy()  # owned, so the caller's arrays stay theirs
        hi = as_vector(self.hi, "hi", lo.shape[0]).copy()
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


def clamp(u, box: OrderInterval) -> np.ndarray:
    """Project u onto the box: componentwise median(lo, u, hi)."""
    return as_vector(u, "u", box.n).clip(box.lo, box.hi)
