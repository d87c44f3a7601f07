"""Weyl-chamber predicate, Vandermonde product, exact determinant, reflection shift.

The functions are pure and take configurations of k >= 2 coordinates.
`vandermonde` takes its product along the last axis: a sequence gives an
exact int/Fraction when every coordinate is an int or a Fraction, and a
float otherwise; a numpy array gives one product per row, in the array's own
dtype. `exact_det` is the Leibniz sum over `signed_permutations`, the sign
table that the batched determinants of `lattice_exact` share.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations
from numbers import Integral

import numpy as np

__all__ = [
    "in_weyl",
    "vandermonde",
    "signed_permutations",
    "reflection_shift",
]


def _check_config(x):
    coords = list(x)
    if len(coords) < 2:
        raise ValueError(f"configuration needs k >= 2 coordinates, got {len(coords)}")
    return coords


def _is_exact(coords):
    return all(isinstance(c, (Integral, Fraction)) and not isinstance(c, bool) for c in coords)


def in_weyl(x) -> bool:
    """True iff the coordinates are strictly increasing."""
    coords = _check_config(x)
    return all(a < b for a, b in zip(coords, coords[1:]))


def vandermonde(x):
    """Product over ordered pairs: prod_{i<j} (x_j - x_i), along the last axis.

    An array gives one product per row in its own dtype; a sequence gives an
    exact int/Fraction when all coordinates are exact, else a float.
    """
    if isinstance(x, np.ndarray):
        coords = _check_config(x[..., i] for i in range(x.shape[-1]))
    else:
        coords = _check_config(x)
        if not _is_exact(coords):
            coords = [float(c) for c in coords]
    return math.prod(coords[j] - coords[i] for i, j in combinations(range(len(coords)), 2))


def signed_permutations(k: int):
    """Yield (perm, sign) for every permutation of range(k), sign = (-1)^inversions."""
    for perm in permutations(range(k)):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        yield perm, -1 if inversions % 2 else 1


def exact_det(rows):
    """Exact determinant of a square matrix of int/Fraction entries (Leibniz sum)."""
    return sum(sign * math.prod(rows[i][p] for i, p in enumerate(perm))
               for perm, sign in signed_permutations(len(rows)))


def reflection_shift(y):
    """Shift vector for the alphabetically minimal disordered pair.

    For the minimal (i, j) with i < j and y_i > y_j, returns the vector that
    is (y_i - y_j) at position i, (y_j - y_i) at position j and zero elsewhere.
    On the boundary (only ties, no strict disorder) the minimal tied pair is
    used and the shift is the zero vector.
    """
    coords = _check_config(y)
    k = len(coords)
    if in_weyl(coords):
        raise ValueError("reflection shift is undefined inside the Weyl chamber")
    for i in range(k):
        for j in range(i + 1, k):
            if coords[i] > coords[j]:
                shift = [0 * coords[0]] * k
                shift[i] = coords[i] - coords[j]
                shift[j] = coords[j] - coords[i]
                return tuple(shift)
    # only equalities: minimal tied pair gives the zero shift
    return tuple([0 * coords[0]] * k)
