"""Weyl-chamber predicate, Vandermonde product, exact determinant, reflection shift.

All functions are pure and accept any sequence of k >= 2 coordinates.
Exact integer/rational arithmetic is used whenever every coordinate is an
int or a Fraction; float inputs take the floating-point path.
"""

from fractions import Fraction
from numbers import Integral

__all__ = [
    "in_weyl",
    "vandermonde",
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
    """Product over ordered pairs: prod_{i<j} (x_j - x_i).

    Returns an exact int/Fraction when all coordinates are exact, else a float.
    """
    coords = _check_config(x)
    if _is_exact(coords):
        prod = 1
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                prod *= coords[j] - coords[i]
        return prod
    prod = 1.0
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            prod *= float(coords[j]) - float(coords[i])
    return prod


def _bareiss_det(rows):
    """Fraction-free (Bareiss) determinant for exact entries."""
    m = [list(r) for r in rows]
    if any(isinstance(e, Fraction) for row in m for e in row):
        m = [[Fraction(e) for e in row] for row in m]
    k = len(m)
    sign = 1
    prev = 1
    for col in range(k - 1):
        if m[col][col] == 0:
            for r in range(col + 1, k):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                num = m[r][c] * m[col][col] - m[r][col] * m[col][c]
                m[r][c] = num / prev if isinstance(num, Fraction) else num // prev
        prev = m[col][col]
    return sign * m[k - 1][k - 1]


def exact_det(rows):
    """Exact determinant of a square matrix of int/Fraction entries.

    Cofactor expansion for k <= 4, fraction-free elimination above.
    """
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k <= 4:
        det = 0
        for j in range(k):
            if rows[0][j] == 0:
                continue
            minor = [[row[c] for c in range(k) if c != j] for row in rows[1:]]
            term = rows[0][j] * exact_det(minor)
            det = det + term if j % 2 == 0 else det - term
        return det
    return _bareiss_det(rows)


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
