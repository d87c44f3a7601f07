"""Chamber predicates, Vandermonde forms, and the reflection shift."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordwalk.geometry import (
    _is_exact,
    exact_det,
    in_weyl,
    reflection_shift,
    signed_permutations,
    vandermonde,
)


def _det_form(x):
    """Vandermonde via det[(x_j^(i-1))_{i,j}]; must agree with the product form."""
    coords = list(x)
    if _is_exact(coords):
        return exact_det([[c ** i for c in coords] for i in range(len(coords))])
    return float(np.linalg.det(np.vander(np.asarray(coords, dtype=float),
                                         increasing=True).T))

configs = st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=6)


def test_in_weyl_basic():
    assert in_weyl((0, 1, 2))
    assert not in_weyl((0, 0))
    assert not in_weyl((1, 0))


def test_in_weyl_needs_two_coords():
    with pytest.raises(ValueError):
        in_weyl((3,))


def test_vandermonde_values():
    assert vandermonde((0, 1)) == 1
    assert vandermonde((0, 1, 2)) == 2
    assert vandermonde((3, 3, 7)) == 0


def test_vandermonde_exact_type():
    assert isinstance(vandermonde((0, 1, 5)), int)
    assert vandermonde((Fraction(1, 2), Fraction(3, 2))) == 1
    assert isinstance(vandermonde((0.5, 1.5)), float)


@given(configs)
def test_det_form_agrees_with_product(coords):
    assert _det_form(coords) == vandermonde(coords)


@given(configs, st.data())
def test_antisymmetry(coords, data):
    i = data.draw(st.integers(0, len(coords) - 1))
    j = data.draw(st.integers(0, len(coords) - 1))
    swapped = list(coords)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    expected = vandermonde(coords) if i == j else -vandermonde(coords)
    assert vandermonde(swapped) == expected


@given(configs)
def test_weyl_implies_positive_vandermonde(coords):
    if in_weyl(coords):
        assert vandermonde(coords) > 0


def test_det_form_rational():
    x = (Fraction(-3, 7), Fraction(1, 5), Fraction(2, 3), Fraction(9, 4))
    assert _det_form(x) == vandermonde(x)


def test_det_form_float_close():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=4)
        assert _det_form(x) == pytest.approx(vandermonde(x), rel=1e-9)


def test_exact_det_matches_numpy():
    rng = np.random.default_rng(1)
    for k in (2, 3, 4, 5, 6):
        m = rng.integers(-9, 10, size=(k, k))
        got = exact_det([[int(v) for v in row] for row in m])
        assert got == round(np.linalg.det(m))


def test_exact_det_matches_numpy_at_k1():
    assert exact_det([[-7]]) == round(np.linalg.det(np.array([[-7]]))) == -7


def test_signed_permutation_signs_are_permutation_determinants():
    for k in range(1, 6):
        table = list(signed_permutations(k))
        assert [perm for perm, _ in table] == list(permutations(range(k)))
        for perm, sign in table:
            assert sign == round(np.linalg.det(np.eye(k)[list(perm)]))


@pytest.mark.parametrize("dtype", [np.int64, np.float64, object])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_vandermonde_rows_match_the_scalar_form(k, dtype):
    rng = np.random.default_rng(k)
    rows = rng.integers(-20, 21, size=(50, k))
    arr = rows.astype(float) / 4 if dtype is np.float64 else rows.astype(dtype)
    got = vandermonde(arr)
    assert got.shape == (50,) and got.dtype == arr.dtype
    assert got.tolist() == [vandermonde(tuple(row)) for row in arr.tolist()]


def test_exact_det_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert exact_det(m) == Fraction(1, 14) - Fraction(1, 15)


def test_reflection_shift_examples():
    assert reflection_shift((1, 0)) == (1, -1)
    assert reflection_shift((0, 2, 1)) == (0, 1, -1)
    assert reflection_shift((5, 5)) == (0, 0)


def test_reflection_shift_rejects_chamber_points():
    with pytest.raises(ValueError):
        reflection_shift((0, 1))


@settings(max_examples=200)
@given(configs)
def test_reflection_shift_structure(coords):
    if in_weyl(coords):
        return
    shift = reflection_shift(coords)
    nz = [i for i, s in enumerate(shift) if s != 0]
    assert len(nz) in (0, 2)
    if nz:
        i, j = nz
        assert i < j and coords[i] > coords[j]
        assert shift[i] == coords[i] - coords[j] == -shift[j]
