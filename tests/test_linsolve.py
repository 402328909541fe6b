"""Sparse exact linear algebra over Q."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from newtcomm.linsolve import nullspace, rref

from strategies import HALF_VALUES


def R(**kw):
    """Row literal: R(c0=1, c3=-2) -> {0: 1, 3: -2}."""
    return {int(k[1:]): Fraction(v) for k, v in kw.items()}


def test_rref_identity_like():
    rows = [R(c0=2, c1=4), R(c1=3)]
    reduced, pivots = rref(rows, 2)
    assert pivots == [0, 1]
    assert reduced == [R(c0=1), R(c1=1)]


def test_rref_with_free_column():
    # x0 + x1 + x2 = 0 and x1 - x2 = 0  ->  pivots 0,1; x2 free
    rows = [R(c0=1, c1=1, c2=1), R(c1=1, c2=-1)]
    reduced, pivots = rref(rows, 3)
    assert pivots == [0, 1]
    assert reduced == [R(c0=1, c2=2), R(c1=1, c2=-1)]


def test_rank():
    rows = [R(c0=1, c1=2), R(c0=2, c1=4), R(c1=1)]
    assert len(rref(rows, 2)[1]) == 2
    assert len(rref([], 5)[1]) == 0
    assert len(rref([{}], 5)[1]) == 0


def test_nullspace_known():
    rows = [R(c0=1, c1=1, c2=1)]
    basis = nullspace(rows, 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(rows[0].get(j, Fraction(0)) * c for j, c in v.items()) == 0


def test_nullspace_full_rank_is_empty():
    rows = [R(c0=1), R(c1=1)]
    assert nullspace(rows, 2) == []


def test_nullspace_no_constraints():
    basis = nullspace([], 3)
    assert len(basis) == 3


def test_nullspace_is_canonical():
    """The basis is in reduced echelon form, so equal spaces compare equal."""
    rows_a = [R(c0=1, c1=1, c2=1, c3=1)]
    rows_b = [R(c0=3, c1=3, c2=3, c3=3)]  # same space, scaled
    assert nullspace(rows_a, 4) == nullspace(rows_b, 4)
    # re-reducing the basis vectors changes nothing
    basis = nullspace(rows_a, 4)
    re_reduced, _ = rref([dict(v) for v in basis], 4)
    assert re_reduced == basis


small_fracs = st.sampled_from(HALF_VALUES)  # every value of st.fractions(-3, 3, max_denominator=2)
matrices = st.lists(
    st.lists(small_fracs, min_size=4, max_size=4),
    min_size=1,
    max_size=5,
)


@given(matrices)
def test_nullspace_vectors_annihilate(mat):
    rows = [
        {j: c for j, c in enumerate(r) if c != 0} for r in mat
    ]
    basis = nullspace([dict(r) for r in rows], 4)
    for v in basis:
        for r in rows:
            assert sum(r.get(j, Fraction(0)) * c for j, c in v.items()) == 0


@given(matrices)
def test_rank_nullity(mat):
    rows = [
        {j: c for j, c in enumerate(r) if c != 0} for r in mat
    ]
    rk = len(rref([dict(r) for r in rows], 4)[1])
    nl = len(nullspace([dict(r) for r in rows], 4))
    assert rk + nl == 4
