"""Integer parameters refuse bool, which Python counts as an int: True
would otherwise pass for 1 and False for 0."""

import pytest

from newtcomm import (
    InvalidInput,
    LaurentBiPoly,
    LaurentPoly,
    build_family,
    certify_rank_one,
    first_integral,
    newton_derivation,
    parse_unipoly,
    pm_witness,
    rk4_flow,
    solve_commutant,
)
from newtcomm.commutant import energy_basis
from newtcomm.obstruction import build_obstruction, substitute

X2 = parse_unipoly("x^2")

CALLS = {
    "solve_commutant": (lambda: solve_commutant(X2, True),
                        "max y-degree M must be a non-negative integer"),
    "energy_basis": (lambda: energy_basis(X2, True), "max y-degree M must be an integer"),
    "energy_basis_false": (lambda: energy_basis(X2, False), "max y-degree M must be an integer"),
    "certify_rank_one": (lambda: certify_rank_one(X2, True),
                         "max y-degree M must be a non-negative integer"),
    "substitute": (lambda: substitute(True, 1, 2), "m must be an integer >= 1 at a = 1"),
    "substitute_a": (lambda: substitute(3, True, 2), "the x-offset a must be 0 or 1"),
    "build_obstruction": (lambda: build_obstruction(True), "m must be an odd integer >= 3"),
    "build_family": (lambda: build_family(True), "k must be an integer >= 1"),
    "first_integral": (lambda: first_integral(True), "k must be an integer >= 1"),
    "pm_witness": (lambda: pm_witness(5, True), r"k must satisfy 1 <= k <= \(m-1\)/2"),
    "rk4_flow": (lambda: rk4_flow(newton_derivation(X2), 0.5, 0.0, 0.1, steps=True),
                 "steps must be an integer, got True"),
    "x_power": (lambda: LaurentPoly.x_power(True, 1), "root index t must be a positive integer"),
    "laurent_y": (lambda: LaurentBiPoly.y(True), "root index t must be a positive integer"),
    "power": (lambda: parse_unipoly("x") ** True,
              "polynomial powers take non-negative integer exponents"),
    "z_exponent": (lambda: LaurentPoly.term(1, True), "z takes integer exponents, not True"),
    "y_exponent": (lambda: LaurentBiPoly.y_pow(1, True),
                   "y takes non-negative integer exponents, not True"),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bool_is_not_an_integer(name):
    call, message = CALLS[name]
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        call()


def test_int_still_accepted():
    assert solve_commutant(X2, 1).M == 1
    assert len(energy_basis(X2, 3)) == 2
    assert build_family(1).k == 1
    assert len(rk4_flow(newton_derivation(X2), 0.5, 0.0, 0.1, steps=1)) == 2
    assert substitute(1, 1, 2) is not None
    assert LaurentPoly.x_power(1, 1) == LaurentPoly.term(1, 1)
    assert parse_unipoly("x") ** 2 == parse_unipoly("x^2")
