"""The shared Hypothesis strategies draw from the domains they document."""

from fractions import Fraction

from strategies import HALF_VALUES, RATIONAL_VALUES


def test_rationals_are_every_fraction_in_the_box_ordered_for_shrinking():
    """RATIONAL_VALUES is every Fraction in [-4, 4] with denominator <= 3,
    each once, ordered by (|q|, q) so that shrinking heads to 0."""
    box = {Fraction(n, d) for d in (1, 2, 3) for n in range(-4 * d, 4 * d + 1)}
    assert len(box) == 33
    assert list(RATIONAL_VALUES) == sorted(box, key=lambda q: (abs(q), q))


def test_halves_are_every_fraction_in_their_box_ordered_for_shrinking():
    """HALF_VALUES is every Fraction in [-3, 3] with denominator <= 2, each
    once, in the order of RATIONAL_VALUES."""
    box = {Fraction(n, d) for d in (1, 2) for n in range(-3 * d, 3 * d + 1)}
    assert len(box) == 13
    assert list(HALF_VALUES) == sorted(box, key=lambda q: (abs(q), q))
