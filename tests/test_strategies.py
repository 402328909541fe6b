"""The shared Hypothesis strategies draw from the domains they document."""

from fractions import Fraction

from strategies import RATIONAL_VALUES


def test_rationals_are_every_fraction_in_the_box_ordered_for_shrinking():
    """RATIONAL_VALUES is every Fraction in [-4, 4] with denominator <= 3,
    each once, ordered by (|q|, q) so that shrinking heads to 0."""
    box = {Fraction(n, d) for d in (1, 2, 3) for n in range(-4 * d, 4 * d + 1)}
    assert len(box) == 33
    assert list(RATIONAL_VALUES) == sorted(box, key=lambda q: (abs(q), q))
