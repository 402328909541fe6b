"""Operator formulas for a derivation's apply, bracket and det.

The package computes each of them as one sum of integer products
(``poly._dot``) that is normalised once.  These references write the same
formulas with the ring's own +, - and * on values, each intermediate
normalised on its own, so the tests compare the two by ``==``.  Each
returns ring values, not derivations, so that values of every ring compare
alike.
"""

from __future__ import annotations


def apply(d, p):
    """d(p) = dp/dx * d(x) + dp/dy * d(y), for p a value of d's ring."""
    return p.dx() * d.act_x + p.dy() * d.act_y


def bracket(d, e) -> tuple:
    """The components ([d, e](x), [d, e](y)) of the commutator."""
    return (apply(d, e.act_x) - apply(e, d.act_x),
            apply(d, e.act_y) - apply(e, d.act_y))


def det(d, e):
    """d(x) * e(y) - d(y) * e(x)."""
    return d.act_x * e.act_y - d.act_y * e.act_x
