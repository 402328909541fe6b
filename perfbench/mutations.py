"""Deliberately wrong results, to show that the benchmark's oracles and
budget register them.  Used only by ``selfcheck.py``; each mutation wraps
one public function of the imported package (see tracing.rebind)."""

from __future__ import annotations

import dataclasses
import time

import newtcomm as nc
from newtcomm import commutant, family, obstruction

from tracing import rebind


def _drop_root() -> None:
    original = obstruction.rational_roots

    def rational_roots(p):
        roots = original(p)
        return frozenset(sorted(roots)[1:]) if roots else roots
    rebind(original, rational_roots)


def _perturb_basis() -> None:
    original = commutant.solve_commutant

    def solve_commutant(f, M, *args, **kwargs):
        com = original(f, M, *args, **kwargs)
        if not com.basis:
            return com
        first = com.basis[0]
        bumped = nc.PlanarDerivation(first.act_x + nc.BiPoly.monomial(0, 1, 1), first.act_y)
        return dataclasses.replace(com, basis=(bumped,) + com.basis[1:])
    rebind(original, solve_commutant)


def _perturb_apply() -> None:
    original = nc.PlanarDerivation.apply
    calls = 0

    def apply(self, p):
        nonlocal calls
        calls += 1
        out = original(self, p)
        return out + nc.BiPoly.one() if calls == 7 else out
    nc.PlanarDerivation.apply = apply


def _perturb_witness() -> None:
    original = family.pm_witness

    def pm_witness(m, k, a_top=1):
        w = original(m, k, a_top)
        extra = nc.LaurentBiPoly.y_pow(w.t, m)
        return nc.LaurentDerivation(w.t, w.act_x + extra, w.act_y)
    rebind(original, pm_witness)


def _stall(budget_s: float) -> None:
    original = obstruction.build_obstruction

    def build_obstruction(m):
        time.sleep(budget_s + 1.0)
        return original(m)
    rebind(original, build_obstruction)


# name -> (workload on which it must be counted as a failure, installer)
MUTATIONS = {
    "drop_root": ("roots", lambda budget_s: _drop_root()),
    "perturb_basis": ("certify", lambda budget_s: _perturb_basis()),
    "perturb_apply": ("calculus", lambda budget_s: _perturb_apply()),
    "perturb_witness": ("witness", lambda budget_s: _perturb_witness()),
    "stall": ("roots", _stall),
}


def install(name: str, budget_s: float) -> None:
    MUTATIONS[name][1](budget_s)
