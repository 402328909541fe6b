"""Command-line interface.

Exit codes: 0 = success/PASS, 1 = a mathematical check failed (certificate
violation, non-multiple, singular transversality), 2 = usage error (bad
expression, bad flag, hypothesis not met).  Every subcommand accepts --json
for machine-readable output; rationals appear as "num/den" strings, floats
as JSON numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import commutant, family, flows, obstruction, parity, selftest
from .derivations import PlanarDerivation, hamiltonian
from .errors import (
    DegenerateRecurrence,
    HypothesisViolation,
    InvalidInput,
    NotAMultiple,
    ParseError,
    RingMismatch,
    SingularDelta,
)
from .parsing import parse_bipoly, parse_unipoly
from .poly import UniPoly


def _emit(args: argparse.Namespace, payload: dict, human: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def _q_text(q_coeffs: tuple[Fraction, ...]) -> str:
    return UniPoly(list(q_coeffs)).to_text("H")


# ---------------------------------------------------------------- commands

def _cmd_commutant(args: argparse.Namespace) -> int:
    f = parse_unipoly(args.f)
    basis = commutant.solve_commutant(f, args.max_deg_y)
    payload = {
        "f": str(f),
        "max_deg_y": basis.M,
        "dimension": basis.dimension,
        "basis": [g.to_json_dict() for g in basis.basis],
    }
    human = [
        f"f = {f}",
        f"max y-degree = {basis.M}",
        f"dimension = {basis.dimension}",
    ]
    human += [f"basis[{i}] = {g}" for i, g in enumerate(basis.basis)]
    _emit(args, payload, human)
    return 0


def _cmd_h_decompose(args: argparse.Namespace) -> int:
    f = parse_unipoly(args.f)
    gamma = PlanarDerivation(parse_bipoly(args.gamma_dx),
                                       parse_bipoly(args.gamma_dy))
    dec = commutant.decompose_in_H(f, gamma)  # NotAMultiple -> exit 1
    payload = {
        "f": str(f),
        "gamma": gamma.to_json_dict(),
        "H": str(hamiltonian(f)),
        "q": _q_text(dec.q_coeffs),
        "q_coeffs": [str(c) for c in dec.q_coeffs],
    }
    human = [
        f"f = {f}",
        f"H = {hamiltonian(f)}",
        f"gamma = {gamma}",
        f"q = {_q_text(dec.q_coeffs)}",
        "gamma = q(H) * delta_f",
    ]
    _emit(args, payload, human)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    f = parse_unipoly(args.f)
    cert = commutant.certify_rank_one(f, args.max_deg_y)
    payload = {
        "f": str(f),
        "max_deg_y": cert.M,
        "dimension": cert.dimension,
        "expected_dimension": cert.expected_dimension,
        "q": [_q_text(d.q_coeffs) for d in cert.decompositions],
        "passed": cert.passed,
    }
    if cert.reason:
        payload["reason"] = cert.reason
    human = [
        f"f = {f}, max y-degree = {cert.M}",
        f"dimension = {cert.dimension} (expected {cert.expected_dimension})",
    ]
    human += [f"q[{i}] = {_q_text(d.q_coeffs)}"
              for i, d in enumerate(cert.decompositions)]
    human.append(f"certificate: {'PASS' if cert.passed else 'FAIL'}")
    if cert.reason:
        human.append(f"reason: {cert.reason}")
    _emit(args, payload, human)
    return 0 if cert.passed else 1


def _cmd_parity(args: argparse.Namespace) -> int:
    f = parse_unipoly(args.f)
    system = parity.build_system(args.kind, args.m, f)
    space = parity.solve_system(system)
    payload = {
        "kind": system.kind,
        "m": system.m,
        "f": str(f),
        "equations": {eq.label: eq.text for eq in system.equations},
        "dimension": space.dimension,
        "forced": sorted(space.forced),
        "basis": [{name: str(p) for name, p in entry.items()}
                  for entry in space.basis],
    }
    human = [f"({system.kind})_{system.m} for f = {f}"]
    human += [f"  {eq.label}: {eq.text}" for eq in system.equations]
    human.append(f"dimension = {space.dimension}")
    forced = ", ".join(sorted(space.forced)) if space.forced else "none"
    human.append(f"forced zero: {forced}")
    for i, entry in enumerate(space.basis):
        parts = ", ".join(f"{name} = {entry[name]}" for name in sorted(entry))
        human.append(f"basis[{i}]: {parts}")
    _emit(args, payload, human)
    return 0


def _cmd_lemmas(args: argparse.Namespace) -> int:
    f = parse_unipoly(args.f)
    report = parity.check_lemma_suite(f, args.m_max)
    checks = sorted(report.checks, key=lambda c: (c.kind, c.m))
    payload = {
        "f": str(f),
        "m_max": args.m_max,
        "passed": report.passed,
        "checks": [{"name": c.name, "passed": c.passed,
                    "dimension": c.dimension, "detail": c.detail}
                   for c in checks],
    }
    human = [f"parity-lemma suite for f = {f}, m <= {args.m_max}"]
    human += [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}"
              for c in checks]
    human.append(f"suite: {'PASS' if report.passed else 'FAIL'}")
    _emit(args, payload, human)
    return 0 if report.passed else 1


def _cmd_pm(args: argparse.Namespace) -> int:
    ob = obstruction.build_obstruction(args.m)
    roots = obstruction.rational_roots(ob.P)
    expected = obstruction.expected_root_set(ob.m)
    ok = roots == expected
    payload = {
        "m": ob.m,
        "P": ob.P.to_text("X"),
        "degree": int(ob.P.degree),
        "roots": [str(r) for r in sorted(roots)],
        "expected_roots": [str(r) for r in sorted(expected)],
        "matches_expected": ok,
    }
    human = [
        f"P_{ob.m} = {ob.P.to_text('X')}",
        "roots: {" + ", ".join(str(r) for r in sorted(roots)) + "}",
        f"matches expected root set: {'yes' if ok else 'NO'}",
    ]
    _emit(args, payload, human)
    return 0 if ok else 1


def _cmd_pm_witness(args: argparse.Namespace) -> int:
    w = family.pm_witness(args.m, args.k)
    alpha = family.build_family(args.k).alpha
    commutes = alpha.bracket(w).is_zero
    d_m = w.act_y.ycoeff(args.m)
    payload = {
        "m": args.m,
        "k": args.k,
        "t": w.t,
        "witness": w.to_json_dict(),
        "commutes_with_alpha": commutes,
        "d_m": str(d_m),
    }
    human = [
        f"witness for m = {args.m}, k = {args.k} on t = {w.t}",
        f"witness = {w}",
        f"commutes with alpha = ({alpha.act_x}, {alpha.act_y}): "
        f"{'yes' if commutes else 'NO'}",
        f"d_{args.m} = {d_m}",
    ]
    _emit(args, payload, human)
    return 0 if commutes and not d_m.is_zero else 1


def _cmd_laurent_family(args: argparse.Namespace) -> int:
    fam = family.build_family(args.k, Fraction(args.a_top))
    r = family.first_integral(args.k)
    ratio = fam.ratio_identity_holds()
    annihilates = fam.alpha.apply(r).is_zero
    payload = {
        "k": fam.k,
        "t": fam.t,
        "a": [str(v) for v in fam.a],
        "alpha": fam.alpha.to_json_dict(),
        "beta": fam.beta.to_json_dict(),
        "first_integral": str(r),
        "bracket_zero": True,  # verified during construction
        "alpha_annihilates_r": annihilates,
        "ratio_identity": ratio,
    }
    human = [
        f"k = {fam.k}, t = {fam.t}",
        "a = (" + ", ".join(str(v) for v in fam.a) + ")",
        f"alpha = {fam.alpha}",
        f"beta = {fam.beta}",
        f"r = {r}",
        "bracket(alpha, beta) = 0: yes",
        f"alpha(r) = 0: {'yes' if annihilates else 'NO'}",
        f"ratio identity: {'holds' if ratio else 'FAILS'}",
    ]
    _emit(args, payload, human)
    return 0 if ratio and annihilates else 1


def _cmd_linearize(args: argparse.Namespace) -> int:
    d = PlanarDerivation(parse_bipoly(args.dx), parse_bipoly(args.dy))
    res = flows.companion_for_linear(d)
    payload = {
        "d": d.to_json_dict(),
        "delta": res.delta.to_json_dict(),
        "case": res.case_label,
        "change_of_coords": res.change_of_coords,
    }
    human = [
        f"d = {d}",
        f"case: {res.case_label}",
        f"delta = {res.delta}",
    ]
    if res.change_of_coords:
        human.append(f"change of coordinates: {res.change_of_coords}")
    _emit(args, payload, human)
    return 0


def _cmd_flow_check(args: argparse.Namespace) -> int:
    d = PlanarDerivation(parse_bipoly(args.dx), parse_bipoly(args.dy))
    delta = PlanarDerivation(parse_bipoly(args.gx), parse_bipoly(args.gy))
    report = flows.rectification_defect(
        d, delta, Fraction(args.x0), Fraction(args.y0), args.t_end, args.steps)
    payload = {
        "max_defect": report.max_defect,
        "trajectory_error": report.trajectory_error,
        "steps": report.steps,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }
    human = [
        f"max |F(x(t), y(t)) - (t, 0)| = {report.max_defect:.6e}",
        f"steps = {report.steps}, tolerance = {report.tolerance:.1e}",
        f"flow check: {'PASS' if report.passed else 'FAIL'}",
    ]
    _emit(args, payload, human)
    return 0 if report.passed else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest.run_all(seed=args.seed)
    all_passed = all(r.passed for r in results)
    payload = {
        "seed": args.seed,
        "passed": all_passed,
        "criteria": [{"name": r.name, "passed": r.passed,
                      "detail": r.detail, "seconds": r.seconds}
                     for r in results],
    }
    human = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}  "
             f"({r.seconds}s)  {r.detail}" for r in results]
    human.append(f"selftest: {'PASS' if all_passed else 'FAIL'}")
    _emit(args, payload, human)
    return 0 if all_passed else 1


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="newtcomm",
        description="Commutants of planar Newton derivations, exactly.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return p

    p = add("commutant", _cmd_commutant,
            "basis of derivations commuting with (y, f(x))")
    p.add_argument("--f", required=True, help="force polynomial in x")
    p.add_argument("--max-deg-y", type=int, required=True)

    p = add("h-decompose", _cmd_h_decompose,
            "write a derivation as q(H) * delta_f")
    p.add_argument("--f", required=True)
    p.add_argument("--gamma-dx", required=True)
    p.add_argument("--gamma-dy", required=True)

    p = add("certify", _cmd_certify,
            "certify the commutant is K[H] * delta_f up to a y-degree")
    p.add_argument("--f", required=True)
    p.add_argument("--max-deg-y", type=int, required=True)

    p = add("parity", _cmd_parity, "build and solve one parity system")
    p.add_argument("--kind", required=True, choices=list(parity.KINDS))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--f", required=True)

    p = add("lemmas", _cmd_lemmas, "run the parity-lemma suite")
    p.add_argument("--f", required=True)
    p.add_argument("--m-max", type=int, required=True)

    p = add("pm", _cmd_pm, "obstruction polynomial P_m and its roots")
    p.add_argument("--m", type=int, required=True)

    p = add("pm-witness", _cmd_pm_witness,
            "Laurent witness certifying a root of P_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("laurent-family", _cmd_laurent_family,
            "the commuting pair (alpha, beta) on t = 2k-1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a-top", default="1", help="leading coefficient (rational)")

    p = add("linearize", _cmd_linearize,
            "commuting companion for an affine derivation")
    p.add_argument("--dx", required=True)
    p.add_argument("--dy", required=True)

    p = add("flow-check", _cmd_flow_check,
            "numeric check of the rectifying map F along the flow")
    p.add_argument("--dx", required=True)
    p.add_argument("--dy", required=True)
    p.add_argument("--gx", required=True)
    p.add_argument("--gy", required=True)
    p.add_argument("--x0", required=True, help="rational start x")
    p.add_argument("--y0", required=True, help="rational start y")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = add("selftest", _cmd_selftest, "run the acceptance criteria")
    p.add_argument("--seed", type=int, default=0)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, InvalidInput, RingMismatch, HypothesisViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotAMultiple, SingularDelta, DegenerateRecurrence) as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # e.g. unparseable rational flags
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
