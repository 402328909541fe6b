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

from . import commutant, family, flows, obstruction, parity
from .derivations import PlanarDerivation, hamiltonian
from .errors import DegenerateRecurrence, NewtcommError, NotAMultiple, SingularDelta
from .parsing import parse_bipoly, parse_unipoly
from .poly import UniPoly


def rational(text: str) -> Fraction:
    """argparse type of the rational flags; a zero denominator is a bad value."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _q_text(q_coeffs: tuple[Fraction, ...]) -> str:
    return UniPoly(list(q_coeffs)).to_text("H")


def _derivation(dx: str, dy: str) -> PlanarDerivation:
    return PlanarDerivation(parse_bipoly(dx), parse_bipoly(dy))


# ---------------------------------------------------------------- commands
# Each command returns its result as (JSON payload, human lines, exit code);
# main prints one of the two forms.

Result = tuple[dict, list[str], int]

def _cmd_commutant(args: argparse.Namespace) -> Result:
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
    return payload, human, 0


def _cmd_h_decompose(args: argparse.Namespace) -> Result:
    f = parse_unipoly(args.f)
    gamma = _derivation(args.gamma_dx, args.gamma_dy)
    dec = commutant.decompose_in_H(f, gamma)  # NotAMultiple -> exit 1
    H, q = hamiltonian(f), _q_text(dec.q_coeffs)
    payload = {
        "f": str(f),
        "gamma": gamma.to_json_dict(),
        "H": str(H),
        "q": q,
        "q_coeffs": [str(c) for c in dec.q_coeffs],
    }
    human = [
        f"f = {f}",
        f"H = {H}",
        f"gamma = {gamma}",
        f"q = {q}",
        "gamma = q(H) * delta_f",
    ]
    return payload, human, 0


def _cmd_certify(args: argparse.Namespace) -> Result:
    f = parse_unipoly(args.f)
    cert = commutant.certify_rank_one(f, args.max_deg_y)
    qs = [_q_text(d.q_coeffs) for d in cert.decompositions]
    payload = {
        "f": str(f),
        "max_deg_y": cert.M,
        "dimension": cert.dimension,
        "expected_dimension": cert.expected_dimension,
        "q": qs,
        "passed": cert.passed,
    }
    if cert.reason:
        payload["reason"] = cert.reason
    human = [
        f"f = {f}, max y-degree = {cert.M}",
        f"dimension = {cert.dimension} (expected {cert.expected_dimension})",
    ]
    human += [f"q[{i}] = {q}" for i, q in enumerate(qs)]
    human.append(f"certificate: {'PASS' if cert.passed else 'FAIL'}")
    if cert.reason:
        human.append(f"reason: {cert.reason}")
    return payload, human, 0 if cert.passed else 1


def _cmd_parity(args: argparse.Namespace) -> Result:
    f = parse_unipoly(args.f)
    system = parity.build_system(args.kind, args.m, f)
    space = parity.solve_system(system)
    basis = [{n: str(parity.coefficient(g, n)) for n in sorted(system.unknowns)}
             for g in space.basis]
    payload = {
        "kind": system.kind,
        "m": system.m,
        "f": str(f),
        "equations": {eq.label: eq.text for eq in system.equations},
        "dimension": space.dimension,
        "forced": sorted(space.forced),
        "basis": basis,
    }
    human = [f"({system.kind})_{system.m} for f = {f}"]
    human += [f"  {eq.label}: {eq.text}" for eq in system.equations]
    human.append(f"dimension = {space.dimension}")
    forced = ", ".join(sorted(space.forced)) if space.forced else "none"
    human.append(f"forced zero: {forced}")
    for i, entry in enumerate(basis):
        parts = ", ".join(f"{n} = {p}" for n, p in entry.items())
        human.append(f"basis[{i}]: {parts}")
    return payload, human, 0


def _cmd_lemmas(args: argparse.Namespace) -> Result:
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
    return payload, human, 0 if report.passed else 1


def _cmd_pm(args: argparse.Namespace) -> Result:
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
    return payload, human, 0 if ok else 1


def _cmd_pm_witness(args: argparse.Namespace) -> Result:
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
    return payload, human, 0 if commutes and not d_m.is_zero else 1


def _cmd_laurent_family(args: argparse.Namespace) -> Result:
    fam = family.build_family(args.k, args.a_top)
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
    return payload, human, 0 if ratio and annihilates else 1


def _cmd_linearize(args: argparse.Namespace) -> Result:
    d = _derivation(args.dx, args.dy)
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
    return payload, human, 0


def _cmd_flow_check(args: argparse.Namespace) -> Result:
    d, delta = _derivation(args.dx, args.dy), _derivation(args.gx, args.gy)
    report = flows.rectification_defect(
        d, delta, args.x0, args.y0, args.t_end, args.steps)
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
    return payload, human, 0 if report.passed else 1


def _cmd_selftest(args: argparse.Namespace) -> Result:
    from . import selftest  # here only: no other subcommand pays for its import

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
    return payload, human, 0 if all_passed else 1


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
    p.add_argument("--a-top", type=rational, default="1", help="leading coefficient")

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
    p.add_argument("--x0", type=rational, required=True, help="start x")
    p.add_argument("--y0", type=rational, required=True, help="start y")
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
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # an answer may pass it; the parser keeps MAX_DIGITS
    try:
        payload, human, code = args.func(args)
    except (NewtcommError, ValueError) as exc:  # a failed check exits 1, bad input 2
        failed = isinstance(exc, (NotAMultiple, SingularDelta, DegenerateRecurrence))
        print(f"{'fail' if failed else 'error'}: {exc}", file=sys.stderr)
        return 1 if failed else 2
    finally:
        sys.set_int_max_str_digits(limit)
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else "\n".join(human))
    return code


if __name__ == "__main__":
    sys.exit(main())
