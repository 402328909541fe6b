"""Command line interface: exit codes, output shapes, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import newtcomm
from newtcomm import commutant, errors, obstruction
from newtcomm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_certify_pass_is_zero(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--f", "6*x^2 + 5", "--max-deg-y", "3"
        )
        assert code == 0
        assert "PASS" in out

    def test_mathematical_failure_is_one(self, capsys):
        # (x, y) commutes with nothing of Newton shape: not a q(H) multiple
        code, _, err = run(
            capsys,
            "h-decompose",
            "--f", "x^2",
            "--gamma-dx", "x",
            "--gamma-dy", "y",
        )
        assert code == 1
        assert err.startswith("fail: ")
        # gamma = (y^2 - x^3) * delta_f has the shape of a multiple, but
        # y^2 - x^3 is not a polynomial in H = y^2 - 2/3*x^3
        code, _, err = run(
            capsys,
            "h-decompose",
            "--f", "x^2",
            "--gamma-dx", "y^3 - x^3*y",
            "--gamma-dy", "x^2*y^2 - x^5",
        )
        assert code == 1
        assert err.startswith("fail: ")
        assert "H = y^2 - 2/3*x^3" in err

    def test_usage_failure_is_two(self, capsys):
        assert run(capsys, "pm", "--m", "4")[0] == 2
        assert run(capsys, "lemmas", "--f", "x", "--m-max", "4")[0] == 2
        assert run(capsys, "commutant", "--f", "2*x +", "--max-deg-y", "1")[0] == 2
        # the solver has no x-degree cap to set
        assert run(capsys, "certify", "--f", "x^2", "--max-deg-y", "3",
                   "--x-cap", "9")[0] == 2
        # a zero denominator or a non-finite end time is a bad flag value
        flow = ("flow-check", "--dx=1+x^2", "--dy=-2*x*y", "--gx", "0", "--gy", "y",
                "--steps", "10")
        for bad in (("--x0", "1/0", "--y0", "1", "--t-end", "1"),
                    ("--x0", "0", "--y0", "1/0", "--t-end", "1"),
                    ("--x0", "0", "--y0", "1", "--t-end", "nan"),
                    ("--x0", "0", "--y0", "1", "--t-end", "inf")):
            code, _, err = run(capsys, *flow, *bad)
            assert code == 2 and "error: " in err, bad
        code, _, err = run(capsys, "laurent-family", "--k", "2", "--a-top", "1/0")
        assert code == 2 and "error: " in err
        # nesting deeper than parsing.MAX_NESTING is a parse error
        for deep in ("(" * 200 + "x" + ")" * 200, "-" * 1000 + "x"):
            code, _, err = run(capsys, "commutant", f"--f={deep}", "--max-deg-y", "1")
            assert code == 2 and "error: " in err, deep[:3]

    def test_superscript_digit_is_a_positioned_error(self, capsys):
        code, out, err = run(capsys, "certify", "--f", "x^\u00b2", "--max-deg-y", "3")
        assert (code, out, err) == (2, "", "error: expected a number (at position 2)\n")

    def test_overlong_number_is_a_positioned_error(self, capsys):
        """More digits than int reads is a parse error, not the interpreter's
        ValueError text."""
        code, out, err = run(capsys, "certify", "--f", "1" * 5000 + "*x^2", "--max-deg-y", "3")
        assert (code, out, err) == (2, "", "error: number too long: 5000 digits (at position 0)\n")

    def test_answer_past_the_digit_limit_prints(self, capsys):
        """An answer whose coefficients pass the interpreter's 4300 digits is
        printed (the squares of a 2200-digit lc(f) in H delta_f), and the limit
        is back afterwards."""
        f = "1" * 2200 + "*x^2"
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "commutant", "--f", f, "--max-deg-y", "3")
        assert (code, err) == (0, "") and "dimension = 2" in out
        code, out, err = run(capsys, "commutant", "--f", f, "--max-deg-y", "3", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["dimension"] == 2 and payload["f"] == f
        assert max(map(len, re.findall(r"\d+", out))) > 4300
        assert sys.get_int_max_str_digits() == limit

    def test_degree_past_the_budget_is_two(self, capsys):
        code, out, err = run(capsys, "certify", "--f", "(x + 1)^1001", "--max-deg-y", "3")
        assert (code, out) == (2, "")
        assert err == "error: degree 1001 passes the degree budget 1000 (at position 8)\n"

    def test_power_of_a_parenthesised_value_past_the_digit_budget_is_two(self, capsys):
        """(<400 nines>*x + 1)^200 is refused from bit lengths, at once: its
        power took 15.6 s before the check."""
        t0 = time.perf_counter()
        code, out, err = run(capsys, "certify", "--f", "(" + "9" * 400 + "*x + 1)^200",
                             "--max-deg-y", "3")
        assert time.perf_counter() - t0 < 0.1
        assert (code, out) == (2, "")
        assert err == ("error: power of a coefficient passes the digit budget 4300 "
                       "(at position 409)\n")

    def test_unknown_subcommand_is_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag_is_two(self, capsys):
        assert run(capsys, "commutant", "--f", "x^2")[0] == 2

    def test_singular_flow_is_one(self, capsys):
        code, _, _ = run(
            capsys,
            "flow-check",
            "--dx", "y", "--dy", "x",
            "--gx", "x", "--gy", "y",
            "--x0", "2", "--y0", "1",
            "--t-end", "1.0", "--steps", "200",
        )
        assert code == 1

    def test_leading_minus_polynomial_via_equals_form(self, capsys):
        code, out, _ = run(
            capsys,
            "flow-check",
            "--dx", "1 + x^2", "--dy=-2*x*y",
            "--gx", "0", "--gy", "y",
            "--x0", "0", "--y0", "1",
            "--t-end", "1.0", "--steps", "2000",
        )
        assert code == 0
        assert "PASS" in out

    def test_flow_check_passes_on_good_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "flow-check",
            "--dx", "1", "--dy", "0",
            "--gx", "0", "--gy", "1",
            "--x0", "0", "--y0", "0",
            "--t-end", "1.0", "--steps", "64",
        )
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("flag", ["--dx", "--x0"])
    def test_value_beyond_the_float_range_is_two(self, capsys, flag):
        # 10^400 has no float: an input error naming the value, not a traceback
        argv = {"--dx": "1", "--dy": "0", "--gx": "0", "--gy": "1",
                "--x0": "0", "--y0": "0", "--t-end": "1.0", "--steps": "4"}
        argv[flag] = "1" + "0" * 400
        code, _, err = run(capsys, "flow-check", *(w for kv in argv.items() for w in kv))
        assert code == 2
        what = "coefficient" if flag == "--dx" else "x0"
        assert err == f"error: {what} 1{'0' * 400} is outside the float range\n"


# Every library error and how main reports it: a failed mathematical check
# exits 1 with "fail: ", anything else is bad input and exits 2 with "error: ".
ERROR_EXITS = {
    "NotAMultiple": (1, "fail"), "SingularDelta": (1, "fail"),
    "DegenerateRecurrence": (1, "fail"),
    "InvalidInput": (2, "error"), "RingMismatch": (2, "error"),
    "ParseError": (2, "error"), "HypothesisViolation": (2, "error"),
}


def test_every_library_error_has_an_exit_code():
    """A new NewtcommError class must be classified in ERROR_EXITS."""
    assert sorted(c.__name__ for c in errors.NewtcommError.__subclasses__()) == sorted(ERROR_EXITS)


@pytest.mark.parametrize("name", sorted(ERROR_EXITS))
def test_library_error_exit_code(capsys, monkeypatch, name):
    cls = getattr(errors, name)
    exc = cls("boom", 3) if cls is errors.ParseError else cls("boom")

    def raise_it(m):
        raise exc
    monkeypatch.setattr(obstruction, "build_obstruction", raise_it)
    code, prefix = ERROR_EXITS[name]
    assert run(capsys, "pm", "--m", "5") == (code, "", f"{prefix}: {exc}\n")


class TestJsonOutput:
    def test_commutant_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "commutant", "--f", "x^2", "--max-deg-y", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 2
        for entry in payload["basis"]:
            assert entry["ring"] == {"t": 1}
            assert set(entry) == {"ring", "dx", "dy"}
        # keys are sorted; dumping our parse with sort_keys reproduces stdout
        assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()

    def test_certify_json(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--f", "x^2", "--max-deg-y", "5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["expected_dimension"] == 3
        assert payload["q"] == ["H^2", "H", "1"]

    def test_laurent_family_json(self, capsys):
        code, out, _ = run(capsys, "laurent-family", "--k", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["t"] == 3
        assert payload["a"] == ["-27", "45", "18", "10", "1", "1"]
        assert payload["bracket_zero"] is True
        assert payload["ratio_identity"] is True
        assert payload["alpha"] == {
            "ring": {"t": 3},
            "dx": "y",
            "dy": "x^(-5/3)",
        }

    def test_pm_json(self, capsys):
        code, out, _ = run(capsys, "pm", "--m", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["P"] == "2*X^2 + 4*X - 6"
        assert sorted(payload["roots"]) == ["-3", "1"]
        assert payload["matches_expected"] is True

    def test_pm_json_m31(self, capsys):
        code, out, _ = run(capsys, "pm", "--m", "31", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["roots"]) == 16
        assert payload["matches_expected"] is True

    def test_pm_json_m121(self, capsys):
        code, out, _ = run(capsys, "pm", "--m", "121", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["roots"]) == 61
        assert payload["matches_expected"] is True

    def test_pm_json_m301(self, capsys):
        code, out, _ = run(capsys, "pm", "--m", "301", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["roots"]) == 151
        assert payload["matches_expected"] is True

    def test_parity_json(self, capsys):
        code, out, _ = run(
            capsys, "parity", "--kind", "Ie", "--m", "2", "--f", "x^2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equations"]["e_3"] == "d_2' = 0"
        assert "d_2" in payload["forced"]
        assert payload["dimension"] == 1

    def test_determinism(self, capsys):
        a = run(capsys, "commutant", "--f", "x^3 - x", "--max-deg-y", "5", "--json")
        b = run(capsys, "commutant", "--f", "x^3 - x", "--max-deg-y", "5", "--json")
        assert a == b


class TestGoldenOutput:
    """Exact --json bytes of subcommands, recorded before the Laurent rings
    were folded into the polynomial kernel (pm-witness, laurent-family) and
    before products moved to the integer kernel (commutant, parity,
    linearize)."""

    def test_pm_witness_json(self, capsys):
        code, out, _ = run(capsys, "pm-witness", "--m", "9", "--k", "2", "--json")
        assert code == 0
        assert out == json.dumps({
            "commutes_with_alpha": True,
            "d_m": "1",
            "k": 2,
            "m": 9,
            "t": 3,
            "witness": {
                "dx": "x*y^8 + 24*x^(1/3)*y^6 + 90*x^(-1/3)*y^4 - 243*x^(-5/3)",
                "dy": ("y^9 + 16*x^(-2/3)*y^7 + 114*x^(-4/3)*y^5 + 360*x^(-2)*y^3"
                       " + 405*x^(-8/3)*y"),
                "ring": {"t": 3},
            },
        }, indent=2, sort_keys=True) + "\n"

    # The largest witness of the witness benchmark (k = 10, t = 19) and one
    # equal to r^7 * beta; recorded when witnesses were built as powers of r
    # times beta, before they were read off the null vector of the ansatz.
    @pytest.mark.parametrize("k, t, dx, dy", [
        (10, 19,
         "x*y^20 + 3610/17*x^(17/19)*y^18 + 20577*x^(15/19)*y^16"
         " + 15638520/13*x^(13/19)*y^14 + 519980790/11*x^(11/19)*y^12"
         " + 1317284668*x^(9/19)*y^10 + 26816152170*x^(7/19)*y^8"
         " + 407605512984*x^(5/19)*y^6 + 4840315466685*x^(3/19)*y^4"
         " + 61310662578010*x^(1/19)*y^2 - 116490258898219*x^(-1/19)",
         "y^21 + 210*x^(-2/19)*y^19 + 341145/17*x^(-4/19)*y^17"
         " + 1152312*x^(-6/19)*y^15 + 574715610/13*x^(-8/19)*y^13"
         " + 13103515908/11*x^(-10/19)*y^11 + 23052481690*x^(-12/19)*y^9"
         " + 321793826040*x^(-14/19)*y^7 + 3209893414749*x^(-16/19)*y^5"
         " + 22588138844530*x^(-18/19)*y^3 + 128752391413821*x^(-20/19)*y"),
        (3, 5,
         "x*y^20 + 60*x^(3/5)*y^18 + 1775*x^(1/5)*y^16 + 30000*x^(-1/5)*y^14"
         " + 306250*x^(-3/5)*y^12 + 1925000*x^(-1)*y^10 + 7218750*x^(-7/5)*y^8"
         " + 13750000*x^(-9/5)*y^6 + 1953125*x^(-11/5)*y^4 - 39062500*x^(-13/5)*y^2"
         " - 48828125*x^(-3)",
         "y^21 + 56*x^(-2/5)*y^19 + 1435*x^(-4/5)*y^17 + 22400*x^(-6/5)*y^15"
         " + 236250*x^(-8/5)*y^13 + 1750000*x^(-2)*y^11 + 9143750*x^(-12/5)*y^9"
         " + 33000000*x^(-14/5)*y^7 + 78203125*x^(-16/5)*y^5 + 109375000*x^(-18/5)*y^3"
         " + 68359375*x^(-4)*y"),
    ], ids=["k10", "k3"])
    def test_pm_witness_m21_json(self, capsys, k, t, dx, dy):
        code, out, _ = run(capsys, "pm-witness", "--m", "21", "--k", str(k), "--json")
        assert code == 0
        assert out == json.dumps({
            "commutes_with_alpha": True,
            "d_m": "1",
            "k": k,
            "m": 21,
            "t": t,
            "witness": {"dx": dx, "dy": dy, "ring": {"t": t}},
        }, indent=2, sort_keys=True) + "\n"

    def test_laurent_family_json(self, capsys):
        code, out, _ = run(capsys, "laurent-family", "--k", "3", "--a-top", "2/5", "--json")
        assert code == 0
        assert out == json.dumps({
            "a": ["-250", "350", "150", "70", "10", "42/5", "2/5", "2/5"],
            "alpha": {"dx": "y", "dy": "x^(-7/5)", "ring": {"t": 5}},
            "alpha_annihilates_r": True,
            "beta": {
                "dx": "2/5*x*y^6 + 10*x^(3/5)*y^4 + 150*x^(1/5)*y^2 - 250*x^(-1/5)",
                "dy": "2/5*y^7 + 42/5*x^(-2/5)*y^5 + 70*x^(-4/5)*y^3 + 350*x^(-6/5)*y",
                "ring": {"t": 5},
            },
            "bracket_zero": True,
            "first_integral": "y^2 + 5*x^(-2/5)",
            "k": 3,
            "ratio_identity": True,
            "t": 5,
        }, indent=2, sort_keys=True) + "\n"


    def test_commutant_json(self, capsys):
        code, out, _ = run(capsys, "commutant", "--f", "x^5+2*x^2-1", "--max-deg-y", "7", "--json")
        assert code == 0
        assert out == json.dumps({
            "basis": [
                {
                    "dx": ("y^7 - x^6*y^5 - 4*x^3*y^5 + 6*x*y^5 + 1/3*x^12*y^3"
                           " + 8/3*x^9*y^3 - 4*x^7*y^3 + 16/3*x^6*y^3 - 16*x^4*y^3"
                           " + 12*x^2*y^3 - 1/27*x^18*y - 4/9*x^15*y + 2/3*x^13*y"
                           " - 16/9*x^12*y + 16/3*x^10*y - 64/27*x^9*y - 4*x^8*y"
                           " + 32/3*x^7*y - 16*x^5*y + 8*x^3*y"),
                    "dy": ("x^5*y^6 + 2*x^2*y^6 - y^6 - x^11*y^4 - 6*x^8*y^4 + 7*x^6*y^4"
                           " - 8*x^5*y^4 + 16*x^3*y^4 - 6*x*y^4 + 1/3*x^17*y^2"
                           " + 10/3*x^14*y^2 - 13/3*x^12*y^2 + 32/3*x^11*y^2"
                           " - 80/3*x^9*y^2 + 32/3*x^8*y^2 + 16*x^7*y^2 - 112/3*x^6*y^2"
                           " + 40*x^4*y^2 - 12*x^2*y^2 - 1/27*x^23 - 14/27*x^20"
                           " + 19/27*x^18 - 8/3*x^17 + 64/9*x^15 - 160/27*x^14 - 14/3*x^13"
                           " + 208/9*x^12 - 128/27*x^11 - 88/3*x^10 + 640/27*x^9 + 12*x^8"
                           " - 128/3*x^7 + 32*x^5 - 8*x^3"),
                    "ring": {"t": 1},
                },
                {
                    "dx": ("y^5 - 2/3*x^6*y^3 - 8/3*x^3*y^3 + 4*x*y^3 + 1/9*x^12*y"
                           " + 8/9*x^9*y - 4/3*x^7*y + 16/9*x^6*y - 16/3*x^4*y + 4*x^2*y"),
                    "dy": ("x^5*y^4 + 2*x^2*y^4 - y^4 - 2/3*x^11*y^2 - 4*x^8*y^2"
                           " + 14/3*x^6*y^2 - 16/3*x^5*y^2 + 32/3*x^3*y^2 - 4*x*y^2"
                           " + 1/9*x^17 + 10/9*x^14 - 13/9*x^12 + 32/9*x^11 - 80/9*x^9"
                           " + 32/9*x^8 + 16/3*x^7 - 112/9*x^6 + 40/3*x^4 - 4*x^2"),
                    "ring": {"t": 1},
                },
                {
                    "dx": "y^3 - 1/3*x^6*y - 4/3*x^3*y + 2*x*y",
                    "dy": ("x^5*y^2 + 2*x^2*y^2 - y^2 - 1/3*x^11 - 2*x^8 + 7/3*x^6"
                           " - 8/3*x^5 + 16/3*x^3 - 2*x"),
                    "ring": {"t": 1},
                },
                {
                    "dx": "y",
                    "dy": "x^5 + 2*x^2 - 1",
                    "ring": {"t": 1},
                },
            ],
            "dimension": 4,
            "f": "x^5 + 2*x^2 - 1",
            "max_deg_y": 7,
        }, indent=2, sort_keys=True) + "\n"

    def test_parity_json(self, capsys):
        code, out, _ = run(capsys, "parity", "--kind", "Io", "--m", "7", "--f", "x^3", "--json")
        assert code == 0
        assert out == json.dumps({
            "basis": [
                {
                    "c_1": "-1/8*x^12",
                    "c_3": "3/4*x^8",
                    "c_5": "-3/2*x^4",
                    "c_7": "1",
                    "d_0": "-1/8*x^15",
                    "d_2": "3/4*x^11",
                    "d_4": "-3/2*x^7",
                    "d_6": "x^3",
                },
                {
                    "c_1": "1/4*x^8",
                    "c_3": "-x^4",
                    "c_5": "1",
                    "c_7": "0",
                    "d_0": "1/4*x^11",
                    "d_2": "-x^7",
                    "d_4": "x^3",
                    "d_6": "0",
                },
                {
                    "c_1": "-1/2*x^4",
                    "c_3": "1",
                    "c_5": "0",
                    "c_7": "0",
                    "d_0": "-1/2*x^7",
                    "d_2": "x^3",
                    "d_4": "0",
                    "d_6": "0",
                },
                {
                    "c_1": "1",
                    "c_3": "0",
                    "c_5": "0",
                    "c_7": "0",
                    "d_0": "x^3",
                    "d_2": "0",
                    "d_4": "0",
                    "d_6": "0",
                },
            ],
            "dimension": 4,
            "equations": {
                "e_0": "f*c_1 = d_0",
                "e_1": "d_0' + 2*f*d_2 = f'*c_1",
                "e_2": "c_1' + 3*f*c_3 = d_2",
                "e_3": "d_2' + 4*f*d_4 = f'*c_3",
                "e_4": "c_3' + 5*f*c_5 = d_4",
                "e_5": "d_4' + 6*f*d_6 = f'*c_5",
                "e_6": "c_5' + 7*f*c_7 = d_6",
                "e_7": "d_6' = f'*c_7",
                "e_8": "c_7' = 0",
            },
            "f": "x^3",
            "forced": [],
            "kind": "Io",
            "m": 7,
        }, indent=2, sort_keys=True) + "\n"

    def test_parity_iio_json(self, capsys):
        """A II-half with two-digit unknown names and unknowns whose value is 0."""
        code, out, _ = run(capsys, "parity", "--kind", "IIo", "--m", "11", "--f", "x", "--json")
        assert code == 0
        assert out == json.dumps({
            "basis": [
                {"c_0": "-x^11", "c_10": "x", "c_2": "5*x^9", "c_4": "-10*x^7",
                 "c_6": "10*x^5", "c_8": "-5*x^3", "d_1": "-x^10", "d_11": "1",
                 "d_3": "5*x^8", "d_5": "-10*x^6", "d_7": "10*x^4", "d_9": "-5*x^2"},
                {"c_0": "x^9", "c_10": "0", "c_2": "-4*x^7", "c_4": "6*x^5",
                 "c_6": "-4*x^3", "c_8": "x", "d_1": "x^8", "d_11": "0",
                 "d_3": "-4*x^6", "d_5": "6*x^4", "d_7": "-4*x^2", "d_9": "1"},
                {"c_0": "-x^7", "c_10": "0", "c_2": "3*x^5", "c_4": "-3*x^3",
                 "c_6": "x", "c_8": "0", "d_1": "-x^6", "d_11": "0",
                 "d_3": "3*x^4", "d_5": "-3*x^2", "d_7": "1", "d_9": "0"},
                {"c_0": "x^5", "c_10": "0", "c_2": "-2*x^3", "c_4": "x",
                 "c_6": "0", "c_8": "0", "d_1": "x^4", "d_11": "0",
                 "d_3": "-2*x^2", "d_5": "1", "d_7": "0", "d_9": "0"},
                {"c_0": "-x^3", "c_10": "0", "c_2": "x", "c_4": "0",
                 "c_6": "0", "c_8": "0", "d_1": "-x^2", "d_11": "0",
                 "d_3": "1", "d_5": "0", "d_7": "0", "d_9": "0"},
                {"c_0": "x", "c_10": "0", "c_2": "0", "c_4": "0",
                 "c_6": "0", "c_8": "0", "d_1": "1", "d_11": "0",
                 "d_3": "0", "d_5": "0", "d_7": "0", "d_9": "0"},
            ],
            "dimension": 6,
            "equations": {
                "e_0": "f*d_1 = f'*c_0",
                "e_1": "c_0' + 2*f*c_2 = d_1",
                "e_10": "d_9' + 11*f*d_11 = f'*c_10",
                "e_11": "c_10' = d_11",
                "e_12": "d_11' = 0",
                "e_2": "d_1' + 3*f*d_3 = f'*c_2",
                "e_3": "c_2' + 4*f*c_4 = d_3",
                "e_4": "d_3' + 5*f*d_5 = f'*c_4",
                "e_5": "c_4' + 6*f*c_6 = d_5",
                "e_6": "d_5' + 7*f*d_7 = f'*c_6",
                "e_7": "c_6' + 8*f*c_8 = d_7",
                "e_8": "d_7' + 9*f*d_9 = f'*c_8",
                "e_9": "c_8' + 10*f*c_10 = d_9",
            },
            "f": "x",
            "forced": [],
            "kind": "IIo",
            "m": 11,
        }, indent=2, sort_keys=True) + "\n"

    def test_certify_json(self, capsys):
        code, out, _ = run(capsys, "certify", "--f", "x^5+2*x^2-1", "--max-deg-y", "7", "--json")
        assert code == 0
        assert out == json.dumps({
            "dimension": 4,
            "expected_dimension": 4,
            "f": "x^5 + 2*x^2 - 1",
            "max_deg_y": 7,
            "passed": True,
            "q": ["H^3", "H^2", "H", "1"],
        }, indent=2, sort_keys=True) + "\n"

    def test_lemmas_json(self, capsys):
        def check(name, dimension, detail):
            return {"detail": detail, "dimension": dimension, "name": name, "passed": True}

        multiples = "; all solutions are energy-polynomial multiples"
        code, out, _ = run(capsys, "lemmas", "--f", "x^2", "--m-max", "5", "--json")
        assert code == 0
        assert out == json.dumps({
            "checks": [
                check("IIe_2", 0, "c_2 forced to zero; dimension 0"),
                check("IIe_4", 0, "c_4 forced to zero; dimension 0"),
                check("IIo_3", 0, "d_3 forced to zero; dimension 0"),
                check("IIo_5", 0, "d_5 forced to zero; dimension 0"),
                check("Ie_2", 1, "d_2 forced to zero; dimension 1"),
                check("Ie_4", 2, "d_4 forced to zero; dimension 2"),
                check("Io_3", 2, "dimension 2, expected 2" + multiples),
                check("Io_5", 3, "dimension 3, expected 3" + multiples),
            ],
            "f": "x^2",
            "m_max": 5,
            "passed": True,
        }, indent=2, sort_keys=True) + "\n"

    def test_lemmas_json_m12(self, capsys):
        """The size of the benchmark's lemma job, recorded before the suite
        read each half off in one pass."""
        multiples = "; all solutions are energy-polynomial multiples"
        checks = [
            ("IIe_2", 0, "c_2 forced to zero; dimension 0"),
            ("IIe_4", 0, "c_4 forced to zero; dimension 0"),
            ("IIe_6", 0, "c_6 forced to zero; dimension 0"),
            ("IIe_8", 0, "c_8 forced to zero; dimension 0"),
            ("IIe_10", 0, "c_10 forced to zero; dimension 0"),
            ("IIe_12", 0, "c_12 forced to zero; dimension 0"),
            ("IIo_3", 0, "d_3 forced to zero; dimension 0"),
            ("IIo_5", 0, "d_5 forced to zero; dimension 0"),
            ("IIo_7", 0, "d_7 forced to zero; dimension 0"),
            ("IIo_9", 0, "d_9 forced to zero; dimension 0"),
            ("IIo_11", 0, "d_11 forced to zero; dimension 0"),
            ("Ie_2", 1, "d_2 forced to zero; dimension 1"),
            ("Ie_4", 2, "d_4 forced to zero; dimension 2"),
            ("Ie_6", 3, "d_6 forced to zero; dimension 3"),
            ("Ie_8", 4, "d_8 forced to zero; dimension 4"),
            ("Ie_10", 5, "d_10 forced to zero; dimension 5"),
            ("Ie_12", 6, "d_12 forced to zero; dimension 6"),
            ("Io_3", 2, "dimension 2, expected 2" + multiples),
            ("Io_5", 3, "dimension 3, expected 3" + multiples),
            ("Io_7", 4, "dimension 4, expected 4" + multiples),
            ("Io_9", 5, "dimension 5, expected 5" + multiples),
            ("Io_11", 6, "dimension 6, expected 6" + multiples),
        ]
        code, out, _ = run(capsys, "lemmas", "--f", "x^3 - x", "--m-max", "12", "--json")
        assert code == 0
        assert out == json.dumps({
            "checks": [{"detail": detail, "dimension": dimension, "name": name, "passed": True}
                       for name, dimension, detail in checks],
            "f": "x^3 - x",
            "m_max": 12,
            "passed": True,
        }, indent=2, sort_keys=True) + "\n"

    def test_linearize_json(self, capsys):
        code, out, _ = run(capsys, "linearize", "--dx", "x+y", "--dy", "2*x-y+1", "--json")
        assert code == 0
        assert out == json.dumps({
            "case": "case3",
            "change_of_coords": "u = x - (-1/3), v = y - (1/3)",
            "d": {
                "dx": "y + x",
                "dy": "-y + 2*x + 1",
                "ring": {"t": 1},
            },
            "delta": {
                "dx": "x + 1/3",
                "dy": "y - 1/3",
                "ring": {"t": 1},
            },
        }, indent=2, sort_keys=True) + "\n"

    def test_h_decompose_json(self, capsys):
        code, out, _ = run(
            capsys,
            "h-decompose",
            "--f", "x^2",
            "--gamma-dx", "y^3 - 2/3*x^3*y",
            "--gamma-dy", "x^2*y^2 - 2/3*x^5",
            "--json",
        )
        assert code == 0
        assert out == json.dumps({
            "H": "y^2 - 2/3*x^3",
            "f": "x^2",
            "gamma": {
                "dx": "y^3 - 2/3*x^3*y",
                "dy": "x^2*y^2 - 2/3*x^5",
                "ring": {"t": 1},
            },
            "q": "H",
            "q_coeffs": ["0", "1"],
        }, indent=2, sort_keys=True) + "\n"

    def test_flow_check_json(self, capsys):
        # the README example; every float is the IEEE result of a fixed
        # sequence of operations, so its digits are pinned exactly
        code, out, _ = run(
            capsys,
            "flow-check",
            "--dx", "1 + x^2", "--dy=-2*x*y",
            "--gx", "0", "--gy", "y",
            "--x0", "0", "--y0", "1",
            "--t-end", "1.0", "--steps", "10000",
            "--json",
        )
        assert code == 0
        assert out == (
            '{\n'
            '  "max_defect": 1.112155922911029e-10,\n'
            '  "passed": true,\n'
            '  "steps": 10000,\n'
            '  "tolerance": 1e-06,\n'
            '  "trajectory_error": null\n'
            '}\n'
        )


class TestHumanOutput:
    """Exact human-readable stdout of subcommands."""

    def test_pm_text(self, capsys):
        code, out, _ = run(capsys, "pm", "--m", "3")
        assert code == 0
        assert out == (
            "P_3 = 2*X^2 + 4*X - 6\n"
            "roots: {-3, 1}\n"
            "matches expected root set: yes\n"
        )

    def test_parity_text(self, capsys):
        code, out, _ = run(capsys, "parity", "--kind", "Io", "--m", "3", "--f", "x^2")
        assert code == 0
        assert out == (
            "(Io)_3 for f = x^2\n"
            "  e_4: c_3' = 0\n"
            "  e_3: d_2' = f'*c_3\n"
            "  e_2: c_1' + 3*f*c_3 = d_2\n"
            "  e_1: d_0' + 2*f*d_2 = f'*c_1\n"
            "  e_0: f*c_1 = d_0\n"
            "dimension = 2\n"
            "forced zero: none\n"
            "basis[0]: c_1 = -2/3*x^3, c_3 = 1, d_0 = -2/3*x^5, d_2 = x^2\n"
            "basis[1]: c_1 = 1, c_3 = 0, d_0 = x^2, d_2 = 0\n"
        )

    def test_parity_iio_text(self, capsys):
        """Unknown names in lexicographic order (c_0, c_10, c_2, ...), zeros included."""
        code, out, _ = run(capsys, "parity", "--kind", "IIo", "--m", "11", "--f", "x")
        assert code == 0
        assert out == (
            "(IIo)_11 for f = x\n"
            "  e_12: d_11' = 0\n"
            "  e_11: c_10' = d_11\n"
            "  e_10: d_9' + 11*f*d_11 = f'*c_10\n"
            "  e_9: c_8' + 10*f*c_10 = d_9\n"
            "  e_8: d_7' + 9*f*d_9 = f'*c_8\n"
            "  e_7: c_6' + 8*f*c_8 = d_7\n"
            "  e_6: d_5' + 7*f*d_7 = f'*c_6\n"
            "  e_5: c_4' + 6*f*c_6 = d_5\n"
            "  e_4: d_3' + 5*f*d_5 = f'*c_4\n"
            "  e_3: c_2' + 4*f*c_4 = d_3\n"
            "  e_2: d_1' + 3*f*d_3 = f'*c_2\n"
            "  e_1: c_0' + 2*f*c_2 = d_1\n"
            "  e_0: f*d_1 = f'*c_0\n"
            "dimension = 6\n"
            "forced zero: none\n"
            "basis[0]: c_0 = -x^11, c_10 = x, c_2 = 5*x^9, c_4 = -10*x^7, c_6 = 10*x^5, c_8 = -5*x^3, "
            "d_1 = -x^10, d_11 = 1, d_3 = 5*x^8, d_5 = -10*x^6, d_7 = 10*x^4, d_9 = -5*x^2\n"
            "basis[1]: c_0 = x^9, c_10 = 0, c_2 = -4*x^7, c_4 = 6*x^5, c_6 = -4*x^3, c_8 = x, "
            "d_1 = x^8, d_11 = 0, d_3 = -4*x^6, d_5 = 6*x^4, d_7 = -4*x^2, d_9 = 1\n"
            "basis[2]: c_0 = -x^7, c_10 = 0, c_2 = 3*x^5, c_4 = -3*x^3, c_6 = x, c_8 = 0, "
            "d_1 = -x^6, d_11 = 0, d_3 = 3*x^4, d_5 = -3*x^2, d_7 = 1, d_9 = 0\n"
            "basis[3]: c_0 = x^5, c_10 = 0, c_2 = -2*x^3, c_4 = x, c_6 = 0, c_8 = 0, "
            "d_1 = x^4, d_11 = 0, d_3 = -2*x^2, d_5 = 1, d_7 = 0, d_9 = 0\n"
            "basis[4]: c_0 = -x^3, c_10 = 0, c_2 = x, c_4 = 0, c_6 = 0, c_8 = 0, "
            "d_1 = -x^2, d_11 = 0, d_3 = 1, d_5 = 0, d_7 = 0, d_9 = 0\n"
            "basis[5]: c_0 = x, c_10 = 0, c_2 = 0, c_4 = 0, c_6 = 0, c_8 = 0, "
            "d_1 = 1, d_11 = 0, d_3 = 0, d_5 = 0, d_7 = 0, d_9 = 0\n"
        )

    def test_h_decompose_text(self, capsys):
        code, out, _ = run(
            capsys,
            "h-decompose",
            "--f", "x^2",
            "--gamma-dx", "y^3 - 2/3*x^3*y",
            "--gamma-dy", "x^2*y^2 - 2/3*x^5",
        )
        assert code == 0
        assert out == (
            "f = x^2\n"
            "H = y^2 - 2/3*x^3\n"
            "gamma = (x -> y^3 - 2/3*x^3*y, y -> x^2*y^2 - 2/3*x^5)\n"
            "q = H\n"
            "gamma = q(H) * delta_f\n"
        )

    def test_pm_witness_text_k1(self, capsys):
        code, out, _ = run(capsys, "pm-witness", "--m", "3", "--k", "1")
        assert code == 0
        assert out == (
            "witness for m = 3, k = 1 on t = 1\n"
            "witness = (x -> x*y^2 - x^(-1), y -> y^3 + 3*x^(-2)*y)\n"
            "commutes with alpha = (y, x^(-3)): yes\n"
            "d_3 = 1\n"
        )

    def test_linearize_text(self, capsys):
        code, out, _ = run(capsys, "linearize", "--dx", "y", "--dy", "x")
        assert code == 0
        assert out == (
            "d = (x -> y, y -> x)\n"
            "case: case2\n"
            "delta = (x -> x, y -> y)\n"
        )

    def test_commutant_text(self, capsys):
        code, out, _ = run(capsys, "commutant", "--f", "6*x^2 + 5", "--max-deg-y", "3")
        assert code == 0
        assert out == (
            "f = 6*x^2 + 5\n"
            "max y-degree = 3\n"
            "dimension = 2\n"
            "basis[0] = (x -> y^3 - 4*x^3*y - 10*x*y,"
            " y -> 6*x^2*y^2 + 5*y^2 - 24*x^5 - 80*x^3 - 50*x)\n"
            "basis[1] = (x -> y, y -> 6*x^2 + 5)\n"
        )

    def test_certify_text(self, capsys):
        code, out, _ = run(capsys, "certify", "--f", "6*x^2 + 5", "--max-deg-y", "3")
        assert code == 0
        assert out == (
            "f = 6*x^2 + 5, max y-degree = 3\n"
            "dimension = 2 (expected 2)\n"
            "q[0] = H\n"
            "q[1] = 1\n"
            "certificate: PASS\n"
        )

    def test_lemmas_text(self, capsys):
        multiples = "; all solutions are energy-polynomial multiples"
        code, out, _ = run(capsys, "lemmas", "--f", "x^2", "--m-max", "5")
        assert code == 0
        assert out == (
            "parity-lemma suite for f = x^2, m <= 5\n"
            "PASS  IIe_2: c_2 forced to zero; dimension 0\n"
            "PASS  IIe_4: c_4 forced to zero; dimension 0\n"
            "PASS  IIo_3: d_3 forced to zero; dimension 0\n"
            "PASS  IIo_5: d_5 forced to zero; dimension 0\n"
            "PASS  Ie_2: d_2 forced to zero; dimension 1\n"
            "PASS  Ie_4: d_4 forced to zero; dimension 2\n"
            f"PASS  Io_3: dimension 2, expected 2{multiples}\n"
            f"PASS  Io_5: dimension 3, expected 3{multiples}\n"
            "suite: PASS\n"
        )

    def test_laurent_family_text(self, capsys):
        code, out, _ = run(capsys, "laurent-family", "--k", "2")
        assert code == 0
        assert out == (
            "k = 2, t = 3\n"
            "a = (-27, 45, 18, 10, 1, 1)\n"
            "alpha = (x -> y, y -> x^(-5/3))\n"
            "beta = (x -> x*y^4 + 18*x^(1/3)*y^2 - 27*x^(-1/3),"
            " y -> y^5 + 10*x^(-2/3)*y^3 + 45*x^(-4/3)*y)\n"
            "r = y^2 + 3*x^(-2/3)\n"
            "bracket(alpha, beta) = 0: yes\n"
            "alpha(r) = 0: yes\n"
            "ratio identity: holds\n"
        )


def _readme_commands() -> list[list[str]]:
    """The words of each command of the sh block under "## Command line"
    in README.md, backslash continuations joined and comments dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [words for words in (shlex.split(line, comments=True) for line in lines) if words]


README_COMMANDS = _readme_commands()


def test_readme_lists_every_example():
    assert len(README_COMMANDS) == 10


@pytest.mark.parametrize("words", README_COMMANDS, ids=lambda words: words[1])
def test_readme_example_runs(capsys, words):
    program, *argv = words
    assert program == "newtcomm"
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    json.loads(out)


def test_readme_layout_names_every_module():
    """The Layout block of README.md names each module of src/newtcomm but
    __init__.py, and each oracle module of tests, and no other file."""
    root = Path(__file__).resolve().parent.parent
    block = (root / "README.md").read_text().split("\n## Layout\n", 1)[1].split("```")[1]
    listed: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.endswith("/"):
            names = listed.setdefault(line, set())
        elif line.startswith("  ") and line[2] != " ":
            names.add(line.split()[0])
    assert listed == {
        "src/newtcomm/": {p.name for p in (root / "src" / "newtcomm").glob("*.py")} - {"__init__.py"},
        "tests/": {p.name for p in (root / "tests").glob("*_oracle.py")},
    }


def _pieces_at_X_1(monkeypatch):
    """Make the certificate read the weight pieces at X = 1, as if deg f were
    1, so that the piece (m, a) = (1, 1) closes and the certificate fails."""
    reason = commutant._graded_reason
    monkeypatch.setattr(commutant, "_graded_reason", lambda X, M, lower: reason(1, M, lower))


class TestFailingCertificate:
    """A failing certificate is reported, not a traceback: the reason names
    the weight piece and the X it was read at."""

    def test_human(self, capsys, monkeypatch):
        _pieces_at_X_1(monkeypatch)
        code, out, _ = run(capsys, "certify", "--f", "x^2", "--max-deg-y", "5")
        assert code == 1
        assert out.splitlines()[2:] == [
            "q[0] = H^2",
            "q[1] = H",
            "q[2] = 1",
            "certificate: FAIL",
            "reason: piece (m, a) = (1, 1) at X = 1 has nullity 1, not 0",
        ]

    def test_json(self, capsys, monkeypatch):
        _pieces_at_X_1(monkeypatch)
        code, out, _ = run(capsys, "certify", "--f", "x^2", "--max-deg-y", "5", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["q"] == ["H^2", "H", "1"]
        assert payload["passed"] is False
        assert payload["reason"] == "piece (m, a) = (1, 1) at X = 1 has nullity 1, not 0"


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["criteria"]) == 7


def test_cli_import_leaves_selftest_unloaded():
    """Only the selftest subcommand imports selftest (and parses its forces),
    so every other subcommand starts without it."""
    env = {**os.environ, "PYTHONPATH": str(Path(newtcomm.__file__).resolve().parent.parent)}
    probe = "import sys, newtcomm.cli; print(sorted(m for m in sys.modules if 'newtcomm' in m))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert "'newtcomm.cli'" in out and "'newtcomm.selftest'" not in out, out
