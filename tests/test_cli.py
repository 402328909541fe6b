"""Command line interface: exit codes, output shapes, determinism."""

import json

import pytest

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
        assert "h-decompose" in err or err  # diagnostic goes to stderr

    def test_usage_failure_is_two(self, capsys):
        assert run(capsys, "pm", "--m", "4")[0] == 2
        assert run(capsys, "lemmas", "--f", "x", "--m-max", "4")[0] == 2
        assert run(capsys, "commutant", "--f", "2*x +", "--max-deg-y", "1")[0] == 2
        # the solver has no x-degree cap to set
        assert run(capsys, "certify", "--f", "x^2", "--max-deg-y", "3",
                   "--x-cap", "9")[0] == 2

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
    """Exact --json bytes of the Laurent subcommands, recorded before the
    Laurent rings were folded into the polynomial kernel."""

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


class TestHumanOutput:
    def test_pm_text(self, capsys):
        code, out, _ = run(capsys, "pm", "--m", "3")
        assert code == 0
        assert "P_3 = 2*X^2 + 4*X - 6" in out
        assert "roots" in out

    def test_parity_text(self, capsys):
        code, out, _ = run(capsys, "parity", "--kind", "Io", "--m", "3", "--f", "x^2")
        assert code == 0
        assert "c_1' + 3*f*c_3 = d_2" in out

    def test_h_decompose_text(self, capsys):
        code, out, _ = run(
            capsys,
            "h-decompose",
            "--f", "x^2",
            "--gamma-dx", "y^3 - 2/3*x^3*y",
            "--gamma-dy", "x^2*y^2 - 2/3*x^5",
        )
        assert code == 0
        assert "H" in out

    def test_pm_witness_text_k1(self, capsys):
        code, out, _ = run(capsys, "pm-witness", "--m", "3", "--k", "1")
        assert code == 0
        assert "commutes with alpha = (y, x^(-3)): yes" in out

    def test_linearize_text(self, capsys):
        code, out, _ = run(capsys, "linearize", "--dx", "y", "--dy", "x")
        assert code == 0
        assert "case2" in out


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["criteria"]) == 7
