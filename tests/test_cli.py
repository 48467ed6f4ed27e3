import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from symfreq.cli import EXIT_OK, EXIT_UNSUPPORTED, EXIT_USAGE, EXIT_VERIFY_FAILED, decimal_nearest, decimal_up
from symfreq.linalg import LinearForm, U_SPACE, form_to_json
from symfreq.relations import phi_forward, u_basis


class TestFreq:
    def test_h41_envelope(self, run_cli_json):
        code, doc = run_cli_json("freq", "--m", "4", "--kind", "H", "--index", "1", "--prec", "256")
        assert code == EXIT_OK
        assert doc["command"] == "freq" and doc["m"] == 4 and doc["precision"] == 256
        val = doc["payload"]["values"][0]["value"]
        assert val["bits"] == 256
        assert abs(float(mpmath.mpf(val["mid"])) - 0.5) < 1e-15
        assert mpmath.mpf(val["rad"]) <= mpmath.ldexp(1, -200)

    def test_u1_exact_zero(self, run_cli_json):
        code, doc = run_cli_json("freq", "--m", "27", "--kind", "U", "--index", "1")
        assert code == EXIT_OK
        val = doc["payload"]["values"][0]["value"]
        assert mpmath.mpf(val["mid"]) == 0 and mpmath.mpf(val["rad"]) == 0

    def test_s_value_m6(self, run_cli_json):
        code, doc = run_cli_json("freq", "--m", "6", "--kind", "S", "--index", "1")
        mid = mpmath.mpf(doc["payload"]["values"][0]["value"]["mid"])
        assert abs(mid - mpmath.log(1.5) / mpmath.log(2)) < 1e-12

    def test_full_list_when_index_omitted(self, run_cli_json):
        code, doc = run_cli_json("freq", "--m", "12", "--kind", "U", "--prec", "128")
        assert code == EXIT_OK
        assert [v["index"] for v in doc["payload"]["values"]] == list(range(1, 7))

    @staticmethod
    def reference(kind, m, i):
        # mpmath at the working precision of the caller, from the closed forms
        def s(k):
            return mpmath.sin(mpmath.pi * k / m)

        if kind == "H":
            lg = mpmath.loggamma
            v = lg(mpmath.mpf(i) / m) + lg(mpmath.mpf(i + 2) / m) - 2 * lg(mpmath.mpf(i + 1) / m)
        elif kind == "S":
            half = m // 2
            if i == half - 1:
                v = mpmath.log(s(half) / s(half - 1))
            else:
                v = mpmath.log(s(i + 1) ** 2 / (s(i) * s(i + 2)))
        else:
            v = mpmath.log(s(i) / s(1))
        return v / mpmath.log(2)

    def test_printed_ball_contains_reference(self, run_cli_json):
        # the printed mid is a decimal rounding of the ball's midpoint; the
        # printed rad must cover that rounding as well as the ball's radius
        cases = (("H", 7, 3), ("H", 200, 137), ("S", 30, 4), ("S", 41, 19), ("U", 61, 17), ("U", 9, 2))
        for kind, m, i in cases:
            code, doc = run_cli_json(
                "freq", "--m", str(m), "--kind", kind, "--index", str(i), "--prec", "1024"
            )
            assert code == EXIT_OK
            ball = doc["payload"]["values"][0]["value"]
            with mpmath.workprec(2048):
                ref = self.reference(kind, m, i)
                mid, rad = mpmath.mpf(ball["mid"]), mpmath.mpf(ball["rad"])
                assert abs(ref - mid) <= rad, (kind, m, i)
                assert rad <= mpmath.ldexp(1, -1000) * max(1, abs(ref)), (kind, m, i)

    def test_decimal_up(self):
        assert decimal_up(Fraction(0), 4) == "0.0"
        assert decimal_up(Fraction(1), 4) == "1.000e0"
        assert decimal_up(Fraction(1, 3), 4) == "3.334e-1"
        assert decimal_up(Fraction(99995, 10000), 4) == "1.000e1"
        assert decimal_up(Fraction(2) ** -3500, 4) == "2.484e-1054"

    def test_decimal_nearest(self):
        # to nearest, in the layout of mpmath.nstr
        assert decimal_nearest(Fraction(0), 5) == "0.0"
        assert decimal_nearest(Fraction(1, 2), 5) == "0.5"
        assert decimal_nearest(Fraction(-2, 3), 5) == "-0.66667"
        assert decimal_nearest(Fraction(123456), 5) == "1.2346e+5"
        assert decimal_nearest(Fraction(99999, 10**9), 4) == "0.0001"
        assert decimal_nearest(Fraction(1, 3 * 10**6), 5) == "3.3333e-7"
        for q in (Fraction(-2, 3), Fraction(123456), Fraction(1, 7 * 10**40), Fraction(10**30, 7)):
            with mpmath.workprec(400):
                assert decimal_nearest(q, 21) == mpmath.nstr(mpmath.mpf(q.numerator) / q.denominator, 21)

    def test_index_out_of_range(self, run_cli, capsys):
        code, _ = run_cli("freq", "--m", "12", "--kind", "S", "--index", "6")
        assert code == EXIT_USAGE
        assert "1..5" in capsys.readouterr().err
        # moduli below the least of each kind have no indices at all
        for m, kind in (("0", "H"), ("-3", "U"), ("3", "S")):
            code, out = run_cli("freq", "--m", m, "--kind", kind)
            assert code == EXIT_USAGE and out == "", (m, kind)


RUN_WITHOUT_MPMATH = """
import io, json, sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from symfreq.cli import main

def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), stream=buf)
    assert code == 0, (argv, code)
    return json.loads(buf.getvalue())

for kind in "HSU":
    run("freq", "--m", "12", "--kind", kind, "--prec", "128")
with open(sys.argv[1], "w") as fh:
    json.dump(run("basis", "--m", "27")["payload"]["relations"], fh)
run("verify", "--m", "27", "--relations", sys.argv[1], "--mode", "both")
run("discover", "--m", "12")
run("express", "--m", "27")
run("scan", "--from", "4", "--to", "40")
"""


def test_every_command_runs_without_mpmath(tmp_path):
    # numpy is the only runtime dependency; mpmath is the tests' oracle
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_MPMATH, str(tmp_path / "basis27.json")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


class TestBasis:
    def test_m27_u(self, run_cli_json):
        code, doc = run_cli_json("basis", "--m", "27", "--space", "U")
        assert code == EXIT_OK
        rels = doc["payload"]["relations"]
        assert doc["payload"]["count"] == 3
        assert rels[0]["coeffs"] == {
            "2": "1", "3": "1", "6": "-1", "7": "1", "8": "-1", "10": "-1", "11": "1"
        }
        assert rels[0]["provenance"] == "constructed"

    def test_m35_u_verbatim(self, run_cli_json):
        code, doc = run_cli_json("basis", "--m", "35", "--space", "U")
        got = [r["coeffs"] for r in doc["payload"]["relations"]]
        expected = [form_to_json(f)["coeffs"] for f in u_basis(35).forms]
        assert got == expected

    def test_m27_s_space(self, run_cli_json):
        code, doc = run_cli_json("basis", "--m", "27", "--space", "S")
        got = [r["coeffs"] for r in doc["payload"]["relations"]]
        expected = [form_to_json(phi_forward(f))["coeffs"] for f in u_basis(27).forms]
        assert got == expected

    def test_unsupported_exit_code(self, run_cli, capsys):
        code, _ = run_cli("basis", "--m", "12", "--space", "U")
        assert code == EXIT_UNSUPPORTED
        assert "discover" in capsys.readouterr().err


class TestVerify:
    def test_pass_and_fail(self, run_cli, run_cli_json, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps([form_to_json(f) for f in u_basis(27).forms]))
        code, doc = run_cli_json("verify", "--m", "27", "--relations", str(good))
        assert code == EXIT_OK
        for rel in doc["payload"]["relations"]:
            assert rel["exact"]["pass"] and rel["numeric"]["pass"]
            assert rel["exact"]["exponent_lcm"] == 1

        bad = tmp_path / "bad.json"
        obj = form_to_json(u_basis(27).forms[0])
        obj["coeffs"]["2"] = "2"
        bad.write_text(json.dumps(obj))
        code, doc = run_cli_json("verify", "--m", "27", "--relations", str(bad))
        assert code == EXIT_VERIFY_FAILED
        rel = doc["payload"]["relations"][0]
        assert not rel["exact"]["pass"] and not rel["numeric"]["pass"]

    def test_certificate_in_the_span_at_any_size(self, run_cli_json, tmp_path):
        # a true claim with gcd-1 exponents near 10^9 at m = 27 lies in the
        # identity span, so it is proven at once
        forms = u_basis(27).forms
        vec = [10**9 * c + d for c, d in zip(forms[0].coeffs, forms[1].coeffs)]
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(form_to_json(LinearForm(U_SPACE, 27, tuple(vec)))))
        code, doc = run_cli_json("verify", "--m", "27", "--relations", str(f), "--mode", "exact")
        assert code == EXIT_OK
        assert doc["payload"]["relations"][0]["exact"]["pass"]

    def test_s_space_converted(self, run_cli_json, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(form_to_json(phi_forward(u_basis(27).forms[0]))))
        code, doc = run_cli_json("verify", "--m", "27", "--relations", str(f), "--mode", "exact")
        assert code == EXIT_OK
        assert doc["payload"]["relations"][0]["exact"]["pass"]

    def test_zero_form_passes(self, run_cli_json, tmp_path):
        f = tmp_path / "zero.json"
        f.write_text(json.dumps({"m": 27, "space": "U", "coeffs": {}}))
        code, doc = run_cli_json("verify", "--m", "27", "--relations", str(f))
        assert code == EXIT_OK

    def test_malformed_input(self, run_cli, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        code, _ = run_cli("verify", "--m", "27", "--relations", str(f))
        assert code == EXIT_USAGE
        for doc in (
            {"m": 27, "space": "U"},
            {"m": 27, "space": "U", "coeffs": {"2": "1/0"}},
            {"m": 27, "space": "U", "coeffs": None},
            {"m": 27, "space": "U", "coeffs": [["2", "1"]]},
            {"m": 27.9, "space": "U", "coeffs": {"2": "1"}},
            {"m": True, "space": "U", "coeffs": {"2": "1"}},
            {"m": "27", "space": "U", "coeffs": {"2": "1"}},
        ):
            f.write_text(json.dumps(doc))
            code, _ = run_cli("verify", "--m", "27", "--relations", str(f))
            assert code == EXIT_USAGE, doc

    def test_duplicate_indices_refused(self, run_cli, tmp_path, capsys):
        # "2" and "02" both name U_2: the file is refused as input (exit 2),
        # not read as U_2 alone and refused as a relation (exit 1)
        f = tmp_path / "dup.json"
        f.write_text(json.dumps({"m": 27, "space": "U", "coeffs": {"2": "1", "02": "1"}}))
        code, out = run_cli("verify", "--m", "27", "--relations", str(f))
        assert code == EXIT_USAGE and out == ""
        assert "index 2 appears twice" in capsys.readouterr().err
        f.write_text(json.dumps({"m": 27, "space": "U", "coeffs": {"2": "1"}}))
        code, _ = run_cli("verify", "--m", "27", "--relations", str(f))
        assert code == EXIT_VERIFY_FAILED

    def test_index_keys_must_be_ascii_digits(self, run_cli, tmp_path, capsys):
        # int() would read these as U_10, U_3, U_4 and U_6: each key is
        # refused as input (exit 2), alone and together
        f = tmp_path / "keys.json"
        keys = {"1_0": "1", "+3": "2", "\uff14": "5", " 6": "1"}
        for coeffs in [keys] + [{k: v} for k, v in keys.items()]:
            f.write_text(json.dumps({"m": 27, "space": "U", "coeffs": coeffs}))
            code, out = run_cli("verify", "--m", "27", "--relations", str(f))
            assert code == EXIT_USAGE and out == "", coeffs
            assert "not written in ASCII digits" in capsys.readouterr().err
        f.write_text(json.dumps({"m": 27, "space": "U", "coeffs": {"10": "1", "3": "2", "4": "5", "6": "1"}}))
        code, _ = run_cli("verify", "--m", "27", "--relations", str(f))
        assert code == EXIT_VERIFY_FAILED

    def test_modulus_mismatch(self, run_cli, tmp_path):
        f = tmp_path / "wrong.json"
        f.write_text(json.dumps(form_to_json(u_basis(27).forms[0])))
        code, _ = run_cli("verify", "--m", "25", "--relations", str(f))
        assert code == EXIT_USAGE


class TestExpressAndScan:
    def test_express_m32_text(self, run_cli):
        code, out = run_cli("express", "--m", "32", "--format", "text")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[3] == "S4 = S8 + 2*S9"
        assert lines[6] == "S7 = S14 + 2*S15"

    def test_express_json_payload(self, run_cli_json):
        code, doc = run_cli_json("express", "--m", "27")
        assert doc["payload"]["t"] == 9
        assert doc["payload"]["trailing_basis_ok"] is True
        assert doc["payload"]["rows"][2]["coeffs"] == {
            "4": "-1", "9": "1", "10": "2", "11": "3", "12": "2"
        }

    def test_scan_range(self, run_cli_json):
        code, doc = run_cli_json("scan", "--from", "4", "--to", "12")
        assert code == EXIT_OK
        rows = doc["payload"]["rows"]
        assert [r["m"] for r in rows] == list(range(4, 13))
        for r in rows:
            assert r["trailing_basis_ok"] and r["method"] == "characters"
            if r["formula_applies"]:
                assert r["match"]

    def test_scan_63(self, run_cli_json):
        # 63 = 9 * 7 has no constructed basis; the character table answers
        code, doc = run_cli_json("scan", "--from", "63", "--to", "63")
        assert code == EXIT_OK
        (row,) = doc["payload"]["rows"]
        assert row["t"] == 19 and row["match"] and row["method"] == "characters"

    def test_scan_bad_range(self, run_cli):
        code, _ = run_cli("scan", "--from", "3", "--to", "10")
        assert code == EXIT_USAGE

    def test_no_precision_where_no_balls(self, run_cli, run_cli_json):
        # basis, express and scan are exact; they take no --prec and report none
        for argv in (("basis", "--m", "27"), ("express", "--m", "27"), ("scan", "--from", "4", "--to", "6")):
            code, doc = run_cli_json(*argv)
            assert code == EXIT_OK and "precision" not in doc
        with pytest.raises(SystemExit) as exc:
            run_cli("scan", "--from", "4", "--to", "6", "--prec", "256")
        assert exc.value.code == EXIT_USAGE


class TestDiscover:
    def test_m9_zero_relations(self, run_cli_json):
        code, doc = run_cli_json("discover", "--m", "9")
        assert code == EXIT_OK
        assert doc["payload"]["count"] == 0
        assert doc["payload"]["empirical_t"] == 3

    def test_bound_below_one_refused(self, run_cli, run_cli_json, capsys):
        # a bound below 1 would skip every candidate and report t = m' - 1
        for bound in ("0", "-5"):
            code, out = run_cli("discover", "--m", "12", "--bound", bound)
            assert code == EXIT_USAGE and out == "", bound
            assert "bound" in capsys.readouterr().err
        code, doc = run_cli_json("discover", "--m", "12", "--bound", "2")
        assert code == EXIT_OK and doc["payload"]["empirical_t"] == 3

    def test_m16_three_relations(self, run_cli_json):
        code, doc = run_cli_json("discover", "--m", "16", "--prec", "256")
        assert doc["payload"]["count"] == 3
        assert all(r["provenance"] == "discovered" for r in doc["payload"]["relations"])


class TestFormats:
    def test_csv_freq(self, run_cli):
        code, out = run_cli("freq", "--m", "4", "--kind", "H", "--index", "1", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "kind,index,mid,rad"
        assert lines[1].startswith("H,1,0.5")

    def test_csv_scan(self, run_cli):
        code, out = run_cli("scan", "--from", "4", "--to", "6", "--format", "csv")
        assert out.splitlines()[0].startswith("m,case,t,")

    def test_text_basis(self, run_cli):
        code, out = run_cli("basis", "--m", "16", "--space", "U", "--format", "text")
        assert "3*Y2 + Y3 - Y4 + Y5 - 2*Y7" in out

    def test_deterministic_output(self, run_cli):
        a = run_cli("basis", "--m", "35", "--space", "U")
        b = run_cli("basis", "--m", "35", "--space", "U")
        assert a == b
        a = run_cli("express", "--m", "27")
        b = run_cli("express", "--m", "27")
        assert a == b
