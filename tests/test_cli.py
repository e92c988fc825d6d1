import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsigns
from qsigns import coeffio
from qsigns.arith import DirichletCharacter
from qsigns.cli import main
from qsigns.forms import NAMED, delta_form, g_form, ramanujan_delta, x0_11_form


def run(*argv):
    return main(list(argv))


def read_lines(path):
    return path.read_text().splitlines()


class TestCoefficientFile:
    def test_round_trip_builtins_at_1000(self):
        d = delta_form(1000)
        g = g_form(1000)
        D = ramanujan_delta(1000)
        G = x0_11_form(1000)
        files = [
            coeffio.from_table("delta", 13, 4, d.character, d.coeffs, 1000, 1),
            coeffio.from_table("g", 3, 44, g.character, g.coeffs, 1000, 1),
            coeffio.from_table("Delta", 24, 1, D.character, D.coeffs, 1000, 1),
            coeffio.from_table("G11", 4, 11, G.character, G.coeffs, 1000, 1),
        ]
        for cf in files:
            text = cf.serialize()
            again = coeffio.parse(text)
            assert again.serialize() == text, cf.form_id
            assert again.pairs == cf.pairs

    def test_lift_header_round_trip(self):
        cf = coeffio.CoefficientFile(form_id="lift_t3(g)", weight_num=4,
                                     level=22, character="trivial:22",
                                     prec=9, offset=1, t=3,
                                     pairs=[(1, 1), (4, -2)])
        again = coeffio.parse(cf.serialize())
        assert again.t == 3 and again.serialize() == cf.serialize()

    def test_character_string_round_trip(self):
        for chi in (DirichletCharacter.trivial(44),
                    DirichletCharacter(top=-3),
                    DirichletCharacter(top=16, modulus=4)):
            text = coeffio.format_character(chi)
            back = coeffio.parse_character(text)
            for a in range(-10, 10):
                assert back(a) == chi(a)

    def test_parse_rejects_garbage(self):
        good = coeffio.from_table("x", 13, 4, DirichletCharacter.trivial(4),
                                  [0, 1, 0, 0, -56], 4, 1).serialize()
        coeffio.parse(good)
        with pytest.raises(ValueError):
            coeffio.parse(good.replace("coeffs v1", "coeffs v9"))
        with pytest.raises(ValueError):
            coeffio.parse(good.replace("# level: 4\n", ""))
        with pytest.raises(ValueError):
            coeffio.parse(good.replace("# weight: 13/2", "# weight: 6.5"))
        with pytest.raises(ValueError):
            coeffio.parse(good + "3\t7\n")      # out of order
        with pytest.raises(ValueError):
            coeffio.parse(good + "9\t1\n")      # beyond prec
        with pytest.raises(ValueError):
            coeffio.parse(good.replace("1\t1", "1\t0"))
        for first in ("-3\t5", "0\t5"):     # below the offset
            with pytest.raises(ValueError):
                coeffio.parse(good.replace("1\t1", first))
        with pytest.raises(ValueError):
            coeffio.parse(good.replace("# offset: 1", "# offset: -3")
                          .replace("1\t1", "-3\t7"))

    def test_form_conversion_guards(self):
        cf = coeffio.from_table("Delta", 24, 1, DirichletCharacter.trivial(1),
                                [0, 1, -24], 2, 1)
        f = cf.to_form()
        assert f.a(2) == -24 and f.k == 6 and not f.half_integral
        cf.weight_num = 13      # a half-integral weight needs 4 | level
        with pytest.raises(ValueError):
            cf.to_form()


class TestBuildCommand:
    def test_delta(self, tmp_path):
        out = tmp_path / "delta.txt"
        assert run("build", "--form", "delta", "--prec", "100",
                   "--out", str(out)) == 0
        lines = read_lines(out)
        assert lines[0] == "# coeffs v1"
        body = [l for l in lines if not l.startswith("#")]
        assert body[:3] == ["1\t1", "4\t-56", "5\t120"]

    def test_g(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run("build", "--form", "g", "--prec", "60",
                   "--out", str(out)) == 0
        body = [l for l in read_lines(out) if not l.startswith("#")]
        assert body[:2] == ["3\t1", "4\t-1"]

    def test_formspec_string(self, tmp_path):
        out = tmp_path / "tau.txt"
        assert run("build", "--form", "eta(1)^24", "--prec", "5",
                   "--out", str(out)) == 0
        body = [l for l in read_lines(out) if not l.startswith("#")]
        assert body == ["1\t1", "2\t-24", "3\t252", "4\t-1472", "5\t4830"]

    def test_e4_has_constant_term(self, tmp_path):
        out = tmp_path / "e4.txt"
        assert run("build", "--form", "E4", "--prec", "2",
                   "--out", str(out)) == 0
        body = [l for l in read_lines(out) if not l.startswith("#")]
        assert body == ["0\t1", "1\t240", "2\t2160"]

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_name_is_its_expression(self, tmp_path, name):
        by_name, by_spec = tmp_path / "name.txt", tmp_path / "spec.txt"
        assert run("build", "--form", name, "--prec", "300",
                   "--out", str(by_name)) == 0
        assert run("build", "--form", NAMED[name][0], "--prec", "300",
                   "--out", str(by_spec)) == 0
        body, spec_body = ([l for l in read_lines(path) if not l.startswith("#")]
                           for path in (by_name, by_spec))
        assert len(body) > 10 and body == spec_body

    def test_theta_file_is_readable(self, tmp_path):
        out = tmp_path / "theta.txt"
        assert run("build", "--form", "theta(1)", "--prec", "100",
                   "--out", str(out)) == 0
        assert "# level: 4" in read_lines(out)
        assert run("signs", "--in", str(out), "--X-list", "10,100",
                   "--csv", str(tmp_path / "theta.csv")) == 0

    @pytest.mark.parametrize("form, prec, digest", [
        ("delta", 10_000, "09097173f2d48a19d2d847c8e6defdb4"
                          "b96694fa96b6de471fa96fa89e59d139"),
        ("g", 10_000, "7c9afb09d85c1bf2d8209f295702a77a"
                      "c09e2d57e0d28e2e77667c216fe2391e"),
        ("G11", 10_000, "4e34a3efff89fc7e25c9b7d73f11841f"
                        "9b8d5043ec3c8d26b5e8af4044e7baab"),
        ("Delta", 2000, "99a561bc7279fe2d6d2c9e2262d586b1"
                        "49b6ca2c4fb01299ba799e7afd05e554"),
        ("E4(1)^2", 1000, "3293af79da939f78a22eb1b4167947ec"
                          "59f91915bc58a251bf3f01e0e23a5d96"),
    ])
    def test_file_bytes_are_pinned(self, tmp_path, form, prec, digest):
        # A refactor must leave every built file byte for byte the same.
        out = tmp_path / "form.txt"
        assert run("build", "--form", form, "--prec", str(prec),
                   "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_delta_at_benchmark_size(self, tmp_path):
        # Delta = eta^24 at the dense benchmark's precision, against the
        # body digest that benchmarks/reference.json records (the body
        # is every line not starting with "#", newlines kept).
        bench = Path(__file__).resolve().parents[1] / "benchmarks"
        reference = json.loads((bench / "reference.json").read_text())
        out = tmp_path / "Delta.txt"
        assert run("build", "--form", "Delta", "--prec", "20000",
                   "--out", str(out)) == 0
        body = [line for line in out.read_bytes().splitlines(keepends=True)
                if not line.startswith(b"#")]
        assert (hashlib.sha256(b"".join(body)).hexdigest()
                == reference["full"]["Delta"])

    def test_e4_squared_at_benchmark_size(self, tmp_path):
        # E4^2 = E8 = 1 + 480 sum sigma_7(n) q^n, sigma_7 by a divisor sieve.
        prec = 7000
        sigma7 = [0] * (prec + 1)
        for d in range(1, prec + 1):
            for n in range(d, prec + 1, d):
                sigma7[n] += d ** 7
        out = tmp_path / "e8.txt"
        assert run("build", "--form", "E4(1)^2", "--prec", str(prec),
                   "--out", str(out)) == 0
        table = {int(n): int(c) for n, c in
                 (line.split("\t") for line in read_lines(out)
                  if not line.startswith("#"))}
        assert table == {0: 1, **{n: 480 * sigma7[n]
                                  for n in range(1, prec + 1)}}

    def test_parse_error_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run("build", "--form", "eta(1)^^2", "--prec", "5",
                   "--out", str(out)) == 2
        assert "error" in capsys.readouterr().err

    def test_fractional_result_exits_2(self, tmp_path):
        assert run("build", "--form", "eta(1)", "--prec", "5",
                   "--out", str(tmp_path / "x.txt")) == 2

    def test_prec_guard(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run("build", "--form", "delta", "--prec", "100001",
                   "--out", str(out)) == 2
        assert "allow-large" in capsys.readouterr().err
        assert run("build", "--form", "delta", "--prec", "2000000",
                   "--allow-large", "--out", str(out)) == 2


class TestLiftCommand:
    def test_lift_delta(self, tmp_path):
        src = tmp_path / "delta.txt"
        dst = tmp_path / "lift.txt"
        assert run("build", "--form", "delta", "--prec", "400",
                   "--out", str(src)) == 0
        assert run("lift", "--in", str(src), "--t", "1",
                   "--out", str(dst)) == 0
        cf = coeffio.read(str(dst))
        assert cf.prec == 20 and cf.t == 1    # isqrt(400)
        table = cf.coefficient_table()
        assert table[1] == 1 and table[3] == 252

    def test_lift_g(self, tmp_path):
        src = tmp_path / "g.txt"
        dst = tmp_path / "lift.txt"
        run("build", "--form", "g", "--prec", "300", "--out", str(src))
        assert run("lift", "--in", str(src), "--t", "3",
                   "--out", str(dst)) == 0
        assert coeffio.read(str(dst)).coefficient_table()[1] == 1

    def test_non_squarefree_t_exits_2(self, tmp_path):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "100", "--out", str(src))
        assert run("lift", "--in", str(src), "--t", "12",
                   "--out", str(tmp_path / "x.txt")) == 2


class TestHeckeCommand:
    def test_tsq_eigen_report(self, tmp_path, capsys):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "400", "--out", str(src))
        out = tmp_path / "tsq.txt"
        code = run("hecke", "--in", str(src), "--op", "tsq", "--p", "3",
                   "--verify-eigen", "--out", str(out))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == 252 and doc["is_eigen"]
        assert doc["deligne_ok"] and doc["elementary_bound_ok"]
        assert doc["satake"] == {"trace": 252, "norm": 177147, "disc_sign": -1}
        body = [l for l in read_lines(out) if not l.startswith("#")]
        assert body[0] == "1\t252"

    def test_tp_on_integral_form(self, tmp_path, capsys):
        src = tmp_path / "Delta.txt"
        run("build", "--form", "Delta", "--prec", "100", "--out", str(src))
        assert run("hecke", "--in", str(src), "--op", "tp", "--p", "2",
                   "--verify-eigen") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == -24 and doc["is_eigen"]

    def test_u_extraction(self, tmp_path):
        src = tmp_path / "g.txt"
        run("build", "--form", "g", "--prec", "64", "--out", str(src))
        out = tmp_path / "u4.txt"
        assert run("hecke", "--in", str(src), "--op", "u", "--p", "4",
                   "--out", str(out)) == 0
        table = coeffio.read(str(out)).coefficient_table()
        assert table[1] == -1     # a(4) of g

    def test_bad_prime_exits_2(self, tmp_path):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "100", "--out", str(src))
        assert run("hecke", "--in", str(src), "--op", "tsq", "--p", "2") == 2

    def test_non_eigenform_exits_1(self, tmp_path, capsys):
        # delta plus a plus-space-compatible junk coefficient is not eigen
        d = delta_form(400)
        coeffs = list(d.coeffs)
        coeffs[21] += 7    # 21 = 1 mod 4 keeps the support condition
        cf = coeffio.from_table("mangled", 13, 4, d.character, coeffs, 400, 1)
        src = tmp_path / "mangled.txt"
        cf.write(str(src))
        code = run("hecke", "--in", str(src), "--op", "tsq", "--p", "3",
                   "--verify-eigen")
        assert code == 1
        assert json.loads(capsys.readouterr().out)["is_eigen"] is False


class TestSignsCommand:
    def test_csv_table(self, tmp_path):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "1000", "--out", str(src))
        csv = tmp_path / "table.csv"
        assert run("signs", "--in", str(src), "--stats", "tot,fund",
                   "--X-list", "10,100,1000", "--csv", str(csv)) == 0
        assert read_lines(csv) == ["X,R_tot,R_fund",
                                   "10,0.600,0.667",
                                   "100,0.520,0.548",
                                   "1000,0.518,0.515"]

    def test_csv_byte_stable(self, tmp_path):
        src = tmp_path / "g.txt"
        run("build", "--form", "g", "--prec", "500", "--out", str(src))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("signs", "--in", str(src), "--X-list", "10,100,500",
            "--csv", str(a))
        run("signs", "--in", str(src), "--X-list", "10,100,500",
            "--csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_six_decimals_above_1000(self, tmp_path):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "10000", "--out", str(src))
        csv = tmp_path / "t.csv"
        run("signs", "--in", str(src), "--X-list", "10000", "--csv", str(csv))
        assert read_lines(csv)[1] == "10000,0.504600,0.501643"

    def test_subsequence_report(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        run("build", "--form", "g", "--prec", "300", "--out", str(src))
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--t", "3", "--powers-p", "3") == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        kinds = [r["kind"] for r in doc["reports"]]
        assert kinds == ["square-class", "prime-power"]

    def test_dprime_survey(self, tmp_path, capsys):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "300", "--out", str(src))
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--dprime", "3:1") == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        survey = doc["reports"][0]
        assert survey["kind"] == "dprime-survey"
        assert all(t % 3 != 0 for t in survey["t_values"])

    def test_unknown_stat_exits_2(self, tmp_path):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "50", "--out", str(src))
        assert run("signs", "--in", str(src), "--stats", "median") == 2

    def test_range_violation_exits_2(self, tmp_path):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "50", "--out", str(src))
        assert run("signs", "--in", str(src), "--X-list", "100") == 2


class TestVerifyCommand:
    def test_plus_space_pass(self, tmp_path, capsys):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "200", "--out", str(src))
        assert run("verify", "--in", str(src), "--suite", "plus-space") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] and doc["schema"] == 1

    def test_plus_space_failure_exits_1(self, tmp_path, capsys):
        cf = coeffio.from_table("bad", 13, 4, DirichletCharacter.trivial(4),
                                [0, 1, 1, 0, 0], 4, 1)
        src = tmp_path / "bad.txt"
        cf.write(str(src))
        assert run("verify", "--in", str(src), "--suite", "plus-space") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == [{"n": 2, "a": 1}]

    def test_recurrence_suite(self, tmp_path, capsys):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "2000", "--out", str(src))
        assert run("verify", "--in", str(src), "--suite", "recurrence",
                   "--t", "1,5", "--p", "3,5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] and len(doc["checks"]) == 4
        first = doc["checks"][0]
        assert first["lambda"] == 252
        assert first["witnesses"][0] == {"n": 1, "a": 1}

    def test_bounds_suite(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        run("build", "--form", "g", "--prec", "2000", "--out", str(src))
        assert run("verify", "--in", str(src), "--suite", "bounds",
                   "--p", "3,5,7,13") == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(c["deligne_ok"] and c["elementary_bound_ok"]
                   for c in doc["checks"])

    def test_prop2_suite(self, tmp_path, capsys):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "2000", "--out", str(src))
        assert run("verify", "--in", str(src), "--suite", "prop2",
                   "--p", "3", "--limit", "2000") == 0
        doc = json.loads(capsys.readouterr().out)
        witnesses = {(w["eps"], w["sign"]): w for w in
                     doc["checks"][0]["witnesses"]}
        assert witnesses[(-1, 1)]["n"] == 5
        assert witnesses[(-1, -1)]["n"] == 8

    def test_prop2_insufficient_limit_exits_1(self, tmp_path, capsys):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "200", "--out", str(src))
        assert run("verify", "--in", str(src), "--suite", "prop2",
                   "--p", "3", "--limit", "3") == 1
        capsys.readouterr()

    def test_out_of_range_t_exits_2(self, tmp_path):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "100", "--out", str(src))
        assert run("verify", "--in", str(src), "--suite", "recurrence",
                   "--t", "101", "--p", "3") == 2

    def test_json_file_output(self, tmp_path):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "100", "--out", str(src))
        report = tmp_path / "report.json"
        assert run("verify", "--in", str(src), "--suite", "plus-space",
                   "--json", str(report)) == 0
        assert json.loads(report.read_text())["pass"]


class TestUsageErrors:
    def test_missing_input_file(self, tmp_path):
        assert run("signs", "--in", str(tmp_path / "nope.txt")) == 2

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("hecke", "--op", "tsq")
        assert exc.value.code == 2


def test_imports_only_the_standard_library():
    # The package stays dependency-free: importing the CLI may load no
    # module beyond those the interpreter had at start-up, the standard
    # library and qsigns itself.
    probe = ("import json, sys\n"
             "before = {m.partition('.')[0] for m in sys.modules}\n"
             "import qsigns.cli\n"
             "after = {m.partition('.')[0] for m in sys.modules}\n"
             "print(json.dumps(sorted(after - before)))\n")
    src = str(Path(qsigns.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    new = set(json.loads(proc.stdout))
    assert "qsigns" in new
    assert new - set(sys.stdlib_module_names) - {"qsigns"} == set()
