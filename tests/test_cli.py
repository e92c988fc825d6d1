import hashlib
import json
import os
import re
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsigns import arith, coeffio, forms, formspec, hecke, qseries, signs
from qsigns.arith import DirichletCharacter
from qsigns.cli import main
from qsigns.forms import NAMED, Form, delta_form, expression_form, g_form

from conftest import cli_process, fresh_import, fresh_python


def run(*argv):
    return main(list(argv))


def read_lines(path):
    return path.read_text().splitlines()


def body(path):
    return [l for l in read_lines(path) if not l.startswith("#")]


def _bound_trial_division(monkeypatch, limit):
    """Make is_prime and is_squarefree, in every module that reads them,
    fail the test on an n above limit instead of trial-dividing it."""
    for name in ("is_prime", "is_squarefree"):
        def spy(n, real=getattr(arith, name)):
            assert n <= limit, "trial division of %d" % n
            return real(n)

        for module in (arith, coeffio, signs):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)


class TestCoefficientFile:
    def test_round_trip_builtins_at_1000(self):
        d = delta_form(1000)
        g = g_form(1000)
        D = expression_form(NAMED["Delta"], 1000)
        G = expression_form(NAMED["G11"], 1000)
        files = [coeffio.CoefficientFile("delta", d),
                 coeffio.CoefficientFile("g", g),
                 coeffio.CoefficientFile("Delta", D),
                 coeffio.CoefficientFile("G11", G)]
        for cf in files:
            text = cf.serialize()
            again = coeffio.parse(text)
            assert again.serialize() == text, cf.form_id
            assert again.form.coeffs == cf.form.coeffs

    def test_lift_header_round_trip(self):
        lift = Form(weight_num=4, level=22,
                    character=DirichletCharacter.trivial(22),
                    coeffs=[0, 1, 0, 0, -2, 0, 0, 0, 0, 0])
        cf = coeffio.CoefficientFile(form_id="lift_t3(g)", form=lift, t=3)
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
        good = coeffio.CoefficientFile("x", Form(
            weight_num=13, level=4, character=DirichletCharacter.trivial(4),
            coeffs=[0, 1, 0, 0, -56])).serialize()
        coeffio.parse(good)
        with pytest.raises(ValueError):
            coeffio.parse(good.replace("coeffs v1", "coeffs v9"))
        with pytest.raises(ValueError):
            coeffio.parse(good.replace("# level: 4\n", ""))
        with pytest.raises(ValueError):
            coeffio.parse(good.replace("# weight: 13/2", "# weight: 6.5"))
        with pytest.raises(ValueError):
            coeffio.parse(good + "3\t7\n")      # out of order
        with pytest.raises(ValueError, match="out of order"):
            coeffio.parse(good + "4\t7\n")      # a repeat in the same block
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
        cf = coeffio.CoefficientFile("Delta", Form(
            weight_num=24, level=1, character=DirichletCharacter.trivial(1),
            coeffs=[0, 1, -24]))
        text = cf.serialize()
        f = coeffio.parse(text).form
        assert f.coeffs[2] == -24 and f.k == 6 and not f.half_integral
        # a half-integral weight needs 4 | level
        with pytest.raises(ValueError):
            coeffio.parse(text.replace("# weight: 24/2", "# weight: 13/2"))

    # A small file with every header key, a quadratic character and a
    # constant term (offset 0).
    FULL = coeffio.CoefficientFile("lift_t5(x)", Form(
        weight_num=13, level=12, character=DirichletCharacter(top=-3),
        coeffs=[7, 1, 0, 0, -56]), t=5).serialize()

    @pytest.mark.parametrize("line, bad", [
        ("# offset: 0", "# offset: 0\n# zzz: 5"),     # unknown key
        ("# level: 12", "# level: 012"),
        ("# prec: 4", "# prec:  4"),
        ("# offset: 0", "# offset: +0"),
        ("# weight: 13/2", "# weight: 013/2"),
        ("# character: kronecker:-3/mod:3", "# character: kronecker:-3/mod:03"),
        ("# character: kronecker:-3/mod:3", "# character: trivial:012"),
        ("# prec: 4", "# prec: 4_0"),
        ("# t: 5", "# t: -0005"),
    ])
    def test_parse_rejects_a_header_it_would_not_write(self, line, bad):
        assert line in self.FULL.splitlines()
        with pytest.raises(ValueError):
            coeffio.parse(self.FULL.replace(line + "\n", bad + "\n"))

    def test_parse_rejects_reordered_header(self):
        lines = self.FULL.splitlines(keepends=True)
        lines[2], lines[3] = lines[3], lines[2]     # level before weight
        with pytest.raises(ValueError):
            coeffio.parse("".join(lines))

    @pytest.mark.parametrize("prec", [-1, forms.LARGE_PREC_CAP + 1, 10 ** 18])
    def test_parse_rejects_prec_outside_the_range(self, prec):
        # Refused before the table is allocated: 10^18 entries would not fit.
        text = self.FULL.replace("# prec: 4\n", "# prec: %d\n" % prec)
        with pytest.raises(ValueError, match="outside"):
            coeffio.parse(text)

    SPELLINGS = st.sampled_from(["", "0", "+", "-", " ", "_", "1"])

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(1, 7), SPELLINGS, SPELLINGS,
                                    st.sampled_from(coeffio.KEYS + ("zzz",)),
                                    st.booleans()),
                          min_size=1, max_size=3))
    def test_accepted_header_is_written_back_the_same(self, edits):
        # Respell a header value, or insert a line under some key holding
        # a respelled value; whatever parse accepts must serialize to the
        # very same text.
        lines = self.FULL.splitlines(keepends=True)
        for pos, before, after, key, insert in edits:
            old_key, _, value = lines[pos].rstrip("\n").partition(": ")
            if insert:
                lines.insert(pos, "# %s: %s%s%s\n" % (key, before, value, after))
            else:
                lines[pos] = "%s: %s%s%s\n" % (old_key, before, value, after)
        text = "".join(lines)
        try:
            cf = coeffio.parse(text)
        except ValueError:
            return
        assert cf.serialize() == text

    def test_offset_follows_the_constant_term(self):
        def offset_line(coeffs):
            return coeffio.CoefficientFile("x", Form(
                weight_num=8, level=1, character=DirichletCharacter.trivial(1),
                coeffs=coeffs)).serialize().splitlines()[6]
        assert offset_line([1, 240]) == "# offset: 0"
        assert offset_line([0, 1]) == "# offset: 1"
        # No offset can be given: the file reads it off a(0).
        with pytest.raises(TypeError):
            coeffio.CoefficientFile("x", delta_form(10), offset=0)

    def test_an_offset_line_not_read_off_a0_exits_2(self, tmp_path,
                                                    capsys):
        # delta's a(0) is 0, so its file says offset 1; one that says 0
        # is not canonical, and no table is written.
        src, csv = tmp_path / "delta.txt", tmp_path / "delta.csv"
        assert run("build", "--form", "delta", "--prec", "200",
                   "--out", str(src)) == 0
        src.write_text(src.read_text().replace("# offset: 1\n",
                                               "# offset: 0\n"))
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--csv", str(csv)) == 2
        assert capsys.readouterr() == ("", "error: header line '# offset: 0' "
                                           "is not written as '# offset: 1'\n")
        assert not csv.exists()

    def test_full_header_round_trips(self):
        cf = coeffio.parse(self.FULL)
        assert cf.form.coeffs == [7, 1, 0, 0, -56] and cf.t == 5
        assert cf.serialize() == self.FULL

    # A body with lines 1, 4 and 5, and the ways a body line may be
    # written other than as serialize writes it.
    SMALL = coeffio.CoefficientFile("x", Form(
        weight_num=13, level=4, character=DirichletCharacter.trivial(4),
        coeffs=[0, 1, 0, 0, -56, 120, 0, 0, 0])).serialize()
    NOT_CANONICAL = {       # case -> (text, the line the refusal names)
        "plus on n": (SMALL.replace("5\t120\n", "+5\t3\n"), "+5\t3"),
        "leading zero on n": (SMALL.replace("5\t120\n", "05\t3\n"), "05\t3"),
        "padded n": (SMALL.replace("5\t120\n", " 5\t3\n"), " 5\t3"),
        "plus on a(n)": (SMALL.replace("5\t120\n", "5\t+3\n"), "5\t+3"),
        "leading zero on a(n)": (SMALL.replace("5\t120\n", "5\t03\n"),
                                 "5\t03"),
        "minus zero": (SMALL.replace("5\t120\n", "5\t-0\n"), "5\t-0"),
        "blank line": (SMALL.replace("4\t-56\n", "4\t-56\n\n"), ""),
        "three fields": (SMALL.replace("5\t120\n", "5\t120\t7\n"),
                         "5\t120\t7"),
        "no final newline": (SMALL[:-1], "5\t120"),
        "cut mid-number": (SMALL[:-3], "5\t1"),
        "carriage returns": (SMALL.replace("\n", "\r\n"), coeffio.MAGIC),
    }

    @pytest.mark.parametrize("case", NOT_CANONICAL)
    def test_parse_refuses_a_body_it_would_not_write(self, case):
        assert coeffio.parse(self.SMALL).form.coeffs[5] == 120
        text, line = self.NOT_CANONICAL[case]
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            coeffio.parse(text)

    @pytest.mark.parametrize("case", NOT_CANONICAL)
    def test_signs_exits_2_on_a_body_it_would_not_write(self, tmp_path, case):
        path = tmp_path / "x.txt"
        with open(path, "w", newline="") as fp:
            fp.write(self.NOT_CANONICAL[case][0])
        out = tmp_path / "x.csv"
        rc = run("signs", "--in", str(path), "--X-list", "5",
                 "--csv", str(out))
        # read opens the file in text mode, which turns "\r\n" into "\n".
        assert rc == (0 if case == "carriage returns" else 2)
        assert out.exists() == (rc == 0)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30),
                           min_size=1, max_size=80),
           block=st.integers(1, 40))
    def test_body_round_trips_in_small_blocks(self, values, block):
        # serialize, then parse in blocks of about block characters: the
        # same table.  Then repeat the last index of the first block at
        # the start of the second: parse must refuse the order there.
        cf = coeffio.CoefficientFile("x", Form(
            weight_num=13, level=4, character=DirichletCharacter.trivial(4),
            coeffs=values))
        text = cf.serialize()
        with mock.patch.object(coeffio, "BLOCK", block):
            again = coeffio.parse(text)
            assert again.form.coeffs == values and again.serialize() == text
            start = len("".join(text.splitlines(keepends=True)[:7]))
            stop = text.find("\n", start + block - 1) + 1
            if 0 < stop < len(text):
                last = text[:stop - 1].rpartition("\n")[2].split("\t")[0]
                rest = text[stop:].partition("\n")[2]
                bad = text[:stop] + last + "\t1\n" + rest
                with pytest.raises(ValueError, match="out of order"):
                    coeffio.parse(bad)

    def test_parse_peak_memory_stays_under_the_line_loop(self):
        # tracemalloc's peak while parsing delta at 10^4 (5 000 body
        # lines).  The per-line loop this parse replaced peaked at
        # 641 351 bytes, most of it one str per line (Python 3.11); a
        # match over the whole body holds one sre stack entry per line
        # and peaks at about 2.0 MB.
        text = coeffio.CoefficientFile("delta", delta_form(10_000)).serialize()
        tracemalloc.start()
        try:
            coeffio.parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 641_351


def _header_cuts():
    """Every way to cut a header short: each prefix that ends before its
    last newline, each deleted line but the optional '# t:' one, and each
    swapped pair of its lines, of FULL's header (with a t line) and
    SMALL's (without one)."""
    for name in ("FULL", "SMALL"):
        text = getattr(TestCoefficientFile, name)
        lines = text.splitlines(keepends=True)
        n = sum(line.startswith("#") for line in lines)
        for i in range(len("".join(lines[:n]))):
            yield pytest.param(text[:i], id="%s-prefix-%d" % (name, i))
        for i in range(n):
            if not lines[i].startswith("# t: "):
                yield pytest.param("".join(lines[:i] + lines[i + 1:]),
                                   id="%s-delete-%d" % (name, i))
        for i, j in combinations(range(n), 2):
            swapped = lines[:]
            swapped[i], swapped[j] = lines[j], lines[i]
            yield pytest.param("".join(swapped),
                               id="%s-swap-%d-%d" % (name, i, j))


class TestHeaderCheck:
    """parse reads the header in coeffio.KEYS order, and refuses a header
    cut short, missing a line or out of order with one ValueError that
    names the offending line."""

    FULL = TestCoefficientFile.FULL

    @pytest.mark.parametrize("text", _header_cuts())
    def test_a_cut_header_is_refused(self, tmp_path, capsys, text):
        with pytest.raises(ValueError):
            coeffio.parse(text)
        # signs exits 2 with one error line and writes no table.
        src, csv = tmp_path / "x.txt", tmp_path / "x.csv"
        with open(src, "w", newline="") as fp:
            fp.write(text)
        assert run("signs", "--in", str(src), "--X-list", "5",
                   "--csv", str(csv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not csv.exists()

    @pytest.mark.parametrize("text, message", [
        (FULL.replace("# weight: 13/2\n", "# weight: 13/2\n# zzz: 5\n"),
         "header line '# zzz: 5' is not '# level: <value>'"),
        (FULL.replace("# level: 12\n", "# level: 12\n# level: 12\n"),
         "header line '# level: 12' is not '# character: <value>'"),
        (FULL.replace("# level: 12\n", ""),
         "header line '# character: kronecker:-3/mod:3' is not "
         "'# level: <value>'"),
        (FULL.replace("# weight: 13/2\n# level: 12\n",
                      "# level: 12\n# weight: 13/2\n"),
         "header line '# level: 12' is not '# weight: <value>'"),
        (FULL.replace("# t: 5\n", "# t: 5\n# zzz: 5\n"),
         "bad body line '# zzz: 5'"),
        (coeffio.MAGIC,
         "header line '# coeffs v1' does not end in a newline"),
    ], ids=["unknown", "repeated", "missing", "reordered",
            "unknown-after-the-last-key", "no-newline-after-the-magic"])
    def test_each_refusal_names_the_line(self, tmp_path, capsys, text,
                                         message):
        with pytest.raises(ValueError) as err:
            coeffio.parse(text)
        assert str(err.value) == message
        src = tmp_path / "x.txt"
        src.write_text(text)
        assert run("signs", "--in", str(src), "--X-list", "5") == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)


# The body lines serialize writes: the oracle of TestBodyCheck.
BODY_LINES = re.compile(r"(?:(?:0|[1-9][0-9]*)\t-?[1-9][0-9]*\n)*")


class TestBodyCheck:
    """parse checks a body without a regular expression; the check
    refuses exactly what BODY_LINES refuses, with the same message."""

    HEADER = TestCoefficientFile.SMALL.partition("1\t1\n")[0]

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.integers(-300, 300), min_size=1, max_size=12),
           edits=st.lists(st.tuples(st.sampled_from("idr"),
                                    st.integers(0, 200),
                                    st.sampled_from("0123456789\t\n-+ .e\r")),
                          min_size=1, max_size=3))
    def test_refuses_what_the_expression_refuses(self, values, edits):
        # Insert, delete or replace one to three characters of a body as
        # serialize writes it; a body this short is one block.
        body = "".join("%d\t%d\n" % (n, v) for n, v in enumerate(values) if v)
        for kind, pos, ch in edits:
            pos %= len(body) + 1
            body = body[:pos] + ch * (kind != "d") + body[pos + (kind != "i"):]
        try:
            coeffio._parse_body(body, 0, [0] * 10 ** 6)
            refused = ""
        except ValueError as exc:
            refused = str(exc)
        line_refused = refused.startswith("bad body line") or refused.endswith(
            "does not end in a newline")
        assert line_refused == (BODY_LINES.fullmatch(body) is None)

    @pytest.mark.parametrize("line, message", [
        ("4\t0\n", r"bad body line '4\t0'"),
        ("4\t-0\n", r"bad body line '4\t-0'"),
        ("04\t56\n", r"bad body line '04\t56'"),
        ("4\t056\n", r"bad body line '4\t056'"),
        ("\t56\n", r"bad body line '\t56'"),
        ("4\t\n", r"bad body line '4\t'"),
        ("4\t5-6\n", r"bad body line '4\t5-6'"),
        ("4\t-56", r"body line '4\t-56' does not end in a newline"),
    ], ids=["zero", "minus-zero", "leading-zero-n", "leading-zero-a",
            "empty-n", "empty-a", "minus-after-digits", "no-final-newline"])
    def test_each_refusal_keeps_its_message(self, tmp_path, capsys, line,
                                            message):
        text = self.HEADER + "1\t1\n" + line
        with pytest.raises(ValueError) as err:
            coeffio.parse(text)
        assert str(err.value) == message
        src = tmp_path / "x.txt"
        src.write_text(text)
        assert run("signs", "--in", str(src), "--X-list", "5") == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)

    def test_a_last_block_of_digits_only_is_refused(self):
        # A file cut after the digits that start a line, where a block
        # starts: the block's skeleton is empty, and it has no newline.
        with mock.patch.object(coeffio, "BLOCK", 4):
            with pytest.raises(ValueError) as err:
                coeffio.parse(self.HEADER + "1\t1\n4\t-56\n5")
        assert str(err.value) == "body line '5' does not end in a newline"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-str digit limit before Python 3.11")
    def test_a_value_past_the_digit_limit_keeps_pythons_message(
            self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the int-str digit limit is switched off")
        src = tmp_path / "x.txt"
        src.write_text(self.HEADER + "1\t" + "9" * (limit + 1) + "\n")
        with pytest.raises(ValueError) as want:
            int("9" * (limit + 1))
        assert run("signs", "--in", str(src), "--X-list", "5") == 2
        assert capsys.readouterr() == ("", "error: %s\n" % want.value)


class TestAtomicWrite:
    """Every output file is written whole or not at all."""

    @pytest.fixture
    def old(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text("the old file\n")
        return out

    def test_a_failed_serialize_keeps_the_old_file(self, old, monkeypatch,
                                                   capsys):
        def fail(self):
            raise ValueError("serialize failed")
        monkeypatch.setattr(coeffio.CoefficientFile, "serialize", fail)
        assert run("build", "--form", "delta", "--prec", "100",
                   "--out", str(old)) == 2
        assert capsys.readouterr().err == "error: serialize failed\n"
        assert old.read_text() == "the old file\n"
        assert os.listdir(old.parent) == [old.name]

    @pytest.mark.parametrize("argv", [
        ("build", "--form", "delta", "--prec", "100", "--out"),
        ("signs", "--in", "{delta}", "--X-list", "10", "--csv"),
        ("verify", "--in", "{delta}", "--suite", "plus-space", "--json")],
        ids=["coefficients", "csv", "json"])
    def test_a_write_cut_before_the_move_keeps_the_old_file(
            self, old, monkeypatch, argv):
        delta = old.parent / "delta.txt"
        assert run("build", "--form", "delta", "--prec", "100",
                   "--out", str(delta)) == 0
        written = []

        def cut(src, dst):
            written.append(Path(src).read_text())
            raise OSError("cut")
        monkeypatch.setattr(os, "replace", cut)
        argv = [a.format(delta=delta) for a in argv] + [str(old)]
        assert run(*argv) == 2
        assert written and written[0] != "the old file\n"
        assert old.read_text() == "the old file\n"
        assert sorted(os.listdir(old.parent)) == ["delta.txt", old.name]

    def test_files_keep_the_mode_open_would_give(self, old, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        new = tmp_path / "new.txt"
        old.chmod(0o640)
        for out in (new, old):
            assert run("build", "--form", "theta(1)", "--prec", "10",
                       "--out", str(out)) == 0
        assert os.stat(new).st_mode & 0o777 == 0o666 & ~umask
        assert os.stat(old).st_mode & 0o777 == 0o640
        assert body(old) == body(new)

    def test_a_symlink_is_written_through(self, old, tmp_path):
        link = tmp_path / "link.txt"
        link.symlink_to(old.name)
        assert run("build", "--form", "theta(1)", "--prec", "10",
                   "--out", str(link)) == 0
        assert link.is_symlink() and body(old) == ["0\t1", "1\t2", "4\t2",
                                                    "9\t2"]


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
        # One offset rule for every file: a name's file and its
        # expression's differ in the form line alone.
        by_name, by_spec = tmp_path / "name.txt", tmp_path / "spec.txt"
        assert run("build", "--form", name, "--prec", "300",
                   "--out", str(by_name)) == 0
        assert run("build", "--form", NAMED[name], "--prec", "300",
                   "--out", str(by_spec)) == 0
        lines, spec_lines = read_lines(by_name), read_lines(by_spec)
        assert (lines[1], spec_lines[1]) == ("# form: " + name,
                                             "# form: " + NAMED[name])
        assert len(lines) > 20 and lines[2:] == spec_lines[2:]

    def test_u_of_theta_has_the_level_of_its_image(self, tmp_path):
        # theta | U_2 = theta(2z): the expression, the dilation and the
        # hecke image of a theta file all say level 8.
        files = {name: tmp_path / (name + ".txt")
                 for name in ("u2", "theta2", "theta", "image")}
        for name, form in (("u2", "U(2, theta(1))"), ("theta2", "theta(2)"),
                           ("theta", "theta(1)")):
            assert run("build", "--form", form, "--prec", "100",
                       "--out", str(files[name])) == 0
        assert run("hecke", "--in", str(files["theta"]), "--op", "u",
                   "--p", "2", "--out", str(files["image"])) == 0
        for name in ("u2", "theta2", "image"):
            assert "# level: 8" in read_lines(files[name]), name
        assert coeffio.read(str(files["u2"])).form.coeffs[1:] == \
            coeffio.read(str(files["theta2"])).form.coeffs[1:]

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
        ("E4", 300, "49a78ca57e3441a44afc553de295c480"
                    "ce32b148c765fbaa425217583b9abfb2"),
        ("E4(1)^2", 1000, "3293af79da939f78a22eb1b4167947ec"
                          "59f91915bc58a251bf3f01e0e23a5d96"),
        # rational expressions, pinned while rational scalars still made
        # Fraction coefficients
        ("1/3*theta(1) + 2/3*theta(1)", 300,
         "d74d6f2cf5ae973011bc7befe3786118466a5f77b4a03b2b0fa14b50081760ff"),
        ("D(eta(1))*eta(1)^23 - 1/24*D(eta(1)^24)", 300,
         "c69b4d3944d344713e2627175fb9bf9b35f3555ebe97137b79e391542bc3000f"),
        ("1/7*eta(1)^24 + 6/7*eta(1)^24", 300,
         "c82326aedfca4e2cca5a5d0cba2c7d71b0e78203e94826acb9d04783247a3e86"),
        ("1/2*D(theta(1))", 300,
         "e2c909d47c87290eefe6d00da14f222b01fb80d89424d564ecb83aaaf98976af"),
        # one expression per atom and operator no golden above covers,
        # pinned before the atoms became one node and a - b became
        # a + (-1)*b
        ("thetapsi(-3, 1)", 300,
         "bf4ef349ddd7ab67eeb24993b93a24b226a9e5b7bb3f56c8ed750f8eb3aa3b76"),
        ("E4(2)", 300,
         "fa700ea32a50cabaae222a1aca1e44eea1eabe2c5a038b4ed95c2df2f366df8a"),
        ("U(3, theta(1))", 300,
         "5c92e874453a9441975ad0e59518b2e515f4d5256492d7543ab7b5614b11ac6d"),
        ("2*theta(1) - theta(2)", 300,
         "f79178e13e0bc7a041685ffb10a7c83538040d85334f5faa1d5ed9656cfd7f7e"),
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

    @pytest.mark.parametrize("form, message", [
        ("1/2*theta(1)", "non-integral coefficient 1/2 at q^0"),
        ("D(eta(1))*eta(1)^23", "non-integral coefficient 1/24 at q^1"),
    ])
    def test_non_integral_expression_exits_2(self, tmp_path, capsys, form,
                                             message):
        out = tmp_path / "x.txt"
        assert run("build", "--form", form, "--prec", "50",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()

    def test_parse_error_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run("build", "--form", "eta(1)^^2", "--prec", "5",
                   "--out", str(out)) == 2
        assert "error" in capsys.readouterr().err

    def test_fractional_result_exits_2(self, tmp_path):
        assert run("build", "--form", "eta(1)", "--prec", "5",
                   "--out", str(tmp_path / "x.txt")) == 2

    @pytest.mark.parametrize("expr", ["eta(24)^2",      # weight 1
                                      "eta(4)^6",       # weight 3
                                      "eta(2)*eta(3)*eta(19)"])  # 3/2 on 114
    def test_unreadable_form_is_not_written(self, tmp_path, capsys, expr):
        out = tmp_path / "x.txt"
        assert run("build", "--form", expr, "--prec", "100",
                   "--out", str(out)) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("expr, message", [
        # Evaluated first, the inner U would build eta(1) to 10^8 slots.
        ("U(1000, U(1000, eta(1)))",
         "U_1000 needs an integer exponent grid, offset is 1/24"),
        ("U(2, eta(1)^5)",
         "U_2 needs an integer exponent grid, offset is 5/24"),
        ("U(3, theta(1) + eta(1))",
         "offsets 0 and 1/24 are not on a common grid"),
        # On the grid, but the inner theta(1) would need 1.01 * 10^8 slots.
        ("U(1000, U(1000, theta(1)))",
         "working precision 101000000 exceeds 4000004"),
        # The Form's weight and level are refused before evaluation too.
        ("eta(2)*eta(3)*eta(19)", "level must be divisible by 4"),
        ("eta(24)^2", "integral weight must be a positive even integer"),
        ("eta(4)^6", "integral weight must be a positive even integer")])
    def test_grid_refused_before_any_series_is_built(self, tmp_path, capsys,
                                                     monkeypatch, expr,
                                                     message):
        def refuse(*args):
            raise AssertionError("a series was built for %r" % (args,))
        for name, rule in formspec.ATOMS.items():
            monkeypatch.setitem(formspec.ATOMS, name,
                                rule._replace(series=refuse))
        monkeypatch.setattr(qseries, "eta_pow", refuse)
        out = tmp_path / "x.txt"
        assert run("build", "--form", expr, "--prec", "100",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        " + ".join(["theta(1)"] * 500),
        "(" * 330 + "theta(1)" + ")" * 330,
        "D(" * 500 + "theta(1)" + ")" * 500,
        " + ".join(["theta(1)"] * 401)], ids=["sum", "parens", "D", "sum401"])
    def test_a_too_deep_expression_exits_2_in_one_line(self, tmp_path, spec):
        out = tmp_path / "deep.txt"
        proc = cli_process("build", "--form", spec, "--prec", "10",
                           "--out", str(out))
        assert (proc.returncode, proc.stderr) == (
            2, "error: expression too long or nested too deeply\n")
        assert not out.exists()

    def test_long_expressions_below_the_limit_still_build(self, tmp_path):
        paths = [tmp_path / name for name in ("sum", "scaled", "parens")]
        for spec, path in zip([" + ".join(["theta(1)"] * 400),
                               "400*theta(1)",
                               "(" * 300 + "theta(1)" + ")" * 300], paths):
            proc = cli_process("build", "--form", spec, "--prec", "10",
                               "--out", str(path))
            assert proc.returncode == 0, proc.stderr
        assert body(paths[0]) == body(paths[1]) == [
            "0\t400", "1\t800", "4\t800", "9\t800"]
        assert body(paths[2]) == ["0\t1", "1\t2", "4\t2", "9\t2"]

    def test_prec_guard(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run("build", "--form", "delta", "--prec", "100001",
                   "--out", str(out)) == 2
        assert "allow-large" in capsys.readouterr().err
        assert run("build", "--form", "delta", "--prec", "2000000",
                   "--allow-large", "--out", str(out)) == 2


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (["lift", "--in", "delta.txt", "--t", "1", "--out", "out"],
     "32cc86ce840716d8fa473cddf55277dd8d31b0d14552b5535029527789cc4402"),
    (["lift", "--in", "delta.txt", "--t", "5", "--out", "out"],
     "11a0a4f8baa5f9e079dc17150bbab6c33881dff0edf7110fef7f9b5e120c73f7"),
    (["hecke", "--in", "delta.txt", "--op", "tsq", "--p", "3", "--out", "out"],
     "5160cf338d24d8264c067593dbb266b9b5701269ceb3b50952188089bcdf61ff"),
    (["hecke", "--in", "delta.txt", "--op", "u", "--p", "4", "--out", "out"],
     "3d37f58a3946cc91d3d5bf0279df681e6673a20007cf5432a24ffd2e6a9bffda"),
    (["signs", "--in", "delta.txt", "--X-list", "10,100,1000,10000",
      "--csv", "out"],
     "8a7cecafbbcf74807136364f96b00df62d39ba2f6ab3b17d509b1a07f14918b4"),
    (["signs", "--in", "g.txt", "--X-list", "10,100,1000,10000",
      "--csv", "out"],
     "8052548478d31b1c366b17b2895b96698ae9af983d7da388aff5902abd0b0f28"),
    (["signs", "--in", "delta.txt", "--X-list", "10", "--dprime", "3:1,5:-1",
      "--json", "out"],
     "eefabb142766f9703b1256749e65381058367a56085487541dee03ab484d34aa"),
    (["signs", "--in", "g.txt", "--X-list", "10", "--dprime", "3:1,5:-1",
      "--json", "out"],
     "adffad3855e2bb3d5334bd26f3081758a2fb477b5ce09082699ffdf66c131aef"),
    (["signs", "--in", "delta.txt", "--X-list", "10", "--t", "5",
      "--powers-p", "3", "--json", "out"],
     "84a71ff108e865b28448d999d7f276a5a81c8a1b6911fec6c7a86018a24e6fe8"),
    (["signs", "--in", "g.txt", "--X-list", "10", "--t", "3",
      "--powers-p", "5", "--json", "out"],
     "10a455f42f920a4b3b9739e2bee8e1177e57b7b489d46382d15308e3621ccbd8"),
    (["verify", "--in", "delta.txt", "--suite", "recurrence", "--t", "1,5",
      "--p", "3,5", "--json", "out"],
     "e344c8a42bc1b74f1b0509331ecf8d4ee690fa1a851b530a22eff26c72f1d508"),
    (["verify", "--in", "g.txt", "--suite", "prop2", "--p", "3",
      "--json", "out"],
     "8b3fe67cfc827ab7f45de9bd347735e873a0bfca35ec33043307120346b9f77f"),
    (["hecke", "--in", "delta.txt", "--op", "tsq", "--p", "3",
      "--verify-eigen", "--json", "out"],
     "0500ff3709c2d4bac1a9a18d8719f6484e0bec59a881eca27c9e06d5bc6b4f91"),
    (["hecke", "--in", "delta.txt", "--op", "u", "--p", "3", "--out", "out"],
     "0070950c5dd103ed7154bb6b2de9de962fad8307507bca62b1ce2fe719336ec4"),
    (["verify", "--in", "delta.txt", "--suite", "bounds", "--p", "3,5",
      "--json", "out"],
     "12b7c85be739413684f1501a4e14e0758522e7192a1b33a38187fbafd34c58c7"),
    (["verify", "--in", "delta.txt", "--suite", "plus-space", "--json", "out"],
     "371b4feade82bf47e515625ef5413d087c76518b5d93c0455cb6e652b5fa8c5a"),
])
def test_read_side_outputs_are_pinned(built, tmp_path, argv, digest):
    # Everything written from a file read back must stay byte for byte
    # the same; each digest was taken before the refactor it guards (the
    # first six before files held a Form, the square-free surveys before
    # the survey scan existed once, the subsequence, recurrence, prop2
    # and eigen reports before the sign scan and its index sets were
    # stated once, the U_3 image and the bounds suite before the operator
    # images and eigen verdicts moved into hecke, the plus-space report
    # before the verify suites shared one report envelope).  The
    # recurrence, eigen and bounds reports were taken again when each
    # prime's eigen verdict became one record that all three print.
    out = tmp_path / "out"
    argv = [str(built(a[:-len(".txt")], 10_000)) if a.endswith(".txt") else
            str(out) if a == "out" else a for a in argv]
    assert run(*argv) == 0
    assert sha256_of(out) == digest


@pytest.mark.parametrize("form, prec, argv, code, digests", [
    ("E4", 300, ["hecke", "--op", "u", "--p", "3", "--out", "out"], 0,
     {"out": "15a645a2d077e16ee33b922952bbe9c0c448f6cf8bb403e7fd8ad6626ecb46b7"}),
    ("Delta", 2000, ["hecke", "--op", "tp", "--p", "3", "--verify-eigen",
                     "--out", "out", "--json", "json"], 0,
     {"out": "ae4d5000e3892699c3c79598cf98372aeb66edadb384b3085381ee36599b6817",
      "json": "cc1e5b8d13b136e4669cfde47bbdd267776a036fad01543ff83de58d358a8b77"}),
    # theta^13 is no eigenform: both commands exit 1 with a report
    ("theta(1)^13", 2000, ["hecke", "--op", "tsq", "--p", "3",
                           "--verify-eigen", "--json", "json"], 1,
     {"json": "dfa0ceb16f1fb26f9c12dffd4c1098f120ef02987180e2e12570fbb922760f7f"}),
    ("theta(1)^13", 2000, ["verify", "--suite", "bounds", "--p", "3,5",
                           "--json", "json"], 1,
     {"json": "50f58f507df8f4ed68de99fb788f0cb2c2319621343c0c9df2c03196198e0aeb"}),
    ("theta(1)^13", 2000, ["verify", "--suite", "plus-space",
                           "--json", "json"], 1,
     {"json": "a60741f186690f636479771b2bfafc21b12df95a5b1c4061e3bb06e304e6b4c3"}),
    ("Delta", 2000, ["signs", "--stats", "tot", "--X-list", "10,100,1000",
                     "--csv", "csv"], 0,
     {"csv": "797fd00b6a70c9d1d505dcae7ee3ab3a04800b334555d30bb0d00897ca6ce545"}),
], ids=["u3-E4", "tp3-Delta", "tsq3-theta13", "bounds-theta13",
        "plus-space-theta13", "tot-Delta"])
def test_operator_outputs_are_pinned(built, tmp_path, form, prec, argv, code,
                                     digests):
    # Digests taken before the operator images and eigen verdicts moved
    # into hecke, with the exit code each command gave then; u3-E4 was
    # taken again when images began to keep their constant term (its
    # body now starts at 0<TAB>1, as the U(3, E4(1)) build's does); the
    # failing plus-space report and the tot-only table were taken before
    # the verify suites and the signs statistics became one table each;
    # the three eigen reports were taken again when each prime's eigen
    # verdict became one record.
    src = built(form, prec)
    argv = [str(tmp_path / a) if a in digests else a for a in argv]
    assert run(argv[0], "--in", str(src), *argv[1:]) == code
    for name, digest in digests.items():
        assert sha256_of(tmp_path / name) == digest, name


def test_non_eigenform_verdicts(built, capsys):
    # The eigen report and a bounds entry give Deligne's bound whenever
    # lambda is an integer, eigenform or not; 39932 breaks the elementary
    # bound |lambda| < 3^6 + 3^5 too, which no report carries.
    src = built("theta(1)^13", 2000)
    assert run("hecke", "--in", str(src), "--op", "tsq", "--p", "3",
               "--verify-eigen") == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == 39932 and doc["is_eigen"] is False
    assert doc["deligne_ok"] is False and abs(doc["lambda"]) >= 3 ** 6 + 3 ** 5
    assert "elementary_bound_ok" not in doc
    assert run("verify", "--in", str(src), "--suite", "bounds",
               "--p", "3,5") == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["lambda"] for c in checks] == [39932, 10956510]
    assert [list(c) for c in checks] == [
        ["p", "lambda", "is_eigen", "checked_up_to", "first_violation",
         "satake", "deligne_ok", "pass"]] * 2
    assert [c["deligne_ok"] for c in checks] == [False, False]


@pytest.mark.parametrize("form, p", [("delta", 3), ("delta", 5),
                                     ("theta(1)^13", 3)])
def test_one_verdict_three_views(built, tmp_path, capsys, form, p):
    # hecke --verify-eigen, the bounds suite and the recurrence suite each
    # print one prime's verdict whole, in one key order, and add only
    # their own part: the header, the pass flag, the data along each t.
    # --verify-eigen reads the image --out writes, built once.
    src, image = built(form, 2000), tmp_path / "tsq.txt"
    with mock.patch.object(hecke, "t_square_half",
                           wraps=hecke.t_square_half) as tsq:
        code = run("hecke", "--in", str(src), "--op", "tsq", "--p", str(p),
                   "--verify-eigen", "--out", str(image))
    assert tsq.call_count == 1 and image.exists()
    report = json.loads(capsys.readouterr().out)
    verdict = [(k, v) for k, v in report.items()
               if k not in ("schema", "kind", "form", "op")]
    assert [k for k, _ in verdict][:5] == [
        "p", "lambda", "is_eigen", "checked_up_to", "first_violation"]
    for suite in ("bounds", "recurrence"):
        assert run("verify", "--in", str(src), "--suite", suite,
                   "--p", str(p)) == code
        [check] = json.loads(capsys.readouterr().out)["checks"]
        assert [(k, v) for k, v in check.items()
                if k not in ("pass", "along")] == verdict, suite


class TestLiftCommand:
    def test_lift_delta(self, built, tmp_path):
        src, dst = built("delta", 400), tmp_path / "lift.txt"
        assert run("lift", "--in", str(src), "--t", "1",
                   "--out", str(dst)) == 0
        cf = coeffio.read(str(dst))
        assert cf.form.prec == 20 and cf.t == 1    # isqrt(400)
        table = cf.form.coeffs
        assert table[1] == 1 and table[3] == 252

    def test_lift_g(self, built, tmp_path):
        src, dst = built("g", 300), tmp_path / "lift.txt"
        assert run("lift", "--in", str(src), "--t", "3",
                   "--out", str(dst)) == 0
        assert coeffio.read(str(dst)).form.coeffs[1] == 1

    @pytest.mark.parametrize("t", ["0", "-6", "4"])
    def test_file_with_bad_t_exits_2(self, built, tmp_path, capsys, t):
        src, lift = built("delta", 100), tmp_path / "lift.txt"
        assert run("lift", "--in", str(src), "--t", "1",
                   "--out", str(lift)) == 0
        text = lift.read_text()
        assert "# t: 1\n" in text
        lift.write_text(text.replace("# t: 1\n", "# t: %s\n" % t))
        with pytest.raises(ValueError, match="square-free positive"):
            coeffio.parse(lift.read_text())
        assert run("signs", "--in", str(lift), "--X-list", "1") == 2
        assert "square-free positive" in capsys.readouterr().err

    def test_file_t_above_every_prec_is_refused_unread(self, built, tmp_path,
                                                       monkeypatch):
        # No lift's t exceeds its source's prec, so a # t: above
        # LARGE_PREC_CAP is refused before any trial division.
        src, lift = built("delta", 100), tmp_path / "lift.txt"
        run("lift", "--in", str(src), "--t", "1", "--out", str(lift))
        big = 10 ** 30 + 57
        text = lift.read_text().replace("# t: 1\n", "# t: %d\n" % big)
        _bound_trial_division(monkeypatch, forms.LARGE_PREC_CAP)
        with pytest.raises(ValueError, match="lift index t=%d is above "
                           "1000000, the largest prec" % big):
            coeffio.parse(text)

    def test_non_squarefree_t_exits_2(self, built, tmp_path):
        src = built("delta", 100)
        assert run("lift", "--in", str(src), "--t", "12",
                   "--out", str(tmp_path / "x.txt")) == 2

    def test_lift_twists_by_a_character_mod_the_level(self, tmp_path):
        # theta_psi for psi = (-3/.) on level 36 with its own character,
        # read mod 36: chi(2) = 0, so A(2) = a(4) and A(4) = a(16); the
        # Kronecker symbol (-3/2) = -1 would give A(2) = -6, A(4) = 14.
        src, dst = tmp_path / "psi.txt", tmp_path / "lift.txt"
        run("build", "--form", "thetapsi(-3, 1)", "--prec", "400",
            "--out", str(src))
        text = src.read_text()
        assert "# character: trivial:36\n" in text
        src.write_text(text.replace("# character: trivial:36\n",
                                    "# character: kronecker:-3/mod:36\n"))
        assert run("lift", "--in", str(src), "--t", "1",
                   "--out", str(dst)) == 0
        a = coeffio.read(str(src)).form.coeffs
        A = coeffio.read(str(dst)).form.coeffs
        assert (a[4], a[16]) == (-4, 8)
        assert (A[1], A[2], A[4]) == (a[1], a[4], a[16]) == (2, -4, 8)


    @pytest.mark.parametrize("character", ["kronecker:-3/mod:4",
                                           "kronecker:-3/mod:2",
                                           "kronecker:-4/mod:2",
                                           "kronecker:12/mod:6"])
    def test_character_without_that_period_exits_2(self, tmp_path, capsys,
                                                   character):
        # (-3/.) is no character mod 4: it is 1 at 1 and -1 at 5.
        src, dst = tmp_path / "psi.txt", tmp_path / "lift.txt"
        run("build", "--form", "thetapsi(-3, 1)", "--prec", "100",
            "--out", str(src))
        src.write_text(src.read_text().replace(
            "# character: trivial:36\n", "# character: %s\n" % character))
        capsys.readouterr()
        assert run("lift", "--in", str(src), "--t", "1",
                   "--out", str(dst)) == 2
        top, modulus = character[len("kronecker:"):].split("/mod:")
        assert capsys.readouterr().err == (
            "error: (%s/.) is not periodic on the units mod %s\n"
            % (top, modulus))
        assert not dst.exists()


class TestHeckeCommand:
    def test_tsq_eigen_report(self, built, tmp_path, capsys):
        src = built("delta", 400)
        out = tmp_path / "tsq.txt"
        code = run("hecke", "--in", str(src), "--op", "tsq", "--p", "3",
                   "--verify-eigen", "--out", str(out))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == 252 and doc["is_eigen"]
        assert doc["deligne_ok"] and abs(doc["lambda"]) < 3 ** 6 + 3 ** 5
        assert doc["satake"] == {"trace": 252, "norm": 177147, "disc_sign": -1}
        body = [l for l in read_lines(out) if not l.startswith("#")]
        assert body[0] == "1\t252"

    def test_tp_on_integral_form(self, built, capsys):
        src = built("Delta", 100)
        assert run("hecke", "--in", str(src), "--op", "tp", "--p", "2",
                   "--verify-eigen") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == -24 and doc["is_eigen"]

    def test_u_extraction(self, built, tmp_path):
        src = built("g", 64)
        out = tmp_path / "u4.txt"
        assert run("hecke", "--in", str(src), "--op", "u", "--p", "4",
                   "--out", str(out)) == 0
        table = coeffio.read(str(out)).form.coeffs
        assert table[1] == -1     # a(4) of g

    @pytest.mark.parametrize("form, m, level", [("E4", 3, 3), ("E4", 1, 1),
                                                ("g", 3, 132), ("delta", 4, 4)])
    def test_u_image_level(self, built, tmp_path, form, m, level):
        # f | U_m lies on level lcm(N, m); a trivial character follows it,
        # except in half-integral weight for a non-square m, where it
        # becomes (4m/.) on lcm(N, 4m): (4*3 * 44^2 / .) for g and m = 3.
        src, out = built(form, 60), tmp_path / "u.txt"
        assert run("hecke", "--in", str(src), "--op", "u", "--p", str(m),
                   "--out", str(out)) == 0
        lines = read_lines(out)
        assert "# level: %d" % level in lines
        character = ("kronecker:%d/mod:%d" % (12 * 44 ** 2, level)
                     if form == "g" else "trivial:%d" % level)
        assert "# character: %s" % character in lines

    @pytest.mark.parametrize("m, level", [(2, 8), (3, 12), (5, 20)])
    def test_u_image_is_an_eigenform(self, built, tmp_path, capsys, m, level):
        # delta | U_m for a non-square m has character (4m/.) on level
        # lcm(4, 4m) (Ono, The Web of Modularity, Prop. 3.7), and with it
        # it is a T(p^2) eigenform with delta's eigenvalues.
        image = tmp_path / "u.txt"
        assert run("hecke", "--in", str(built("delta", 10_000)), "--op",
                   "u", "--p", str(m), "--out", str(image)) == 0
        cf = coeffio.read(str(image))
        assert cf.form.level == level
        assert cf.form.character == DirichletCharacter(top=16 * 4 * m,
                                                       modulus=level)
        for p, lam in ((7, -16744), (11, 534612), (13, -577738)):
            assert run("hecke", "--in", str(image), "--op", "tsq", "--p",
                       str(p), "--verify-eigen") == 0, (m, p)
            assert json.loads(capsys.readouterr().out)["lambda"] == lam

    def test_square_top_is_written_trivial(self, built, tmp_path):
        # U_3 of delta's U_3 image has the top 16 * 12 * 12 = 48^2, the
        # trivial character mod 12, and U_9's body.  A file that writes
        # that character as kronecker:2304/mod:12 is not canonical.
        u3, u33, u9 = (tmp_path / n for n in ("u3.txt", "u33.txt", "u9.txt"))
        delta = str(built("delta", 10_000))
        for src, m, out in ((delta, 3, u3), (u3, 3, u33), (delta, 9, u9)):
            assert run("hecke", "--in", str(src), "--op", "u", "--p", str(m),
                       "--out", str(out)) == 0
        assert "# character: trivial:12" in read_lines(u33)
        assert body(u33) == body(u9)
        old = u33.read_text().replace("trivial:12", "kronecker:2304/mod:12")
        with pytest.raises(ValueError, match="is not written as "
                           "'# character: trivial:12'"):
            coeffio.parse(old)

    @pytest.mark.parametrize("argv", [
        ["hecke", "--op", "tsq", "--p", "3", "--out", "out.txt"],
        ["hecke", "--op", "tsq", "--p", "3", "--verify-eigen"],
        ["lift", "--t", "1", "--out", "out.txt"],
        ["verify", "--suite", "bounds", "--p", "3"],
        ["verify", "--suite", "recurrence", "--t", "1", "--p", "3"],
    ], ids=["tsq", "tsq-eigen", "lift", "bounds", "recurrence"])
    def test_weight_one_half_exits_2(self, built, tmp_path, capsys, argv):
        # T(p^2) in weight 1/2 has the factor p^(k-1) = 1/p, and the lift
        # would have weight 0: both are refused, and nothing is written.
        src, out = built("theta(1)", 200), tmp_path / "out.txt"
        argv = [str(out) if a == "out.txt" else a for a in argv]
        assert run(argv[0], "--in", str(src), *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: weight 1/2 is not supported: T(p^2) "
                                "and the Shimura lift need weight 3/2 or "
                                "more\n")
        assert not out.exists()

    # A prime (10^30 + 57) far above any precision: trial division would
    # not end.
    BIG = 10 ** 30 + 57

    @pytest.mark.parametrize("form, argv, message", [
        ("delta", ["hecke", "--op", "tsq", "--p", str(BIG), "--out", "out"],
         "p^2 = %d exceeds the precision 100" % BIG ** 2),
        ("delta", ["verify", "--suite", "bounds", "--p", str(BIG)],
         "p^2 = %d exceeds the precision 100" % BIG ** 2),
        ("delta", ["verify", "--suite", "recurrence", "--p", str(BIG)],
         "p^2 = %d exceeds the precision 100" % BIG ** 2),
        ("Delta", ["hecke", "--op", "tp", "--p", str(BIG), "--out", "out"],
         "p = %d exceeds the precision 100" % BIG),
        ("delta", ["signs", "--X-list", "10", "--t", str(BIG),
                   "--csv", "out"], "a(t) is beyond the form's precision"),
        ("delta", ["lift", "--t", str(BIG), "--out", "out"],
         "a(t) is beyond the form's precision"),
    ], ids=["tsq", "bounds", "recurrence", "tp", "signs", "lift"])
    def test_precision_bounds_before_trial_division(
            self, built, tmp_path, capsys, monkeypatch, form, argv, message):
        src, out = built(form, 100), tmp_path / "out"
        _bound_trial_division(monkeypatch, 100)
        argv = [str(out) if a == "out" else a for a in argv]
        assert run(argv[0], "--in", str(src), *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % message
        assert captured.out == "" and not out.exists()

    def test_tsq_without_eigen_check_writes_the_image(self, built, tmp_path):
        # g at prec 20 has a(1) = a(2) = 0, so no eigenvalue can be read
        # off its T(9) image; without --verify-eigen none is asked for.
        src, out = built("g", 20), tmp_path / "tsq.txt"
        assert run("hecke", "--in", str(src), "--op", "tsq", "--p", "3",
                   "--out", str(out)) == 0
        image = coeffio.read(str(out)).form
        assert image.prec == 2 and image.level == 44

    @pytest.mark.parametrize("form, prec, argv, message", [
        ("delta", 100, ["hecke", "--op", "tsq", "--p", "11", "--out", "out"],
         "p^2 = 121 exceeds the precision 100"),
        ("delta", 100, ["verify", "--suite", "bounds", "--p", "11"],
         "p^2 = 121 exceeds the precision 100"),
        ("delta", 100, ["verify", "--suite", "recurrence", "--p", "11"],
         "p^2 = 121 exceeds the precision 100"),
        ("Delta", 10, ["hecke", "--op", "tp", "--p", "11", "--out", "out"],
         "p = 11 exceeds the precision 10"),
        ("delta", 100, ["hecke", "--op", "u", "--p", "500", "--out", "out"],
         "m = 500 exceeds the precision 100"),
    ], ids=["tsq", "bounds", "recurrence", "tp", "u"])
    def test_prime_beyond_precision_exits_2(self, built, tmp_path, capsys,
                                            form, prec, argv, message):
        src, out = built(form, prec), tmp_path / "out"
        argv = [str(out) if a == "out" else a for a in argv]
        assert run(argv[0], "--in", str(src), *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % message
        assert captured.out == "" and not out.exists()

    def test_u_image_is_its_expression(self, tmp_path):
        # hecke's U_3 and the expression U(3, E4(1)) write the same file,
        # a(0) = 1 included, apart from the form id.
        src, image, expr = (tmp_path / n for n in ("e4.txt", "u3.txt",
                                                   "expr.txt"))
        assert run("build", "--form", "E4", "--prec", "300",
                   "--out", str(src)) == 0
        assert run("hecke", "--in", str(src), "--op", "u", "--p", "3",
                   "--out", str(image)) == 0
        assert run("build", "--form", "U(3, E4(1))", "--prec", "100",
                   "--out", str(expr)) == 0
        assert read_lines(image)[1] == "# form: u3(E4)"
        assert read_lines(image)[2:] == read_lines(expr)[2:]
        assert "0\t1" in read_lines(image)

    @pytest.mark.parametrize("p, sigma3", [(2, 9), (3, 28)])
    def test_tp_of_e4_is_sigma3_times_e4(self, built, tmp_path, p, sigma3):
        src, out = built("E4", 300), tmp_path / "tp.txt"
        assert run("hecke", "--in", str(src), "--op", "tp", "--p", str(p),
                   "--out", str(out)) == 0
        e4, image = coeffio.read(str(src)).form, coeffio.read(str(out)).form
        assert image.prec == 300 // p
        assert image.coeffs == [sigma3 * c for c in e4.coeffs[:image.prec + 1]]
        assert read_lines(out)[6:8] == ["# offset: 0", "0\t%d" % sigma3]

    def test_bad_prime_exits_2(self, built):
        src = built("delta", 100)
        assert run("hecke", "--in", str(src), "--op", "tsq", "--p", "2") == 2

    @pytest.mark.parametrize("extra, message", [
        (["--op", "tsq", "--json", "report.json"], "--json needs --verify-eigen"),
        (["--op", "u", "--verify-eigen", "--out", "report.json"],
         "--verify-eigen needs --op tsq or tp"),
    ])
    def test_option_without_effect_exits_2(self, built, tmp_path, capsys,
                                           extra, message):
        src, report = built("delta", 100), tmp_path / "report.json"
        argv = [str(report) if a == "report.json" else a for a in extra]
        assert run("hecke", "--in", str(src), "--p", "3", *argv) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not report.exists()

    def test_non_eigenform_exits_1(self, tmp_path, capsys):
        # delta plus a plus-space-compatible junk coefficient is not eigen
        d = delta_form(400)
        coeffs = list(d.coeffs)
        coeffs[21] += 7    # 21 = 1 mod 4 keeps the support condition
        cf = coeffio.CoefficientFile("mangled", Form(
            weight_num=13, level=4, character=d.character, coeffs=coeffs))
        src = tmp_path / "mangled.txt"
        cf.write(str(src))
        code = run("hecke", "--in", str(src), "--op", "tsq", "--p", "3",
                   "--verify-eigen")
        assert code == 1
        assert json.loads(capsys.readouterr().out)["is_eigen"] is False


class TestSignsCommand:
    def test_csv_table(self, built, tmp_path):
        src = built("delta", 1000)
        csv = tmp_path / "table.csv"
        assert run("signs", "--in", str(src), "--stats", "tot,fund",
                   "--X-list", "10,100,1000", "--csv", str(csv)) == 0
        assert read_lines(csv) == ["X,R_tot,R_fund",
                                   "10,0.600,0.667",
                                   "100,0.520,0.548",
                                   "1000,0.518,0.515"]

    def test_each_row_is_its_own_scan(self, built, tmp_path):
        # An unsorted, repeated X-list: every row is the counts of that X's
        # own masks alone, in the order given.
        src, csv = built("g", 1000), tmp_path / "table.csv"
        assert run("signs", "--in", str(src), "--X-list", "1000,10,100,10",
                   "--csv", str(csv)) == 0
        g = coeffio.read(str(src)).form
        want = ["X,R_tot,R_fund"]
        for X in (1000, 10, 100, 10):
            row = ["%d" % X]
            for index_set in (signs.prefix, signs.fundamental):
                [(n_pos, n_neg)] = signs.counts(g, index_set(g, X), [X])
                row.append(signs.render_ratio(n_pos, n_pos + n_neg, 3))
            want.append(",".join(row))
        assert read_lines(csv) == want

    def test_fundamental_runs_once(self, built, monkeypatch):
        src = built("delta", 1000)
        calls = []
        fundamental = signs.fundamental

        def spy(f, X):
            calls.append(X)
            return fundamental(f, X)
        monkeypatch.setattr(signs, "fundamental", spy)
        assert run("signs", "--in", str(src),
                   "--X-list", "10,1000,100,1000") == 0
        assert calls == [1000]

    def test_csv_byte_stable(self, built, tmp_path):
        src = built("g", 500)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("signs", "--in", str(src), "--X-list", "10,100,500",
            "--csv", str(a))
        run("signs", "--in", str(src), "--X-list", "10,100,500",
            "--csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_six_decimals_above_1000(self, built, tmp_path):
        src = built("delta", 10000)
        csv = tmp_path / "t.csv"
        run("signs", "--in", str(src), "--X-list", "10000", "--csv", str(csv))
        assert read_lines(csv)[1] == "10000,0.504600,0.501643"

    def test_subsequence_report(self, built, capsys):
        src = built("g", 300)
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--t", "3", "--powers-p", "3") == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        kinds = [r["kind"] for r in doc["reports"]]
        assert kinds == ["square-class", "prime-power"]

    def test_powers_p_without_t_exits_2(self, built, tmp_path, capsys):
        src, csv = built("delta", 300), tmp_path / "out.csv"
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--powers-p", "3", "--csv", str(csv)) == 2
        assert capsys.readouterr() == ("", "error: --powers-p needs --t\n")
        assert not csv.exists()

    def test_json_without_a_report_exits_2(self, built, tmp_path, capsys):
        # Only --t and --dprime make reports: a --json with neither would
        # never be written, so nothing is.
        src, csv, report = (built("delta", 300), tmp_path / "out.csv",
                            tmp_path / "report.json")
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--csv", str(csv), "--json", str(report)) == 2
        assert capsys.readouterr() == (
            "", "error: --json needs --t or --dprime\n")
        assert not csv.exists() and not report.exists()

    def test_failed_report_writes_no_table(self, built, tmp_path, capsys):
        src, csv = built("delta", 3000), tmp_path / "out.csv"
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--csv", str(csv), "--t", "5001") == 2
        assert "error" in capsys.readouterr().err
        assert not csv.exists()

    def test_dprime_survey(self, built, capsys):
        src = built("delta", 300)
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--dprime", "3:1") == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        survey = doc["reports"][0]
        assert survey["kind"] == "dprime-survey"
        assert all(t % 3 != 0 for t in survey["t_values"])

    def test_dprime_reads_one_symbol_per_t_at_most(self, built, capsys):
        # p = 1000003 is above the prec: (t/p) is read for the t that
        # occur, not for every residue mod p, and the survey is the one a
        # per-t filter gives.
        src = built("delta", 2000)
        p = 1000003
        with mock.patch.object(signs, "kronecker",
                               wraps=signs.kronecker) as spy:
            assert run("signs", "--in", str(src), "--X-list", "10",
                       "--dprime", "%d:1" % p) == 0
        assert spy.call_count <= 2001
        out = capsys.readouterr().out
        survey = json.loads(out[out.index("{"):])["reports"][0]
        f = coeffio.read(str(src)).form
        first = signs.first_nonzero(f, [t for t in range(1, 2001)
                                        if arith.kronecker(t, p) == 1])
        rep = signs.scan(f, first.values())
        assert survey == {"kind": "dprime-survey", "primes": [p], "eps": [1],
                          "entries": rep.entries,
                          "sign_changes": rep.sign_change_count,
                          "t_values": list(first)[:50]}

    @pytest.mark.parametrize("dprime, bad", [("9:1,25:-1", 9), ("1:1", 1),
                                              ("0:1", 0)])
    def test_dprime_needs_primes(self, built, tmp_path, capsys, dprime, bad):
        src, csv = built("delta", 300), tmp_path / "out.csv"
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--csv", str(csv), "--dprime", dprime) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: %d is not prime\n" % bad
        assert captured.out == "" and not csv.exists()

    def test_unknown_stat_exits_2(self, built):
        src = built("delta", 50)
        assert run("signs", "--in", str(src), "--stats", "median") == 2

    def test_range_violation_exits_2(self, built):
        src = built("delta", 50)
        assert run("signs", "--in", str(src), "--X-list", "100") == 2

    @pytest.mark.parametrize("option", ["--X-list", "--stats"])
    def test_empty_list_exits_2(self, built, tmp_path, capsys, option):
        src, csv = built("delta", 50), tmp_path / "out.csv"
        assert run("signs", "--in", str(src), option, "",
                   "--csv", str(csv)) == 2
        assert capsys.readouterr() == (
            "", "error: %s needs at least one value\n" % option)
        assert not csv.exists()

    @pytest.mark.parametrize("xs, bad", [("0", 0), ("-5", -5),
                                         ("10,-5,0", -5)])
    def test_nonpositive_X_is_named(self, built, tmp_path, capsys, xs, bad):
        src, csv = built("delta", 50), tmp_path / "out.csv"
        assert run("signs", "--in", str(src), "--X-list", xs,
                   "--csv", str(csv)) == 2
        assert capsys.readouterr() == (
            "", "error: --X-list: X must be positive, got %d\n" % bad)
        assert not csv.exists()

    def test_empty_dprime_exits_2(self, built, tmp_path, capsys):
        src, csv = built("delta", 50), tmp_path / "out.csv"
        assert run("signs", "--in", str(src), "--X-list", "10",
                   "--dprime", "", "--csv", str(csv)) == 2
        assert capsys.readouterr() == (
            "", "error: --dprime needs at least one value\n")
        assert not csv.exists()

    def test_dprime_skips_empty_items(self, built, capsys):
        src = built("g", 300)
        outs = []
        for dprime in ("3:1,5:-1", "3:1,,5:-1,"):
            assert run("signs", "--in", str(src), "--X-list", "10",
                       "--dprime", dprime) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        survey = json.loads(outs[0][outs[0].index("{"):])["reports"][0]
        assert (survey["primes"], survey["eps"]) == ([3, 5], [1, -1])

    @pytest.mark.parametrize("option, text, message", [
        ("--X-list", "10,x", "--X-list: 'x' is not an integer"),
        ("--dprime", "3:1,y:1", "--dprime: 'y' is not an integer"),
        ("--dprime", "3:+x", "--dprime: '+x' is not an integer"),
        ("--dprime", "3", "--dprime: '3' is not p:eps")])
    def test_non_integer_item_is_named(self, built, tmp_path, capsys, option,
                                       text, message):
        src, csv = built("delta", 50), tmp_path / "out.csv"
        assert run("signs", "--in", str(src), "--X-list", "10", option, text,
                   "--csv", str(csv)) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)
        assert not csv.exists()


class TestVerifyCommand:
    def test_plus_space_pass(self, built, capsys):
        src = built("delta", 200)
        assert run("verify", "--in", str(src), "--suite", "plus-space") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] and doc["schema"] == 1

    @pytest.mark.parametrize("level", ["0", "-4"])
    def test_nonpositive_level_exits_2(self, tmp_path, capsys, level):
        src = tmp_path / "delta.txt"
        run("build", "--form", "delta", "--prec", "100", "--out", str(src))
        src.write_text(src.read_text().replace("# level: 4\n",
                                               "# level: %s\n" % level))
        assert run("signs", "--in", str(src), "--X-list", "10,100") == 2
        assert run("verify", "--in", str(src), "--suite", "plus-space") == 2
        assert "level must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "bounds", "--p", "5", "--json"),
        ("hecke", "--op", "u", "--p", "3", "--out"),
        ("lift", "--t", "1", "--out")])
    def test_character_off_the_level_exits_2(self, tmp_path, capsys, argv):
        # (5/.) mod 5 is no character on level 4: the file is refused
        # before any command reads its body, and nothing is written.
        src, out = tmp_path / "delta.txt", tmp_path / "out"
        run("build", "--form", "delta", "--prec", "200", "--out", str(src))
        src.write_text(src.read_text().replace(
            "# character: trivial:4\n", "# character: kronecker:5/mod:5\n"))
        capsys.readouterr()
        assert run(argv[0], "--in", str(src), *argv[1:], str(out)) == 2
        assert capsys.readouterr() == (
            "", "error: character modulus 5 does not divide the level 4\n")
        assert not out.exists()

    def test_plus_space_failure_exits_1(self, tmp_path, capsys):
        cf = coeffio.CoefficientFile("bad", Form(
            weight_num=13, level=4, character=DirichletCharacter.trivial(4),
            coeffs=[0, 1, 1, 0, 0]))
        src = tmp_path / "bad.txt"
        cf.write(str(src))
        assert run("verify", "--in", str(src), "--suite", "plus-space") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == [{"n": 2, "a": 1}]

    def test_recurrence_suite(self, built, capsys):
        src = built("delta", 2000)
        assert run("verify", "--in", str(src), "--suite", "recurrence",
                   "--t", "1,5", "--p", "3,5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] and [c["p"] for c in doc["checks"]] == [3, 5]
        first = doc["checks"][0]
        assert first["lambda"] == 252 and len(first["along"]) == 2
        assert first["along"][0]["witnesses"][0] == {"n": 1, "a": 1}

    def test_bounds_suite(self, built, capsys):
        src = built("g", 2000)
        assert run("verify", "--in", str(src), "--suite", "bounds",
                   "--p", "3,5,7,13") == 0
        doc = json.loads(capsys.readouterr().out)
        # g has weight 3/2: the elementary bound is |lambda| < p + 1.
        assert all(c["deligne_ok"] and abs(c["lambda"]) < c["p"] + 1
                   for c in doc["checks"])

    def test_prop2_suite(self, built, capsys):
        src = built("delta", 2000)
        assert run("verify", "--in", str(src), "--suite", "prop2",
                   "--p", "3", "--limit", "2000") == 0
        doc = json.loads(capsys.readouterr().out)
        witnesses = {(w["eps"], w["sign"]): w for w in
                     doc["checks"][0]["witnesses"]}
        assert witnesses[(-1, 1)]["n"] == 5
        assert witnesses[(-1, -1)]["n"] == 8

    def test_prop2_insufficient_limit_exits_1(self, built, capsys):
        src = built("delta", 200)
        assert run("verify", "--in", str(src), "--suite", "prop2",
                   "--p", "3", "--limit", "3") == 1
        capsys.readouterr()

    @pytest.mark.parametrize("p, reason", [
        ("9", "9 is not prime"), ("1", "1 is not prime"),
        ("11", "p=11 divides the level 44")])
    def test_prop2_needs_a_good_prime(self, built, tmp_path, capsys, p,
                                      reason):
        src, report = built("g", 2000), tmp_path / "report.json"
        assert run("verify", "--in", str(src), "--suite", "prop2", "--p", p,
                   "--json", str(report)) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % reason)
        assert not report.exists()

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_prop2_needs_a_positive_limit(self, built, tmp_path, capsys,
                                          limit):
        src, report = built("delta", 200), tmp_path / "report.json"
        assert run("verify", "--in", str(src), "--suite", "prop2", "--p", "3",
                   "--limit=" + limit, "--json", str(report)) == 2
        assert capsys.readouterr() == (
            "", "error: limit must be positive, got %s\n" % limit)
        assert not report.exists()

    @pytest.mark.parametrize("argv", [["--suite", "bounds", "--p", ","],
                                      ["--suite", "recurrence", "--t", ""]],
                             ids=["p", "t"])
    def test_empty_list_exits_2(self, built, tmp_path, capsys, argv):
        src, report = built("delta", 200), tmp_path / "report.json"
        assert run("verify", "--in", str(src), *argv,
                   "--json", str(report)) == 2
        assert capsys.readouterr() == (
            "", "error: %s needs at least one value\n" % argv[2])
        assert not report.exists()

    @pytest.mark.parametrize("suite, option, text, item", [
        ("recurrence", "--p", "3,x", "x"),
        ("recurrence", "--t", "1,5.0", "5.0"),
        ("prop2", "--limit", "1e4", "1e4")],
        ids=["--p-3,x", "--t-1,5.0", "--limit-1e4"])
    def test_non_integer_item_is_named(self, built, tmp_path, capsys, suite,
                                       option, text, item):
        src, report = built("delta", 200), tmp_path / "report.json"
        assert run("verify", "--in", str(src), "--suite", suite,
                   option, text, "--json", str(report)) == 2
        assert capsys.readouterr() == (
            "", "error: %s: %r is not an integer\n" % (option, item))
        assert not report.exists()

    def test_failed_recurrence_says_why(self, tmp_path, capsys):
        src = tmp_path / "theta13.txt"
        run("build", "--form", "theta(1)^13", "--prec", "500",
            "--out", str(src))
        assert run("verify", "--in", str(src), "--suite", "recurrence",
                   "--t", "1", "--p", "3") == 1
        [check] = json.loads(capsys.readouterr().out)["checks"]
        assert (check["is_eigen"], check["first_violation"]) == (False, 2)
        assert check["along"] == [{"t": 1, "max_m": 0,
                                   "witnesses": [{"n": 1, "a": 26}]}]

    def test_recurrence_reads_one_image_per_prime(self, built, capsys):
        # Each prime's T(p^2) eigen verdict serves every t: one check per
        # p, and along it one entry per t, with max_m the last m of
        # t p^(2m) within prec.
        src = built("delta", 2000)
        with mock.patch.object(hecke, "t_square_half",
                               wraps=hecke.t_square_half) as tsq:
            assert run("verify", "--in", str(src), "--suite", "recurrence",
                       "--t", "1,5,13", "--p", "3,5") == 0
        assert tsq.call_count == 2
        checks = json.loads(capsys.readouterr().out)["checks"]
        f = coeffio.read(str(src)).form
        assert [(a["t"], c["p"], a["max_m"])
                for c in checks for a in c["along"]] == [
            (t, p, len(signs.prime_powers(f, t, p)) - 1)
            for p in (3, 5) for t in (1, 5, 13)]

    @pytest.mark.parametrize("form, prec, argv, message", [
        ("delta", 200, ["--t", "4", "--p", "2"], "p=2 divides the level 4"),
        ("delta", 100, ["--t", "101", "--p", "11"],
         "p^2 = 121 exceeds the precision 100"),
        ("Delta", 300, ["--p", "5"],
         "needs a form of half-integral weight, got weight 24/2"),
        ("Delta", 300, ["--t", "4", "--p", "9"],
         "needs a form of half-integral weight, got weight 24/2"),
    ], ids=["p-before-t", "prec-before-t", "weight", "weight-first"])
    def test_recurrence_refusal_order(self, tmp_path, capsys, form, prec,
                                      argv, message):
        # The weight is checked first, then each p (p^2 within precision,
        # then prime and good), then each t; nothing is written.
        src, report = tmp_path / "f.txt", tmp_path / "rec.json"
        run("build", "--form", form, "--prec", str(prec), "--out", str(src))
        assert run("verify", "--in", str(src), "--suite", "recurrence",
                   *argv, "--json", str(report)) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)
        assert not report.exists()

    def test_out_of_range_t_exits_2(self, built):
        src = built("delta", 100)
        assert run("verify", "--in", str(src), "--suite", "recurrence",
                   "--t", "101", "--p", "3") == 2

    @pytest.mark.parametrize("suite, option, value", [
        ("bounds", "--t", "4"), ("prop2", "--t", "1"),
        ("plus-space", "--t", "1"), ("plus-space", "--p", "9"),
        ("plus-space", "--limit", "-5"), ("bounds", "--limit", "5"),
        ("recurrence", "--limit", "5")])
    def test_an_option_the_suite_does_not_read_exits_2(self, built, tmp_path,
                                                       capsys, suite, option,
                                                       value):
        # An option no check reads would pass unchecked, whatever its
        # value: it is refused, and no report is written.
        src, report = built("delta", 200), tmp_path / "report.json"
        assert run("verify", "--in", str(src), "--suite", suite, option,
                   value, "--json", str(report)) == 2
        assert capsys.readouterr() == (
            "", "error: --suite %s takes no %s\n" % (suite, option))
        assert not report.exists()

    def test_json_file_output(self, built, tmp_path):
        src = built("delta", 100)
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

    @pytest.mark.parametrize("argv", [
        ["build", "--form", "delta", "--prec", "x", "--out"],
        ["lift", "--t", "x", "--out"],
        ["hecke", "--op", "tsq", "--p", "x", "--out"],
        ["signs", "--t", "x", "--csv"],
        ["signs", "--t", "1", "--powers-p", "x", "--csv"],
        ["signs", "--X-list", "x", "--csv"],
        ["verify", "--suite", "recurrence", "--t", "x", "--json"],
        ["verify", "--suite", "recurrence", "--p", "x", "--json"],
        ["verify", "--suite", "prop2", "--limit", "x", "--json"],
    ], ids=lambda argv: argv[0] + argv[argv.index("x") - 1])
    def test_every_integer_option_refuses_a_non_integer_in_one_line(
            self, built, tmp_path, capsys, argv):
        # One spelling for every option read as an integer: one line,
        # exit 2 and no output, never argparse's usage block.
        out = tmp_path / "out"
        if argv[0] != "build":
            argv = [argv[0], "--in", str(built("delta", 200)), *argv[1:]]
        assert run(*argv, str(out)) == 2
        assert capsys.readouterr() == (
            "", "error: %s: 'x' is not an integer\n" % argv[argv.index("x") - 1])
        assert not out.exists()


QSIGNS_MODULES = ("arith", "qseries", "forms", "formspec", "coeffio", "signs",
                  "hecke", "cli")

# A tiny build and a hecke command run every qsigns module between them;
# importing the CLI alone leaves four of them unrun.
RUN_EVERY_MODULE = (
    "import types, qsigns.cli\n"
    "qsigns.cli.main(['build', '--form', 'delta', '--prec', '40',"
    " '--out', 'd.txt'])\n"
    "qsigns.cli.main(['hecke', '--in', 'd.txt', '--op', 'tsq', '--p', '3',"
    " '--out', 'h.txt'])\n"
    "assert all(type(m) is types.ModuleType for n, m in sys.modules.items()"
    " if n.startswith('qsigns'))")


def _cli_probes(tmp_path):
    """The modules new to an interpreter that imports the CLI, and to one
    that runs every qsigns module through it."""
    return [fresh_import("import qsigns.cli"),
            fresh_import(RUN_EVERY_MODULE, cwd=tmp_path)]


def test_imports_only_the_standard_library(tmp_path):
    # The package stays dependency-free: importing or running the CLI may
    # load no module beyond those the interpreter had at start-up, the
    # standard library and qsigns itself.
    for modules in _cli_probes(tmp_path):
        new = {m.partition(".")[0] for m in modules}
        assert "qsigns" in new
        assert new - set(sys.stdlib_module_names) - {"qsigns"} == set()


def test_the_cli_imports_neither_dataclasses_nor_inspect(tmp_path):
    # Each command is a new process, so the CLI's imports are paid on
    # every one: its classes are written out, not generated.
    for modules in _cli_probes(tmp_path):
        assert not set(modules) & {"dataclasses", "inspect"}


# One of each read command: the sign table and the subsequence reports,
# the three read-side suites, T(p^2) and the lift.
READ_COMMANDS = [
    ["signs", "--in", "d.txt", "--X-list", "10,100", "--csv", "t.csv"],
    ["signs", "--in", "d.txt", "--X-list", "10", "--t", "1", "--powers-p",
     "3", "--csv", "t2.csv", "--json", "sub.json"],
    ["verify", "--in", "d.txt", "--suite", "recurrence", "--p", "3",
     "--json", "recurrence.json"],
    ["verify", "--in", "d.txt", "--suite", "bounds", "--p", "3,5",
     "--json", "bounds.json"],
    ["verify", "--in", "g.txt", "--suite", "prop2", "--p", "3",
     "--json", "prop2.json"],
    ["hecke", "--in", "d.txt", "--op", "tsq", "--p", "3", "--out",
     "tsq.txt"],
    ["lift", "--in", "d.txt", "--t", "1", "--out", "lift.txt"],
]


def test_read_commands_load_neither_fractions_nor_decimal(tmp_path):
    # A read command's ratios are two ints, so no read command pays for
    # importing fractions, or the decimal module fractions imports.
    run("build", "--form", "delta", "--prec", "300",
        "--out", str(tmp_path / "d.txt"))
    run("build", "--form", "g", "--prec", "300",
        "--out", str(tmp_path / "g.txt"))
    script = ("import json, sys, qsigns.cli\n"
              "codes = [qsigns.cli.main(argv) for argv in %r]\n"
              "print(json.dumps([codes, sorted({'fractions', 'decimal'}"
              " & set(sys.modules))]))\n" % (READ_COMMANDS,))
    assert json.loads(fresh_python(script, cwd=tmp_path)) == [
        [0] * len(READ_COMMANDS), []]


def test_the_package_imports_no_module():
    # The package namespace re-exports nothing, so one module loads only
    # what it imports itself.
    assert {m for m in fresh_import("import qsigns.arith")
            if m.startswith("qsigns")} == {"qsigns", "qsigns.arith"}


def test_read_side_commands_never_run_the_q_series_engine(tmp_path):
    # A command that reads a file compiles and runs neither formspec nor
    # qseries, and a sign table not hecke either; a module not yet run is
    # still the loader's placeholder type.  All eight modules are in
    # sys.modules at once, which a tracer that wraps their functions
    # after importing the CLI relies on.
    run("build", "--form", "delta", "--prec", "300",
        "--out", str(tmp_path / "d.txt"))
    run("build", "--form", "g", "--prec", "300",
        "--out", str(tmp_path / "g.txt"))
    commands = [
        ["signs", "--in", "d.txt", "--X-list", "10,100", "--csv", "t.csv"],
        ["verify", "--in", "g.txt", "--suite", "prop2", "--p", "3",
         "--json", "prop2.json"],
        ["verify", "--in", "d.txt", "--suite", "bounds", "--p", "3,5",
         "--json", "bounds.json"],
        ["hecke", "--in", "d.txt", "--op", "tsq", "--p", "3", "--out",
         "tsq.txt"],
        ["lift", "--in", "d.txt", "--t", "1", "--out", "lift.txt"],
        ["build", "--form", "delta", "--prec", "40", "--out", "b.txt"],
    ]
    script = ("import json, sys, types\n"
              "import qsigns.cli\n"
              "names = %r\n"
              "def unrun():\n"
              "    return sorted(n for n in names if type(sys.modules["
              "'qsigns.' + n]) is not types.ModuleType)\n"
              "steps = [[sorted(n for n in names"
              " if 'qsigns.' + n in sys.modules), unrun()]]\n"
              "for argv in %r:\n"
              "    steps.append([argv[0], qsigns.cli.main(argv), unrun()])\n"
              "print(json.dumps(steps))\n" % (QSIGNS_MODULES, commands))
    steps = json.loads(fresh_python(script, cwd=tmp_path))
    engine = ["formspec", "qseries"]
    assert steps == [[sorted(QSIGNS_MODULES),
                      ["formspec", "hecke", "qseries", "signs"]],
                     ["signs", 0, ["formspec", "hecke", "qseries"]],
                     ["verify", 0, ["formspec", "hecke", "qseries"]],
                     ["verify", 0, engine],
                     ["hecke", 0, engine],
                     ["lift", 0, engine],
                     ["build", 0, []]]


@pytest.mark.parametrize("module, spelling", [
    ("qseries", "import qsigns.qseries as qs\n"
                "assert qs is qsigns.forms.qseries\n"
                "assert isinstance(qs.QSeries, type)"),
    ("formspec", "from qsigns import formspec\n"
                 "assert formspec is qsigns.forms.formspec\n"
                 "assert formspec.parse_formspec('theta(1)')"),
    ("hecke", "import qsigns\n"
              "assert qsigns.hecke is qsigns.cli.hecke\n"
              "assert callable(qsigns.hecke.t_square_half)"),
    ("formspec", "from unittest import mock\n"
                 "with mock.patch.object(qsigns.formspec, 'parse_formspec',"
                 " side_effect=ValueError('patched')) as fake:\n"
                 "    assert qsigns.cli.main(['build', '--form', 'theta(1)',"
                 " '--prec', '5', '--out', 'x.txt']) == 2\n"
                 "assert fake.call_count == 1\n"
                 "assert qsigns.formspec.parse_formspec('theta(1)')"),
], ids=["import-as", "from-import", "package-attribute", "mock-patch"])
def test_every_import_spelling_reaches_a_module_not_yet_run(tmp_path, module,
                                                            spelling):
    # Each spelling gets the one module object forms or cli holds, before
    # that module has run, and works through it.
    script = ("import sys, types\n"
              "import qsigns.cli\n"
              "assert type(sys.modules['qsigns.%s']) is not types.ModuleType\n"
              "%s\n"
              "assert sys.modules['qsigns.%s'] is qsigns.%s\n"
              "print('ok')\n" % (module, spelling, module, module))
    assert fresh_python(script, cwd=tmp_path) == "ok\n"


def test_a_prime_no_precision_bounds_is_tested_at_once(tmp_path):
    # No precision bounds the p of --powers-p's m = 0 term, of prop2's
    # Kronecker classes or of the --dprime survey.  Trial division up to
    # sqrt(p) took seconds per command at p = 10000000000000061; the
    # three together must now end within 5 s and write the reports and
    # tables that trial division wrote.
    run("build", "--form", "delta", "--prec", "2000",
        "--out", str(tmp_path / "d.txt"))
    run("build", "--form", "g", "--prec", "2000",
        "--out", str(tmp_path / "g.txt"))
    p = "10000000000000061"
    commands = [
        ["signs", "--in", "d.txt", "--X-list", "10", "--t", "1",
         "--powers-p", p, "--csv", "pp.csv", "--json", "pp.json"],
        ["verify", "--in", "g.txt", "--suite", "prop2", "--p", p,
         "--json", "prop2.json"],
        ["signs", "--in", "d.txt", "--X-list", "10", "--dprime", p + ":1",
         "--csv", "dp.csv", "--json", "dp.json"],
    ]
    script = ("import json, qsigns.cli\n"
              "print(json.dumps([qsigns.cli.main(argv) for argv in %r]))\n"
              % (commands,))
    assert json.loads(fresh_python(script, cwd=tmp_path, timeout=5)) == [
        0, 0, 0]
    table = "ebba59eeefa401c24cb135adf0e5c3514366dc2fb843535049963e343c6b5125"
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("pp.json", "prop2.json", "dp.json", "pp.csv",
                         "dp.csv")} == {
        "pp.json": "e570c62ef54bb3f00752360b591f3ae5"
                   "afe75d7a3a5a805482e705f6e8d7c458",
        "prop2.json": "d34a088334793440d8bac20f6a8388fb"
                      "063bbe7b08277df98a98b3421e2105c1",
        "dp.json": "cbd2cf152549f93d2f823a4eb6f6fafc"
                   "54778f747da70660142c7b6e0a3e2c3d",
        "pp.csv": table, "dp.csv": table}
