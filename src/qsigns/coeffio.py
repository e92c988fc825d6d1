"""Coefficient-file persistence.

Plain text, exactness-preserving, diffable.  A file is a fixed-order
header of '# key: value' lines followed by one 'n<TAB>a(n)' line per
nonzero coefficient, ascending n, decimal integers:

    # coeffs v1
    # form: delta
    # weight: 13/2
    # level: 4
    # character: trivial:4
    # prec: 100
    # offset: 1
    1	1
    4	-56

A CoefficientFile is a Form plus what only a file has: the form id, the
offset and the lift index t.  The weight (numerator over 2; even
numerators are integral weights), level, character and prec lines are
the Form's.  The offset is the least index the body may hold, with no
nonzero coefficient below it: 0 when a(0) is nonzero and 1 otherwise,
unless given (only an expression build gives one, its series' integer
offset).  An optional '# t: <int>' line after the offset records the
lift index, a square-free positive integer.

Serialization is canonical, and parse accepts only what serialize
writes, byte for byte.  In the header: no unknown, repeated or reordered
key, no value in another spelling (a leading zero, a sign, padding).  In
the body: every line is n, a tab and a nonzero a(n), in decimal with no
leading zero and no sign but a minus on a(n), and ends in a newline.  So
a blank line, a missing final newline, a '\r\n' line end passed
straight to parse (read opens the file in text mode, which turns it into
'\n') and a file cut mid-line are refused; a file cut at a line
boundary still parses.  A prec above forms.LARGE_PREC_CAP is refused
before the table is allocated, and the Form's own checks apply on read.
"""

from __future__ import annotations

import json
import operator
import os
import re
from collections import deque
from itertools import compress, count, repeat

from .arith import DirichletCharacter, Record, is_squarefree
from .forms import LARGE_PREC_CAP, Form

MAGIC = "# coeffs v1"
KEYS = ("form", "weight", "level", "character", "prec", "offset", "t")

# The body lines serialize writes, and how many characters of the body
# parse checks and converts at a time (extended to a line end).  sre
# keeps a stack entry per line the match repeats over, so a block of
# 8 KB holds about 500 of them where a whole-body match would hold one
# per line of the file.
BODY_LINES = re.compile(r"(?:(?:0|[1-9][0-9]*)\t-?[1-9][0-9]*\n)*")
BLOCK = 1 << 13
_TO_COMMAS = str.maketrans("\t\n", ",,")


def format_character(chi: DirichletCharacter) -> str:
    if chi.is_trivial:
        return "trivial:%d" % chi.modulus
    return "kronecker:%d/mod:%d" % (chi.top, chi.modulus)


def parse_character(text: str) -> DirichletCharacter:
    m = re.fullmatch(r"trivial:(\d+)", text)
    if m:
        return DirichletCharacter.trivial(int(m.group(1)))
    m = re.fullmatch(r"kronecker:(-?\d+)/mod:(\d+)", text)
    if m:
        return DirichletCharacter(top=int(m.group(1)), modulus=int(m.group(2)))
    raise ValueError("bad character string %r" % text)


class CoefficientFile(Record):
    """A Form with the fields only its file has."""

    __slots__ = ("form_id", "form", "offset", "t")

    def __init__(self, form_id: str, form: Form, offset: int | None = None,
                 t: int | None = None):
        coeffs = form.coeffs
        if offset is None:
            offset = 0 if coeffs[0] else 1
        if offset < 0:
            raise ValueError("negative offset %d" % offset)
        if any(coeffs[:offset]):
            raise ValueError("nonzero coefficient below the offset %d"
                             % offset)
        super().__init__(form_id, form, offset, t)

    def _header(self) -> list[str]:
        f = self.form
        lines = [MAGIC,
                 "# form: %s" % self.form_id,
                 "# weight: %d/2" % f.weight_num,
                 "# level: %d" % f.level,
                 "# character: %s" % format_character(f.character),
                 "# prec: %d" % f.prec,
                 "# offset: %d" % self.offset]
        if self.t is not None:
            lines.append("# t: %d" % self.t)
        return lines

    def serialize(self) -> str:
        lines = self._header()
        coeffs = self.form.coeffs
        lines.extend(map(operator.mod, repeat("%d\t%d"),
                         zip(compress(count(), coeffs), filter(None, coeffs))))
        return "\n".join(lines) + "\n"

    def write(self, path: str):
        write_text(path, self.serialize())


def write_text(path: str, text: str):
    """Write text to path whole or not at all: to a temporary file beside
    it, moved onto it by os.replace and removed on failure, with the mode
    open(path, "w") gives (the old file's, or 0o666 less the umask).  A
    pipe or a device is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fp:
            fp.write(text)
        return
    real = os.path.realpath(path)
    tmp = "%s.%s.tmp" % (real, os.urandom(6).hex())
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:      # named by the path asked for, not by tmp
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w") as fp:
            fp.write(text)
        if os.path.exists(real):
            os.chmod(tmp, os.stat(real).st_mode & 0o7777)
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def parse(text: str) -> CoefficientFile:
    # The header lines, and the rest of the text as the last item.
    lines = text.split("\n", len(KEYS) + 1)
    if lines[0] != MAGIC:
        raise ValueError("not a coefficient file (missing %r header)" % MAGIC)
    header = {}
    for line in lines[1:]:
        m = re.fullmatch(r"# ([a-z]+): (.*)", line)
        if not m:
            break
        key = m.group(1)
        if key not in KEYS:
            raise ValueError("unknown header key %r" % key)
        if key in header:
            raise ValueError("duplicate header key %r" % key)
        header[key] = m.group(2)
    body_start = 1 + len(header)
    for key in KEYS[:-1]:           # every key but t is required
        if key not in header:
            raise ValueError("missing header key %r" % key)
    if body_start == len(lines):
        raise ValueError("header line %r does not end in a newline"
                         % lines[-1])
    m = re.fullmatch(r"(\d+)/2", header["weight"])
    if not m:
        raise ValueError("bad weight %r, expected <num>/2" % header["weight"])
    prec = int(header["prec"])
    if not 0 <= prec <= LARGE_PREC_CAP:
        raise ValueError("prec %d is outside 0..%d" % (prec, LARGE_PREC_CAP))
    cf = CoefficientFile(form_id=header["form"],
                         form=Form(weight_num=int(m.group(1)),
                                   level=int(header["level"]),
                                   character=parse_character(
                                       header["character"]),
                                   coeffs=[0] * (prec + 1)),
                         offset=int(header["offset"]),
                         t=int(header["t"]) if "t" in header else None)
    if cf.t is not None and (cf.t < 1 or not is_squarefree(cf.t)):
        raise ValueError("lift index t=%d is not a square-free positive "
                         "integer" % cf.t)
    for got, canonical in zip(lines[:body_start], cf._header()):
        if got != canonical:
            raise ValueError("header line %r is not written as %r"
                             % (got, canonical))
    _parse_body(text, sum(map(len, lines[:body_start])) + body_start,
                cf.form.coeffs, cf.offset - 1)
    return cf


def _parse_body(text: str, start: int, table: list[int], last: int):
    """Store the body lines of text[start:] in table, each index above
    the one before it, starting above last.  Each block of whole lines is
    checked by one match, converted by one json.loads and stored by one
    map, all in C."""
    prec = len(table) - 1
    end = len(text)
    while start < end:
        stop = text.find("\n", start + BLOCK - 1) + 1 or end
        block = text[start:stop]
        if not BODY_LINES.fullmatch(block):
            _refuse_line(block)
        numbers = json.loads("[%s]" % block.translate(_TO_COMMAS)[:-1])
        indices = numbers[::2]
        if not all(map(operator.lt, [last] + indices, indices)):
            _refuse_order(last, indices)
        last = indices[-1]
        if last > prec:
            raise ValueError("index %d exceeds prec %d" % (last, prec))
        deque(map(operator.setitem, repeat(table), indices, numbers[1::2]),
              maxlen=0)
        start = stop


def _refuse_line(block: str):
    *lines, tail = block.split("\n")
    bad = next((line for line in lines
                if not BODY_LINES.fullmatch(line + "\n")), None)
    if bad is None:
        raise ValueError("body line %r does not end in a newline" % tail)
    raise ValueError("bad body line %r" % bad)


def _refuse_order(last: int, indices: list[int]):
    n = next(n for prev, n in zip([last] + indices, indices) if n <= prev)
    raise ValueError("body index %d is below the offset or out of order" % n)


def read(path: str) -> CoefficientFile:
    with open(path) as fp:
        return parse(fp.read())
