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

A CoefficientFile is a Form plus what only a file has: the form id and
the lift index t.  The weight (numerator over 2; even numerators are
integral weights), level, character and prec lines are the Form's; a
character is kronecker:<top>/mod:<N>, but trivial:<N> when the top is a
square.  The offset is the least index the body may hold: 0 when a(0) is
nonzero and 1 otherwise.  An optional '# t: <int>' line after the
offset records the lift index, a square-free positive integer no larger
than forms.LARGE_PREC_CAP.

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
The body is checked and converted in C a block at a time, without a
regular expression (see _parse_body).
"""

from __future__ import annotations

import json
import operator
import os
import re
from collections import deque
from itertools import chain, compress, count, repeat

from .arith import DirichletCharacter, Record, is_squarefree
from .forms import LARGE_PREC_CAP, Form

MAGIC = "# coeffs v1"
KEYS = ("form", "weight", "level", "character", "prec", "offset", "t")

# The body lines serialize writes.  parse checks a body a block of about
# BLOCK characters (extended to a line end) at a time without this
# expression, which only names the bad line of a block it refuses.
BODY_LINES = re.compile(r"(?:(?:0|[1-9][0-9]*)\t-?[1-9][0-9]*\n)*")
BLOCK = 1 << 13
_TO_COMMAS = str.maketrans("\t\n", ",,")


def format_character(chi: DirichletCharacter) -> str:
    return ("trivial:%d" % chi.modulus if chi.is_trivial
            else "kronecker:%d/mod:%d" % (chi.top, chi.modulus))


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

    __slots__ = ("form_id", "form", "t")
    _defaults = {"t": None}

    def _header(self) -> list[str]:
        f = self.form
        lines = [MAGIC,
                 "# form: %s" % self.form_id,
                 "# weight: %d/2" % f.weight_num,
                 "# level: %d" % f.level,
                 "# character: %s" % format_character(f.character),
                 "# prec: %d" % f.prec,
                 "# offset: %d" % (0 if f.coeffs[0] else 1)]
        if self.t is not None:
            lines.append("# t: %d" % self.t)
        return lines

    def serialize(self) -> str:
        # The header, then the (index, value) terms interleaved: one
        # format call writes the whole file.
        coeffs = self.form.coeffs
        fields = tuple(chain(["\n".join(self._header())],
                             chain.from_iterable(zip(compress(count(), coeffs),
                                                     filter(None, coeffs)))))
        return ("%s\n" + "%d\t%d\n" * (len(fields) // 2)) % fields

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
                         t=int(header["t"]) if "t" in header else None)
    # A lift's t is at most its source's prec: the cap bounds t before
    # trial division reads it.
    if cf.t is not None and cf.t > LARGE_PREC_CAP:
        raise ValueError("lift index t=%d is above %d, the largest prec"
                         % (cf.t, LARGE_PREC_CAP))
    if cf.t is not None and (cf.t < 1 or not is_squarefree(cf.t)):
        raise ValueError("lift index t=%d is not a square-free positive "
                         "integer" % cf.t)
    _parse_body(text, sum(map(len, lines[:body_start])) + body_start,
                cf.form.coeffs)
    # The offset line is read off a(0), so the header is checked last.
    for got, canonical in zip(lines[:body_start], cf._header()):
        if got != canonical:
            raise ValueError("header line %r is not written as %r"
                             % (got, canonical))
    return cf


def _parse_body(text: str, start: int, table: list[int]):
    """Store the body lines of text[start:] in table, each index above
    the one before it.

    Each block of whole lines is checked, converted and stored in C.  It
    must end in a newline, and its skeleton, what is left of its ASCII
    bytes (any other character is a '?') once bytes.translate deletes the
    digits, must be lines of a tab, an optional '-' and a newline.
    json.loads must then read it, and JSON's number grammar refuses a
    leading zero, an empty field and a '-' after digits.  Last, no a(n)
    may be 0 (written 0 or -0).  A block passes these exactly when
    BODY_LINES matches it, which then only names the bad line."""
    prec = len(table) - 1
    end = len(text)
    last = -1
    while start < end:
        stop = text.find("\n", start + BLOCK - 1) + 1 or end
        block = text[start:stop]
        skeleton = block.encode("ascii", "replace").translate(
            None, b"0123456789").replace(b"\t-\n", b"\t\n")
        numbers = None
        if block[-1] == "\n" and skeleton == b"\t\n" * (len(skeleton) // 2):
            try:
                numbers = json.loads("[%s]"
                                     % block.translate(_TO_COMMAS)[:-1])
            except json.JSONDecodeError:
                pass
        if numbers is None or 0 in (values := numbers[1::2]):
            _refuse_line(block)
        indices = numbers[::2]
        if not all(map(operator.lt, [last] + indices, indices)):
            _refuse_order(last, indices)
        last = indices[-1]
        if last > prec:
            raise ValueError("index %d exceeds prec %d" % (last, prec))
        deque(map(operator.setitem, repeat(table), indices, values),
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
    raise ValueError("body index %d is out of order" % n)


def read(path: str) -> CoefficientFile:
    with open(path) as fp:
        return parse(fp.read())
