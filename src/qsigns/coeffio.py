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

Serialization is canonical, and parse accepts only a header that
serialize writes back byte for byte: no unknown, repeated or reordered
key, no value in another spelling (a leading zero, a sign, padding).  A
prec above LARGE_PREC_CAP is refused before the table is allocated, and
the Form's own checks apply on read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .arith import DirichletCharacter, is_squarefree
from .forms import Form

MAGIC = "# coeffs v1"
KEYS = ("form", "weight", "level", "character", "prec", "offset", "t")
LARGE_PREC_CAP = 1_000_000


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


@dataclass
class CoefficientFile:
    """A Form with the fields only its file has."""

    form_id: str
    form: Form
    offset: int | None = None
    t: int | None = None

    def __post_init__(self):
        coeffs = self.form.coeffs
        if self.offset is None:
            self.offset = 0 if coeffs[0] else 1
        if self.offset < 0:
            raise ValueError("negative offset %d" % self.offset)
        if any(coeffs[:self.offset]):
            raise ValueError("nonzero coefficient below the offset %d"
                             % self.offset)

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
        coeffs = self.form.coeffs
        lines = self._header()
        lines.extend("%d\t%d" % (n, c) for n, c in enumerate(coeffs) if c)
        return "\n".join(lines) + "\n"

    def write(self, path: str):
        with open(path, "w") as fp:
            fp.write(self.serialize())


def parse(text: str) -> CoefficientFile:
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
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
    table = cf.form.coeffs
    last = cf.offset - 1
    for line in lines[body_start:]:
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError("bad body line %r" % line)
        n, c = int(parts[0]), int(parts[1])
        if c == 0:
            raise ValueError("zero coefficient stored at n=%d" % n)
        if n <= last:
            raise ValueError("body index %d is below the offset or out of "
                             "order" % n)
        if n > prec:
            raise ValueError("index %d exceeds prec %d" % (n, prec))
        table[n] = c
        last = n
    return cf


def read(path: str) -> CoefficientFile:
    with open(path) as fp:
        return parse(fp.read())
