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

The weight is always written as numerator over 2 (even numerators are
integral weights).  The offset is the least index the body may hold:
files of named forms, lifts and operator images are written from a(1)
with offset 1, and an expression is written from its series' integer
offset (0 keeps a constant term).  An optional '# t: <int>' line after
the offset records the lift index.  Serialization is canonical, so
parse/serialize round-trips are byte identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .arith import DirichletCharacter
from .forms import Form

MAGIC = "# coeffs v1"


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
    """Parsed or to-be-written coefficient file."""

    form_id: str
    weight_num: int            # weight is weight_num / 2
    level: int
    character: str             # serialized character string
    prec: int
    offset: int
    t: int | None = None
    pairs: list[tuple[int, int]] = field(default_factory=list)

    def serialize(self) -> str:
        lines = [MAGIC,
                 "# form: %s" % self.form_id,
                 "# weight: %d/2" % self.weight_num,
                 "# level: %d" % self.level,
                 "# character: %s" % self.character,
                 "# prec: %d" % self.prec,
                 "# offset: %d" % self.offset]
        if self.t is not None:
            lines.append("# t: %d" % self.t)
        lines.extend("%d\t%d" % (n, c) for n, c in self.pairs)
        return "\n".join(lines) + "\n"

    def write(self, path: str):
        with open(path, "w") as fp:
            fp.write(self.serialize())

    # -- form conversion ----------------------------------------------------

    def coefficient_table(self) -> list[int]:
        table = [0] * (self.prec + 1)
        for n, c in self.pairs:
            if n > 0:
                table[n] = c
        return table

    def to_form(self) -> Form:
        return Form(weight_num=self.weight_num, level=self.level,
                    character=parse_character(self.character),
                    coeffs=self.coefficient_table(), prec=self.prec)


def from_table(form_id: str, weight_num: int, level: int,
               chi: DirichletCharacter, coeffs: list[int], prec: int,
               offset: int = 1, t: int | None = None) -> CoefficientFile:
    """Build a file object from a coefficient table indexed by n, keeping
    the entries from the offset on."""
    pairs = [(n, coeffs[n]) for n in range(offset, prec + 1) if coeffs[n] != 0]
    return CoefficientFile(form_id=form_id, weight_num=weight_num, level=level,
                           character=format_character(chi), prec=prec,
                           offset=offset, t=t, pairs=pairs)


def parse(text: str) -> CoefficientFile:
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError("not a coefficient file (missing %r header)" % MAGIC)
    header = {}
    body_start = 1
    for line in lines[1:]:
        m = re.fullmatch(r"# ([a-z]+): (.*)", line)
        if not m:
            break
        key = m.group(1)
        if key in header:
            raise ValueError("duplicate header key %r" % key)
        header[key] = m.group(2)
        body_start += 1
    for key in ("form", "weight", "level", "character", "prec", "offset"):
        if key not in header:
            raise ValueError("missing header key %r" % key)
    m = re.fullmatch(r"(\d+)/2", header["weight"])
    if not m:
        raise ValueError("bad weight %r, expected <num>/2" % header["weight"])
    cf = CoefficientFile(form_id=header["form"],
                         weight_num=int(m.group(1)),
                         level=int(header["level"]),
                         character=header["character"],
                         prec=int(header["prec"]),
                         offset=int(header["offset"]),
                         t=int(header["t"]) if "t" in header else None)
    parse_character(cf.character)   # validate eagerly
    if cf.offset < 0:
        raise ValueError("negative offset %d" % cf.offset)
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
        if n > cf.prec:
            raise ValueError("index %d exceeds prec %d" % (n, cf.prec))
        cf.pairs.append((n, c))
        last = n
    return cf


def read(path: str) -> CoefficientFile:
    with open(path) as fp:
        return parse(fp.read())
