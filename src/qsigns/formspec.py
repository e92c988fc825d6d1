"""A small expression language for building q-series.

Grammar (whitespace is insignificant):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' INT)?
              | RATIONAL '*' factor
              | '(' expr ')'
              | 'D(' expr ')'
              | 'U(' INT ',' expr ')'
    atom     := 'eta(' INT ')' | 'theta(' INT ')'
              | 'thetapsi(' INT ',' INT ')' | 'E4(' INT ')'
    RATIONAL := INT ('/' INT)?

The argument of eta/theta/E4 and the second argument of thetapsi is the
dilation index m (the series evaluated at mz), and must be >= 1.  The
first argument of thetapsi is the top of an odd primitive real character
and may be negative.  D is q d/dq and U(m, .) extracts every m-th
coefficient.  Parse errors carry the byte offset of the offending token.
An expression evaluates to an int series and one positive denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arith import DirichletCharacter
from . import qseries as qs
from .qseries import QSeries


class FormSpecError(ValueError):
    """Parse or argument error, with the byte offset where it occurred."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Eta:
    m: int


@dataclass(frozen=True)
class Theta:
    m: int


@dataclass(frozen=True)
class ThetaPsi:
    top: int
    m: int


@dataclass(frozen=True)
class E4:
    m: int


@dataclass(frozen=True)
class Diff:
    arg: object


@dataclass(frozen=True)
class U:
    m: int
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Scale:
    scalar: Fraction
    arg: object


_ATOMS = ("eta", "theta", "thetapsi", "E4")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None):
        raise FormSpecError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error("expected '%s'" % ch)
        self.pos += 1

    def integer(self, signed: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.peek() == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer", start)
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        return self.text[start:self.pos]

    def dilation(self) -> int:
        start = self.pos
        m = self.integer()
        if m < 1:
            self.error("dilation argument must be >= 1", start)
        return m

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = Add(node, self.term())
            elif ch == "-":
                self.pos += 1
                node = Sub(node, self.term())
            else:
                return node

    # term := factor ('*' factor)*
    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.pos += 1
            node = Mul(node, self.factor())
        return node

    # factor := atom ('^' int)? | rational '*' factor | '(' expr ')'
    #         | 'D(' expr ')' | 'U(' int ',' expr ')'
    def factor(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.eat(")")
            return node
        if ch.isdigit() or ch == "-":
            start = self.pos
            num = self.integer(signed=True)
            den = 1
            if self.peek() == "/":
                self.pos += 1
                den = self.integer()
                if den == 0:
                    self.error("zero denominator", start)
            self.eat("*")
            return Scale(Fraction(num, den), self.factor())
        start = self.pos
        word = self.name()
        if not word:
            self.error("expected a factor")
        if word == "D":
            self.eat("(")
            node = self.expr()
            self.eat(")")
            return Diff(node)
        if word == "U":
            self.eat("(")
            m = self.dilation()
            self.eat(",")
            node = self.expr()
            self.eat(")")
            return U(m, node)
        if word not in _ATOMS:
            self.error("unknown name '%s'" % word, start)
        self.eat("(")
        if word == "thetapsi":
            top = self.integer(signed=True)
            if top == 0:
                self.error("character top must be nonzero", start)
            self.eat(",")
            m = self.dilation()
            self.eat(")")
            atom = ThetaPsi(top, m)
        else:
            m = self.dilation()
            self.eat(")")
            atom = {"eta": Eta, "theta": Theta, "E4": E4}[word](m)
        if self.peek() == "^":
            self.pos += 1
            estart = self.pos
            e = self.integer()
            if e < 1:
                self.error("exponent must be >= 1", estart)
            return Pow(atom, e)
        return atom


def parse_formspec(text: str):
    """Parse an expression in the grammar above into its AST."""
    p = _Parser(text)
    node = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return node


def evaluate(spec, prec: int) -> tuple[QSeries, int]:
    """Evaluate an AST to (series, den): an int series valid for prec grid
    positions and one positive int den, so that the expression's value is
    series / den.  Only this evaluator sees the denominator; scalars
    p/q multiply the series by p and den by q.

    Required precision is pushed down the tree (a U(m, .) node needs its
    argument to m times the precision), so the result carries the full
    requested window.
    """
    if prec < 1:
        raise ValueError("prec must be positive")
    return _eval(spec, prec)


def formal_weight(node) -> Fraction:
    """Weight implied by the expression: eta and theta count 1/2,
    thetapsi 3/2, E4 counts 4, D adds 2, U and scalars preserve, products
    add, powers multiply.  Mixed-weight sums are rejected."""
    if isinstance(node, (Eta, Theta)):
        return Fraction(1, 2)
    if isinstance(node, ThetaPsi):
        return Fraction(3, 2)
    if isinstance(node, E4):
        return Fraction(4)
    if isinstance(node, Diff):
        return formal_weight(node.arg) + 2
    if isinstance(node, U):
        return formal_weight(node.arg)
    if isinstance(node, (Add, Sub)):
        wl, wr = formal_weight(node.left), formal_weight(node.right)
        if wl != wr:
            raise ValueError("sum mixes weights %s and %s" % (wl, wr))
        return wl
    if isinstance(node, Mul):
        return formal_weight(node.left) + formal_weight(node.right)
    if isinstance(node, Pow):
        return formal_weight(node.base) * node.exp
    if isinstance(node, Scale):
        return formal_weight(node.arg)
    raise TypeError("not a FormSpec node: %r" % (node,))


def level_hint(node) -> int:
    """Least common multiple of the levels of the pieces: m for eta(m),
    E4(m) and the index of U(m, .), 4m for theta(m), and 4 m top^2 for
    thetapsi(top, m) (Shimura 1973: theta_psi has level 4 r^2).  Declared
    metadata only; no transformation check."""
    if isinstance(node, (Eta, E4)):
        return node.m
    if isinstance(node, Theta):
        return 4 * node.m
    if isinstance(node, ThetaPsi):
        return 4 * node.m * node.top * node.top
    if isinstance(node, Diff):
        return level_hint(node.arg)
    if isinstance(node, U):
        return lcm(node.m, level_hint(node.arg))
    if isinstance(node, (Add, Sub, Mul)):
        return lcm(level_hint(node.left), level_hint(node.right))
    if isinstance(node, Pow):
        return level_hint(node.base)
    if isinstance(node, Scale):
        return level_hint(node.arg)
    raise TypeError("not a FormSpec node: %r" % (node,))


def _eval(node, need: int) -> tuple[QSeries, int]:
    if isinstance(node, Eta):
        return qs.eta(node.m, need), 1
    if isinstance(node, Theta):
        return qs.theta(node.m, need), 1
    if isinstance(node, ThetaPsi):
        psi = DirichletCharacter(top=node.top)
        return qs.theta_psi(psi, node.m, need), 1
    if isinstance(node, E4):
        base = qs.eisenstein_e4((need + node.m - 1) // node.m)
        return qs.dilate(node.m, base, max_prec=need), 1
    if isinstance(node, Diff):
        # derive is b q d/dq on an offset a/b, so den takes the factor b.
        s, den = _eval(node.arg, need)
        return qs.derive(s), den * s.offset.denominator
    if isinstance(node, U):
        s, den = _eval(node.arg, node.m * need)
        return qs.u_op(node.m, s), den
    if isinstance(node, (Add, Sub)):
        (l, dl), (r, dr) = _eval(node.left, need), _eval(node.right, need)
        den = lcm(dl, dr)
        sign = -1 if isinstance(node, Sub) else 1
        return qs.add(_scaled(l, den // dl), _scaled(r, sign * den // dr)), den
    if isinstance(node, Mul):
        (l, dl), (r, dr) = _eval(node.left, need), _eval(node.right, need)
        return qs.mul(l, r), dl * dr
    if isinstance(node, Pow):
        s, den = _eval(node.base, need)
        return qs.pow_(s, node.exp), den ** node.exp
    if isinstance(node, Scale):
        s, den = _eval(node.arg, need)
        return (_scaled(s, node.scalar.numerator),
                den * node.scalar.denominator)
    raise TypeError("not a FormSpec node: %r" % (node,))


def _scaled(s: QSeries, r: int) -> QSeries:
    return s if r == 1 else qs.scalar_mul(s, r)
