"""A small expression language for building q-series.

Grammar (whitespace is insignificant):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' INT)?
              | RATIONAL '*' factor
              | '(' expr ')'
              | 'D(' expr ')'
              | 'U(' INT ',' expr ')'
    atom     := NAME '(' INT ')' | NAME '(' INT ',' INT ')'
    RATIONAL := INT ('/' INT)?

The atoms are the names in ATOMS: eta, theta, psi and E4 take the
dilation index m (the series evaluated at mz), which must be >= 1;
thetapsi takes the top of an odd primitive real character, which may be
negative, and then m.  Each atom's weight, level, offset and series
generator stand in its ATOMS entry and nowhere else.  D is q d/dq and
U(m, .) extracts every m-th coefficient; a - b parses as a + (-1)*b.
Parse errors carry the byte offset of the offending token.  signature
gives an expression's weight, level and offset, and refuses a U off the
integer grid and a sum across two grids before anything is evaluated;
working_prec gives the most grid positions evaluate will ask of any
node; evaluate gives an int series and one positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple

from .arith import DirichletCharacter, FrozenRecord, u_type
from . import qseries as qs
from .qseries import QSeries


class FormSpecError(ValueError):
    """Parse or argument error, with the byte offset where it occurred."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


# -- AST ---------------------------------------------------------------------

class Atom(FrozenRecord):
    """The series named name at dilation m.  top is the top of the
    atom's real character (top/.): thetapsi's, and 1 for the others."""
    __slots__ = ("name", "m", "top")
    _defaults = {"top": 1}


class Diff(FrozenRecord):
    __slots__ = ("arg",)


class U(FrozenRecord):
    __slots__ = ("m", "arg")


class Add(FrozenRecord):
    __slots__ = ("left", "right")


class Mul(FrozenRecord):
    __slots__ = ("left", "right")


class Pow(FrozenRecord):
    __slots__ = ("arg", "exp")


class Scale(FrozenRecord):
    __slots__ = ("scalar", "arg")


class AtomRule(NamedTuple):
    weight: Fraction
    level: int         # an atom's level is level * m * top^2
    series: Callable[[Atom, int], QSeries]     # (atom, grid positions)
    takes_top: bool = False
    offset: Fraction = Fraction(0)      # an atom's offset is offset * m


# The levels are declared metadata only, with no transformation check;
# theta_psi has level 4 r^2 (Shimura 1973).
ATOMS = {
    "eta": AtomRule(Fraction(1, 2), 1, lambda a, need: qs.eta(a.m, need),
                    offset=Fraction(1, 24)),
    "theta": AtomRule(Fraction(1, 2), 4, lambda a, need: qs.theta(a.m, need)),
    "psi": AtomRule(Fraction(1, 2), 2, lambda a, need: qs.psi(a.m, need),
                    offset=Fraction(1, 8)),
    "thetapsi": AtomRule(Fraction(3, 2), 4, lambda a, need: qs.theta_psi(
        DirichletCharacter(top=a.top), a.m, need), takes_top=True),
    "E4": AtomRule(Fraction(4), 1,
                   lambda a, need: qs.eisenstein_e4(a.m, need)),
}


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

    def expr(self):
        node = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            right = self.term()
            node = Add(node, right if op == "+" else Scale(Fraction(-1), right))
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.pos += 1
            node = Mul(node, self.factor())
        return node

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
        if word not in ATOMS:
            self.error("unknown name '%s'" % word, start)
        self.eat("(")
        top = 1
        if ATOMS[word].takes_top:
            top = self.integer(signed=True)
            if top == 0:
                self.error("character top must be nonzero", start)
            self.eat(",")
        atom = Atom(word, self.dilation(), top)
        self.eat(")")
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
    requested window.  When that argument is a product, its two factors
    are evaluated to m times the precision and qseries.u_mul takes U_m
    of their product without forming it.

    A tree of sums and scalars over products and other nodes is one
    integer linear combination sum k_j a_j b_j + sum k_j s_j, and one
    qseries.lincomb call builds it into one list: a scalar on either
    factor of a product moves into its k, and no scaled copy and no
    partial sum is ever a series of its own.  A single product with
    k = 1 is qseries.mul, and a single other term with k = 1 is its own
    series.  den is what binary rules give: Scale(p/q) multiplies k by p
    and den by q, a sum brings both sides to the lcm of their dens, and
    a product multiplies its factors' dens.

    Within one call, a (node, need) asked for twice or more is built
    once and dropped after its last use; delta's E4(4) and theta(1) are
    each built once.  Subtrees asked for once are not kept.
    """
    if prec < 1:
        raise ValueError("prec must be positive")
    uses = _count(spec, prec, {})
    return _eval(spec, prec, {key: [n - 1, None]
                              for key, n in uses.items() if n > 1})


def signature(node) -> tuple[Fraction, int, Fraction]:
    """(weight, level, offset) implied by the expression, read off the
    tree alone, so that nothing is evaluated or allocated.  Atoms take
    their weight, level and offset from ATOMS.  D adds 2 to the weight, products
    add weights, powers multiply them, and U and scalars keep them;
    mixed-weight sums are rejected.  The level is the lcm of the atoms'
    levels, and a U node moves its argument's level to the level
    arith.u_type gives a U_m image.  The offset is the lowest exponent of the
    evaluated series (m/24 for eta(m), m/8 for psi(m), 0 for the other
    atoms), kept by D and scalars, added by products, multiplied by
    powers, the lower of a sum's two, and 0 after U.  A sum whose
    offsets differ by a non-integer and a U whose argument is off the
    integer grid are refused here, with qseries' messages, before any
    series is built."""
    if isinstance(node, Atom):
        rule = ATOMS[node.name]
        return (rule.weight, rule.level * node.m * node.top ** 2,
                rule.offset * node.m)
    if isinstance(node, (Add, Mul)):
        (wl, ll, ol), (wr, lr, orr) = (signature(node.left),
                                       signature(node.right))
        if isinstance(node, Mul):
            return wl + wr, lcm(ll, lr), ol + orr
        if wl != wr:
            raise ValueError("sum mixes weights %s and %s" % (wl, wr))
        qs.check_common_grid(ol, orr)
        return wl, lcm(ll, lr), min(ol, orr)
    if not isinstance(node, (Diff, U, Pow, Scale)):
        raise TypeError("not a FormSpec node: %r" % (node,))
    weight, level, offset = signature(node.arg)
    if isinstance(node, Diff):
        weight += 2
    elif isinstance(node, Pow):
        weight *= node.exp
        offset *= node.exp
    elif isinstance(node, U):
        qs.check_u_grid(node.m, offset)
        level = u_type(level, node.m, weight.denominator == 2)[0]
        offset = Fraction(0)
    return weight, level, offset


def working_prec(node, prec: int) -> int:
    """The most grid positions evaluate asks of any node when the root
    needs prec: the largest need _count finds, read off the tree alone."""
    return max(need for _, need in _count(node, prec, {}))


def _eval(node, need: int, memo: dict) -> tuple[QSeries, int]:
    """(series, den) of node at need positions.  memo maps each
    (node, need) that evaluate asks for twice or more to [the asks left
    after the first, its value once built]; the value is dropped at its
    last ask."""
    entry = memo.get((node, need))
    if entry is None:
        return _value(node, need, memo)
    if entry[1] is None:
        entry[1] = _value(node, need, memo)
        return entry[1]
    entry[0] -= 1
    if not entry[0]:
        del memo[(node, need)]
    return entry[1]


def _count(node, need: int, uses: dict) -> dict:
    """Count in uses, and return it, every (node, need) that evaluating
    node at need asks _eval for; a subtree asked for again is built once,
    so its own asks are counted once."""
    key = (node, need)
    uses[key] = uses.get(key, 0) + 1
    if uses[key] == 1:
        for child in _children(node, need):
            _count(*child, uses)
    return uses


def _children(node, need: int) -> list:
    """The (node, need) pairs that building node at need asks _eval for,
    in order: a linear combination's factors, or the one or two operands
    of D, ^ and U.  Atoms and powers of eta ask for nothing."""
    if isinstance(node, (Add, Scale, Mul)):
        asked = []
        _linear(node, lambda f: (asked.append((f, need)), 1))
        return asked
    if isinstance(node, Atom) or (isinstance(node, Pow)
                                  and node.arg.name == "eta"):
        return []
    if isinstance(node, U):
        args = ((node.arg.left, node.arg.right)
                if isinstance(node.arg, Mul) else (node.arg,))
        return [(x, node.m * need) for x in args]
    if isinstance(node, (Diff, Pow)):
        return [(node.arg, need)]
    raise TypeError("not a FormSpec node: %r" % (node,))


def _value(node, need: int, memo: dict) -> tuple[QSeries, int]:
    if isinstance(node, Atom):
        return ATOMS[node.name].series(node, need), 1
    if isinstance(node, (Add, Scale, Mul)):
        den, terms = _linear(node, lambda f: _eval(f, need, memo))
        if len(terms) == 1 and terms[0][0] == 1:
            factors = terms[0][1:]
            return (factors[0] if len(factors) == 1
                    else qs.mul(*factors)), den
        return qs.lincomb(terms), den
    if isinstance(node, Pow) and node.arg.name == "eta":
        return qs.eta_pow(node.arg.m, node.exp, need), 1
    parts = [_eval(x, n, memo) for x, n in _children(node, need)]
    if isinstance(node, Diff):
        # derive is b q d/dq on an offset a/b, so den takes the factor b.
        s, den = parts[0]
        return qs.derive(s), den * s.offset.denominator
    if isinstance(node, Pow):
        s, den = parts[0]
        return qs.pow_(s, node.exp), den ** node.exp
    if len(parts) == 2:
        (l, dl), (r, dr) = parts
        return qs.u_mul(node.m, l, r), dl * dr
    s, den = parts[0]
    return qs.u_op(node.m, s), den


def _linear(node, factor) -> tuple[int, list]:
    """A sum of scaled products as (den, terms) for qseries.lincomb: the
    terms (k, a, b) and (k, s) of int k, where a, b and s are the values
    factor gives the factor nodes, in tree order, so that node's value
    is sum k a b + sum k s over den.  factor maps a node to (series,
    den).  Add and Scale nodes are walked through, and so is a Scale on
    either side of a Mul; any other node is a factor.  den and each k
    follow the rules evaluate states, so den is the one a walk of binary
    sums would give."""
    if isinstance(node, Add):
        (dl, left), (dr, right) = (_linear(node.left, factor),
                                   _linear(node.right, factor))
        den = lcm(dl, dr)
        return den, ([(k * (den // dl), *s) for k, *s in left]
                     + [(k * (den // dr), *s) for k, *s in right])
    if isinstance(node, Scale):
        den, terms = _linear(node.arg, factor)
        p, q = node.scalar.numerator, node.scalar.denominator
        return q * den, [(p * k, *s) for k, *s in terms]
    if isinstance(node, Mul):
        k = den = 1
        series = []
        for side in (node.left, node.right):
            while isinstance(side, Scale):
                k *= side.scalar.numerator
                den *= side.scalar.denominator
                side = side.arg
            s, d = factor(side)
            series.append(s)
            den *= d
        return den, [(k, *series)]
    s, den = factor(node)
    return den, [(1, s)]
