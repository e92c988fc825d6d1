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
negative, and then m.  An atom carries its power ^INT.  Each atom's
weight, level, offset and series generator, which builds the power,
stand in its ATOMS entry and nowhere else.  D is q d/dq and
U(m, .) extracts every m-th coefficient; a - b parses as a + (-1)*b.
Parse errors carry the byte offset of the offending token, and
parse_formspec gives each distinct subtree as one object.  signature
gives an expression's weight, level and offset, and refuses a U off the
integer grid and a sum across two grids before anything is evaluated;
working_prec gives the most grid positions evaluate will ask of any
node; evaluate gives an int series and one positive denominator.  All
three read one schedule of (node, need) pairs, made and run without
recursion, so that only the parser recurses.
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
    """The series named name at dilation m, to the power exp.  top is the
    top of the atom's real character (top/.): thetapsi's, and 1 for the
    others."""
    __slots__ = ("name", "m", "top", "exp")
    _defaults = {"top": 1, "exp": 1}


class Diff(FrozenRecord):
    __slots__ = ("arg",)


class U(FrozenRecord):
    __slots__ = ("m", "arg")


class Add(FrozenRecord):
    __slots__ = ("left", "right")


class Mul(FrozenRecord):
    __slots__ = ("left", "right")


class Scale(FrozenRecord):
    __slots__ = ("scalar", "arg")


class AtomRule(NamedTuple):
    weight: Fraction
    level: int         # an atom's level is level * m * top^2
    series: Callable[[Atom, int], QSeries]     # (atom, grid positions)
    takes_top: bool = False
    offset: Fraction = Fraction(0)      # an atom's offset is offset * m


# The levels are declared metadata only, with no transformation check;
# theta_psi has level 4 r^2 (Shimura 1973).  Each series is the atom's
# power: eta's starts from Jacobi's eta^3, the others are qseries.pow_.
ATOMS = {
    "eta": AtomRule(Fraction(1, 2), 1, lambda a, need: qs.eta_pow(
        a.m, a.exp, need), offset=Fraction(1, 24)),
    "theta": AtomRule(Fraction(1, 2), 4, lambda a, need: qs.pow_(
        qs.theta(a.m, need), a.exp)),
    "psi": AtomRule(Fraction(1, 2), 2, lambda a, need: qs.pow_(
        qs.psi(a.m, need), a.exp), offset=Fraction(1, 8)),
    "thetapsi": AtomRule(Fraction(3, 2), 4, lambda a, need: qs.pow_(
        qs.theta_psi(DirichletCharacter(top=a.top), a.m, need), a.exp),
        takes_top=True),
    "E4": AtomRule(Fraction(4), 1, lambda a, need: qs.pow_(
        qs.eisenstein_e4(a.m, need), a.exp)),
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # node -> (the one such node, the most nodes on a path down it)
        self.nodes = {}

    def node(self, cls, *fields):
        """The one node cls(*fields) of this parse, so that equal subtrees
        are one object.  Its depth, one more than that of its deepest
        field that is a node, is recorded as it is made."""
        made = cls(*fields)
        known = self.nodes.get(made)
        if known is None:
            known = self.nodes[made] = (made, 1 + max(
                self.nodes.get(f, (f, 0))[1] for f in fields))
        return known[0]

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
            node = self.node(Add, node, right if op == "+"
                             else self.node(Scale, Fraction(-1), right))
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.pos += 1
            node = self.node(Mul, node, self.factor())
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
            return self.node(Scale, Fraction(num, den), self.factor())
        start = self.pos
        word = self.name()
        if not word:
            self.error("expected a factor")
        if word == "D":
            self.eat("(")
            node = self.expr()
            self.eat(")")
            return self.node(Diff, node)
        if word == "U":
            self.eat("(")
            m = self.dilation()
            self.eat(",")
            node = self.expr()
            self.eat(")")
            return self.node(U, m, node)
        if word not in ATOMS:
            self.error("unknown name '%s'" % word, start)
        self.eat("(")
        top = 1
        if ATOMS[word].takes_top:
            top = self.integer(signed=True)
            if top == 0:
                self.error("character top must be nonzero", start)
            self.eat(",")
        m = self.dilation()
        self.eat(")")
        exp = 1
        if self.peek() == "^":
            self.pos += 1
            estart = self.pos
            exp = self.integer()
            if exp < 1:
                self.error("exponent must be >= 1", estart)
        return self.node(Atom, word, m, top, exp)


# The most nodes on a path down a parsed tree: a sum of 400 terms.  Only
# the parser recurses, and how deep a tree reaches the recursion limit
# differs between Python versions; this bound limits outside input the
# same way on every version.
MAX_DEPTH = 400
TOO_DEEP = "expression too long or nested too deeply"


def parse_formspec(text: str):
    """Parse an expression in the grammar above into its AST, in which
    equal subtrees are one object; a tree more than MAX_DEPTH nodes deep,
    or nested too deeply for the parser's recursion, is refused with
    TOO_DEEP."""
    p = _Parser(text)
    try:
        node = p.expr()
    except RecursionError:
        raise ValueError(TOO_DEEP) from None
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    if p.nodes[node][1] > MAX_DEPTH:
        raise ValueError(TOO_DEEP)
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
    series.  A term under scalars of product p/q, over factors of dens
    d, takes q prod d; den is the lcm of those, and k = p den / (q prod
    d).  Since lcm(q a, q b) = q lcm(a, b), that is the den binary rules
    give: Scale(p/q) multiplies k by p and den by q, a sum brings both
    sides to the lcm of their dens, and a product multiplies its
    factors' dens.

    _walk runs _value over _schedule's pairs: delta's E4(4) and
    theta(1) are each built once, and nothing recurses, however long or
    deep the tree.
    """
    if prec < 1:
        raise ValueError("prec must be positive")
    return _walk(spec, prec, _value)


def signature(node) -> tuple[Fraction, int, Fraction]:
    """(weight, level, offset) implied by the expression, read off the
    tree alone, so that nothing is evaluated or allocated: _walk runs
    _signature over the schedule evaluate runs, and only the parser
    recurses.  Atoms take their weight, level and offset from ATOMS, the
    weight and offset times their exp.  D adds 2 to the weight, products
    add weights, and U and scalars keep them; mixed-weight sums are
    rejected.  The level is the lcm of the atoms' levels, and a U node
    moves its argument's level to the level arith.u_type gives a U_m
    image.  The offset is the lowest exponent of the evaluated series
    (m/24 for eta(m), m/8 for psi(m), 0 for the other atoms), kept by D
    and scalars, added by products, the lowest of a sum's terms, and 0
    after U.  A sum whose offsets differ by a non-integer and a U whose
    argument is off the integer grid are refused here, with qseries'
    messages, before any series is built."""
    return _walk(node, 1, _signature)


def working_prec(node, prec: int) -> int:
    """The most grid positions evaluate asks of any node when the root
    needs prec: the largest need in _schedule, read off the tree alone."""
    return max(need for _, need in _schedule(node, prec))


def _schedule(node, prec: int) -> dict:
    """Every (node, need) pair that evaluating node at prec asks for,
    each once and after the pairs it asks for, in the order a recursive
    evaluation would finish them, mapped to [how often it is asked for,
    the pairs it asks for].  A pair asked for again is built once, so
    its own asks count once.  The pairs a node asks for, in order, are a
    linear combination's factors, or the one or two operands of D and U;
    atoms ask for nothing."""
    schedule, stack = {}, [((node, prec), None)]
    while stack:
        pair, asked = stack.pop()
        if asked is not None:
            schedule[pair] = [1, asked]
            continue
        if pair in schedule:
            schedule[pair][0] += 1
            continue
        node, need = pair
        asked = []
        if isinstance(node, (Add, Scale, Mul)):
            _linear(node, lambda f: (asked.append((f, need)), 1))
        elif isinstance(node, U):
            asked = [(x, node.m * need) for x in
                     ((node.arg.left, node.arg.right)
                      if isinstance(node.arg, Mul) else (node.arg,))]
        elif isinstance(node, Diff):
            asked = [(node.arg, need)]
        elif not isinstance(node, Atom):
            raise TypeError("not a FormSpec node: %r" % (node,))
        stack.append((pair, asked))
        stack += ((x, None) for x in reversed(asked))
    return schedule


def _walk(spec, prec: int, step):
    """step's value of spec at prec.  One loop runs step on the pairs
    _schedule lists, in its order, each given the values of the pairs it
    asks for, and drops each value at its last ask."""
    schedule, held = _schedule(spec, prec), {}
    for (node, need), (_, asked) in schedule.items():
        parts = []
        for pair in asked:
            schedule[pair][0] -= 1
            parts.append(held[pair] if schedule[pair][0] else held.pop(pair))
        held[node, need] = step(node, need, parts)
    return held.pop((spec, prec))


def _signature(node, need: int, parts: list) -> tuple[Fraction, int, Fraction]:
    """(weight, level, offset) of node, given those of the pairs it asks
    for in the order _schedule lists them.  A sum's terms, _linear's,
    and a U's product are each read as one product: its weights and
    offsets add and its levels take their lcm.  The terms of a sum are
    checked in tree order, each against the weight and the lowest offset
    of those before it."""
    if isinstance(node, Atom):
        rule = ATOMS[node.name]
        return (rule.weight * node.exp, rule.level * node.m * node.top ** 2,
                rule.offset * node.m * node.exp)
    values = iter(parts)
    terms = (_linear(node, lambda f: (next(values), 1))[1]
             if isinstance(node, (Add, Scale, Mul)) else [(1, *parts)])
    (weight, level, offset), *rest = [(sum(w), lcm(*l), sum(o)) for w, l, o
                                      in (zip(*t) for _, *t in terms)]
    for w, l, o in rest:
        if w != weight:
            raise ValueError("sum mixes weights %s and %s" % (weight, w))
        qs.check_common_grid(offset, o)
        level, offset = lcm(level, l), min(offset, o)
    if isinstance(node, U):
        qs.check_u_grid(node.m, offset)
        level, offset = u_type(level, node.m, weight.denominator == 2)[0], 0
    return weight + (2 if isinstance(node, Diff) else 0), level, offset


def _value(node, need: int, parts: list) -> tuple[QSeries, int]:
    """(series, den) of node at need positions, given the values of the
    pairs it asks for in the order _schedule lists them."""
    if isinstance(node, Atom):
        return ATOMS[node.name].series(node, need), 1
    if isinstance(node, (Add, Scale, Mul)):
        values = iter(parts)
        den, terms = _linear(node, lambda f: next(values))
        if len(terms) == 1 and terms[0][0] == 1:
            factors = terms[0][1:]
            return (factors[0] if len(factors) == 1
                    else qs.mul(*factors)), den
        return qs.lincomb(terms), den
    if len(parts) == 2:
        (l, dl), (r, dr) = parts
        return qs.u_mul(node.m, l, r), dl * dr
    s, den = parts[0]
    if isinstance(node, Diff):
        # derive is b q d/dq on an offset a/b, so den takes the factor b.
        return qs.derive(s), den * s.offset.denominator
    return qs.u_op(node.m, s), den


def _linear(node, factor) -> tuple[int, list]:
    """A sum of scaled products as (den, terms) for qseries.lincomb: the
    terms (k, a, b) and (k, s) of int k, where a, b and s are the values
    factor gives the factor nodes, in tree order, so that node's value
    is sum k a b + sum k s over den.  factor maps a node to (series,
    den).  Add and Scale nodes are walked through, with an explicit
    stack, and so is a Scale on either side of a Mul; any other node is
    a factor.  den and each k follow the rules evaluate states."""
    terms, stack = [], [(1, 1, node)]
    while stack:
        p, q, x = stack.pop()
        if isinstance(x, Add):
            stack += (p, q, x.right), (p, q, x.left)
        elif isinstance(x, Scale):
            stack.append((p * x.scalar.numerator, q * x.scalar.denominator,
                          x.arg))
        else:
            series = []
            for side in (x.left, x.right) if isinstance(x, Mul) else (x,):
                while isinstance(side, Scale):
                    p *= side.scalar.numerator
                    q *= side.scalar.denominator
                    side = side.arg
                s, d = factor(side)
                series.append(s)
                q *= d
            terms.append((p, q, series))
    den = lcm(*(q for _, q, _ in terms))
    return den, [(p * (den // q), *series) for p, q, series in terms]
