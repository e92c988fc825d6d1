import sys
from fractions import Fraction
from unittest import mock

import pytest

from qsigns import formspec as fs
from qsigns.formspec import (Add, Atom, Diff, FormSpecError, Mul, Scale, U,
                             evaluate, parse_formspec, signature)

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import eval_fraction, tau_list

G_SPEC = "theta(11)*eta(2)*eta(22)"
DELTA_SPEC = "1/4*(2*E4(4)*D(theta(1)) - 1/4*D(E4(4))*theta(1))"


class TestParse:
    def test_eta_power(self):
        assert parse_formspec("eta(1)^24") == Atom("eta", 1, 1, 24)

    def test_g_definition(self):
        got = parse_formspec("U(4, %s)" % G_SPEC)
        assert got == U(4, Mul(Mul(Atom("theta", 11), Atom("eta", 2)),
                               Atom("eta", 22)))

    def test_rational_scale_and_parens(self):
        got = parse_formspec("1/4*(theta(1) + eta(4))")
        assert got == Scale(Fraction(1, 4),
                            Add(Atom("theta", 1), Atom("eta", 4)))

    def test_difference_and_precedence(self):
        got = parse_formspec("theta(1)*theta(2) - E4(1)")
        assert got == Add(Mul(Atom("theta", 1), Atom("theta", 2)),
                         Scale(Fraction(-1), Atom("E4", 1)))

    def test_thetapsi_signed_argument(self):
        assert parse_formspec("thetapsi(-4, 1)") == Atom("thetapsi", 1, -4)

    def test_nested_operators(self):
        got = parse_formspec("D(U(2, theta(1)))")
        assert got == Diff(U(2, Atom("theta", 1)))

    def test_whitespace_insensitive(self):
        assert parse_formspec(" eta( 2 ) ^ 3 ") == Atom("eta", 2, 1, 3)

    def test_unbalanced_paren_reports_offset(self):
        text = "1/4*(2*E4(4)*D(theta(1)) - "
        with pytest.raises(FormSpecError) as err:
            parse_formspec(text)
        assert err.value.pos == len(text)

    def test_unknown_name(self):
        with pytest.raises(FormSpecError) as err:
            parse_formspec("zeta(1)")
        assert err.value.pos == 0

    def test_dilation_range(self):
        with pytest.raises(FormSpecError):
            parse_formspec("eta(0)")
        with pytest.raises(FormSpecError):
            parse_formspec("U(0, eta(1))")

    def test_trailing_junk(self):
        with pytest.raises(FormSpecError):
            parse_formspec("eta(1))")

    def test_bare_number_is_not_a_factor(self):
        with pytest.raises(FormSpecError):
            parse_formspec("3 + eta(1)")

    def test_zero_denominator(self):
        with pytest.raises(FormSpecError):
            parse_formspec("1/0*eta(1)")

    @pytest.mark.parametrize("deep, text", [
        # A sum of n terms is n nodes deep, D(...) adds one node, and a
        # difference adds a Scale node to its right term.
        (False, " + ".join(["theta(1)"] * fs.MAX_DEPTH)),
        (True, " + ".join(["theta(1)"] * (fs.MAX_DEPTH + 1))),
        (False, "D(%s)" % " + ".join(["theta(1)"] * (fs.MAX_DEPTH - 1))),
        (True, "D(%s)" % " + ".join(["theta(1)"] * fs.MAX_DEPTH)),
        (True, "theta(1) - " * fs.MAX_DEPTH + "theta(1)"),
        (False, "theta(1) - " * (fs.MAX_DEPTH - 2) + "theta(1)"),
    ])
    def test_depth_bound_is_the_same_on_every_interpreter(self, deep, text):
        # The walk that measures depth does not recurse, so the bound
        # holds where the recursion limit would not (400-term sums build
        # everywhere, 401-term sums nowhere).
        if deep:
            with pytest.raises(ValueError, match="^%s$" % fs.TOO_DEEP):
                parse_formspec(text)
        else:
            assert parse_formspec(text)

    def test_a_power_adds_no_node(self):
        # A power is its atom at an exponent, one node: a sum of 400
        # cubes is as deep as a sum of 400 atoms, and it is 400 cubes.
        node = parse_formspec(" + ".join(["theta(1)^3"] * fs.MAX_DEPTH))
        s, den = evaluate(node, 50)
        t, tden = evaluate(parse_formspec("400*theta(1)^3"), 50)
        assert (s.offset, s.coeffs, den) == (t.offset, t.coeffs, tden)


def _render(tree) -> str:
    """The formspec text of an oracles.eval_fraction tree."""
    op = tree[0]
    if op in ("eta", "theta", "E4"):
        return "%s(%d)" % tree
    if op == "pow":
        return "%s^%d" % (_render(tree[1]), tree[2])
    if op == "scale":
        return "%s*(%s)" % (tree[1], _render(tree[2]))
    if op in ("add", "sub"):
        return "(%s %s %s)" % (_render(tree[1]), "+" if op == "add" else "-",
                               _render(tree[2]))
    if op == "mul":
        return "(%s)*(%s)" % (_render(tree[1]), _render(tree[2]))
    if op == "D":
        return "D(%s)" % _render(tree[1])
    return "U(%d, %s)" % (tree[1], _render(tree[2]))


def _offset(tree) -> Fraction:
    """The offset of tree up to an integer, which is all _onto_grid uses."""
    op = tree[0]
    if op == "eta":
        return Fraction(tree[1], 24)
    if op in ("theta", "E4", "U"):
        return Fraction(0)
    if op == "pow":
        return tree[2] * _offset(tree[1])
    if op == "mul":
        return _offset(tree[1]) + _offset(tree[2])
    if op == "scale":
        return _offset(tree[2])
    return _offset(tree[1])         # D, and a sum: its left operand's grid


def _onto_grid(tree, target: Fraction):
    """tree times eta(k), with k chosen so its offset differs from target
    by an integer (tree unchanged if it already does)."""
    k = (target - _offset(tree)) * 24 % 24
    return tree if k == 0 else ("mul", tree, ("eta", int(k)))


_ATOMS = st.one_of(st.tuples(st.just("eta"), st.integers(1, 4)),
                   st.tuples(st.just("theta"), st.integers(1, 3)),
                   st.tuples(st.just("E4"), st.integers(1, 2)))
_SCALARS = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                     st.integers(1, 6))


@st.composite
def _trees(draw, depth=3):
    """A random expression tree over eta, theta and E4 on integer and
    1/24 offsets, with rational scales, +, -, *, ^, D and U."""
    kind = draw(st.sampled_from(
        ["atom", "pow"] if depth == 0 else
        ["atom", "pow", "scale", "add", "sub", "mul", "D", "U"]))
    if kind == "atom":
        return draw(_ATOMS)
    if kind == "pow":
        return ("pow", draw(_ATOMS), draw(st.integers(2, 3)))
    if kind == "scale":
        return ("scale", draw(_SCALARS), draw(_trees(depth - 1)))
    if kind in ("D", "U"):
        arg = draw(_trees(depth - 1))
        if kind == "D":
            return ("D", arg)
        return ("U", draw(st.integers(2, 3)), _onto_grid(arg, Fraction(0)))
    left, right = draw(_trees(depth - 1)), draw(_trees(depth - 1))
    if kind != "mul":
        right = _onto_grid(right, _offset(left))
    return (kind, left, right)


class TestEvaluate:
    def test_eta24(self):
        s, den = evaluate(parse_formspec("eta(1)^24"), 5)
        assert den == 1
        assert s.offset == 1 and s.coeffs[:4] == tau_list(5)[1:5]

    def test_e4(self):
        s, den = evaluate(parse_formspec("E4(1)"), 3)
        assert (s.coeffs, den) == ([1, 240, 2160], 1)

    def test_theta(self):
        s, den = evaluate(parse_formspec("theta(1)"), 2)
        assert (s.coeffs, den) == ([1, 2], 1)

    def test_u_gets_extra_working_precision(self):
        s, _ = evaluate(parse_formspec("U(4, theta(1))"), 10)
        assert s.prec >= 10
        assert s.offset == 0
        assert [s.coeffs[n] for n in (0, 1, 4, 9)] == [1, 2, 2, 2]

    def test_fractional_offset_into_u_rejected(self):
        with pytest.raises(ValueError):
            evaluate(parse_formspec("U(2, eta(1))"), 4)

    def test_dilated_e4(self):
        s, _ = evaluate(parse_formspec("E4(4)"), 9)
        assert s.coeffs == [1, 0, 0, 0, 240, 0, 0, 0, 2160]

    def test_one_denominator(self):
        # Scale, Add, Sub, Mul and D on a 1/24 offset each act on den.
        cases = {"1/3*theta(1) + 2/3*theta(1)": 3,
                 "1/2*theta(1) - 1/3*theta(2)": 6,
                 "(1/2*theta(1))*(1/3*theta(2))": 6,
                 "(1/2*theta(1))*(1/2*theta(1))*(1/2*theta(1))": 8,
                 "D(eta(1))": 24,
                 "1/2*D(eta(2))": 24}
        for text, den in cases.items():
            assert evaluate(parse_formspec(text), 8)[1] == den, text

    @given(tree=_trees(), need=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, tree, need):
        s, den = evaluate(parse_formspec(_render(tree)), need)
        off, want = eval_fraction(tree, need)
        assert den > 0 and all(type(c) is int for c in s.coeffs)
        assert s.offset == off and s.prec == need
        assert [Fraction(c, den) for c in s.coeffs] == want[:need]


# Atoms on strides 1 to 5 and eta(24), whose offset 1 moves a term by
# an integer from the others.
_STRIDED = st.one_of(st.tuples(st.sampled_from(["eta", "theta", "E4"]),
                               st.integers(1, 5)),
                     st.just(("eta", 24)))


@st.composite
def _sums_of_products(draw):
    """A sum of at least three scaled products and of other terms, over
    a small pool of factors (D of an atom, or an atom), so that factors
    and whole terms repeat; rational scalars sit on the factors, on the
    terms and on the sum."""
    pool = draw(st.lists(st.one_of(_STRIDED, st.tuples(st.just("D"),
                                                       _STRIDED)),
                         min_size=1, max_size=4))
    factor = st.sampled_from(pool).flatmap(lambda f: st.one_of(
        st.just(f), st.builds(lambda r: ("scale", r, f), _SCALARS)))
    products = draw(st.lists(st.tuples(st.just("mul"), factor, factor),
                             min_size=3, max_size=5))
    others = draw(st.lists(factor, max_size=2))
    terms = products + others
    terms += draw(st.lists(st.sampled_from(terms), max_size=2))
    terms = [draw(st.one_of(st.just(t), st.builds(
        lambda r: ("scale", r, t), _SCALARS))) for t in terms]
    tree = terms[0]
    for t in terms[1:]:
        tree = (draw(st.sampled_from(["add", "sub"])), tree,
                _onto_grid(t, _offset(terms[0])))
    return draw(st.one_of(st.just(tree), st.builds(
        lambda r: ("scale", r, tree), _SCALARS)))


class TestLinearCombination:
    @given(tree=_sums_of_products(), need=st.integers(8, 40),
           paths=st.permutations(["pairs", "rows", "ntt"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle_on_every_path(self, tree, need, paths):
        # The products take the three paths in turn, whatever _plan would
        # pick, so every sum mixes them in one lincomb.
        taken = []

        def plan(a, b):
            path = paths[len(taken) % 3]
            taken.append(path)
            return path, (fs.qs._stride(b.coeffs, min(a.prec, b.prec))
                          if path == "rows" else 1)
        with mock.patch.object(fs.qs, "_plan", plan):
            s, den = evaluate(parse_formspec(_render(tree)), need)
        off, want = eval_fraction(tree, need)
        assert den > 0 and all(type(c) is int for c in s.coeffs)
        assert s.offset == off and s.prec == len(want)
        assert [Fraction(c, den) for c in s.coeffs] == want
        assert set(taken) == set(paths)


class TestMetadataHints:
    def weight(self, text):
        return signature(parse_formspec(text))[0]

    def level(self, text):
        return signature(parse_formspec(text))[1]

    def test_weights(self):
        assert self.weight("eta(1)^24") == 12
        assert self.weight(DELTA_SPEC) == Fraction(13, 2)
        assert self.weight("U(4, %s)" % G_SPEC) == Fraction(3, 2)
        assert self.weight("thetapsi(-4, 1)") == Fraction(3, 2)
        assert self.weight("D(theta(1))") == Fraction(5, 2)
        assert self.weight("psi(2)") == Fraction(1, 2)

    def test_mixed_weight_sum_rejected(self):
        with pytest.raises(ValueError, match="sum mixes weights 1/2 and 4"):
            signature(parse_formspec("eta(1) + E4(1)"))
        with pytest.raises(ValueError, match="sum mixes weights"):
            signature(parse_formspec("eta(1) - E4(1)"))

    def test_level_hints(self):
        assert self.level("eta(1)^24") == 1
        assert self.level(DELTA_SPEC) == 4
        assert self.level("U(4, %s)" % G_SPEC) == 44
        assert self.level("theta(1)") == 4
        assert self.level("theta(3)*eta(2)") == 12
        assert self.level("thetapsi(-3, 2)") == 72
        assert self.level("U(3, theta(1))") == 12
        assert self.level("psi(3)") == 6

    @pytest.mark.parametrize("text, offset", [
        ("eta(1)", Fraction(1, 24)), ("eta(2)*eta(22)", 1),
        ("eta(1)^24", 1), ("eta(5)^3", Fraction(5, 8)),
        ("D(eta(1))", Fraction(1, 24)), ("-1/2*eta(3)^2", Fraction(1, 4)),
        ("E4(4)*theta(1)", 0), ("thetapsi(-3, 2)", 0),
        ("U(4, %s)" % G_SPEC, 0), ("U(2, eta(1)^24)", 0),
        ("eta(25)*theta(2) + eta(1)*theta(1)", Fraction(1, 24)),
        ("U(2, E4(1)) - eta(24)^8", 0), ("psi(3)", Fraction(3, 8)),
        ("psi(2)^4", 1)])
    def test_offset_is_the_evaluated_one(self, text, offset):
        got = signature(parse_formspec(text))[2]
        assert got == offset == evaluate(parse_formspec(text), 4)[0].offset

    @given(tree=_trees())
    @settings(max_examples=150, deadline=None)
    def test_offset_matches_evaluation(self, tree):
        node = parse_formspec(_render(tree))
        try:
            offset = signature(node)[2]
        except ValueError as exc:
            # The trees mix weights freely; their sums are on one grid.
            assert "sum mixes weights" in str(exc)
            assume(False)
        assert offset == evaluate(node, 3)[0].offset

    @pytest.mark.parametrize("text, message", [
        ("U(1000, U(1000, eta(1)))",
         "U_1000 needs an integer exponent grid, offset is 1/24"),
        ("U(2, eta(1)^5)",
         "U_2 needs an integer exponent grid, offset is 5/24"),
        ("U(3, theta(1) + eta(1))",
         "offsets 0 and 1/24 are not on a common grid")])
    def test_grid_refused_before_evaluation(self, text, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            signature(parse_formspec(text))

    def test_u_level(self):
        # U(m, .) has the level of the U_m image (arith.u_type): a
        # half-integral argument and a non-square m give lcm(N, 4m), so
        # theta | U_2 = theta(2z) lies on level 8 like theta(2).
        assert self.level("U(2, theta(1))") == self.level("theta(2)") == 8
        assert self.level("U(4, theta(1))") == 4
        assert self.level("U(2, E4(1))") == 2
        assert self.level("U(2, eta(1)^24)") == 2
        assert self.level("2*theta(1) - theta(2)") == 8


class TestWorkingPrec:
    @pytest.mark.parametrize("text, need", [
        ("theta(1)", 10), ("U(4, %s)" % G_SPEC, 40),
        ("U(1000, U(1000, theta(1)))", 10 ** 7),
        ("D(U(2, theta(1))) + U(3, theta(1))", 30),
        ("2*U(2, U(3, E4(1)))*theta(1)", 60), (DELTA_SPEC, 10)])
    def test_each_u_multiplies_the_need(self, text, need):
        assert fs.working_prec(parse_formspec(text), 10) == need

    @given(tree=_trees())
    @settings(max_examples=100, deadline=None)
    def test_it_is_the_most_any_generator_is_asked_for(self, tree):
        node = parse_formspec(_render(tree))
        asked = []

        def spy(make):
            def series(*args):
                asked.append(args[-1])      # the grid positions asked for
                return make(*args)
            return series
        atoms = {name: rule._replace(series=spy(rule.series))
                 for name, rule in fs.ATOMS.items()}
        with mock.patch.dict(fs.ATOMS, atoms), \
                mock.patch.object(fs.qs, "eta_pow", spy(fs.qs.eta_pow)):
            evaluate(node, 3)
        assert max(asked) == fs.working_prec(node, 3)

    def test_a_power_is_one_atom_that_asks_for_nothing(self):
        # The exponent is a field of the atom: a power is one pair of the
        # schedule, with no asks, and exponent 1 is the bare atom.
        for text in ("eta(1)^24", "E4(1)^2"):
            node = parse_formspec(text)
            assert fs._schedule(node, 10) == {(node, 10): [1, []]}
        node = parse_formspec("theta(1)^1 + theta(1)")
        assert node.left is node.right == Atom("theta", 1)

    def test_a_deep_chain_hashes_each_node_once(self):
        # The schedule is keyed by (node, need); a node keeps its hash,
        # so a chain of 300 D's is hashed in one pass over its nodes, not
        # once per subtree at every lookup.
        node = parse_formspec("D(" * 300 + "theta(1)" + ")" * 300)
        values = fs.FrozenRecord._values
        with mock.patch.object(fs.FrozenRecord, "_values", autospec=True,
                               side_effect=values) as spy:
            assert fs.working_prec(node, 10) == 10
        assert spy.call_count <= 2 * 301


def _frames() -> int:
    """The Python frames on the stack of the caller."""
    frame, n = sys._getframe(1), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


class TestOneWalk:
    @pytest.mark.parametrize("text", [
        " + ".join(["theta(1)"] * 400),
        "D(" * 300 + "theta(1)" + ")" * 300], ids=["sum400", "D300"])
    def test_long_and_deep_trees_do_not_recurse(self, text):
        # working_prec and evaluate walk the tree with explicit stacks, so
        # the longest sum and a deep nest run 60 frames above the caller.
        node = parse_formspec(text)
        want = fs.working_prec(node, 10), evaluate(node, 10)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frames() + 60)
        try:
            got = fs.working_prec(node, 10), evaluate(node, 10)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    @given(tree=_trees())
    @settings(max_examples=100, deadline=None)
    def test_equal_subtrees_are_one_object(self, tree):
        # The tree is spelled out twice, so at least one subtree repeats.
        text = "%s + 2*(%s)" % ((_render(tree),) * 2)
        seen, stack = {}, [parse_formspec(text)]
        while stack:
            node = stack.pop()
            assert seen.setdefault(node, node) is node
            stack += [x for x in map(node.__getattribute__, node.__slots__)
                      if isinstance(x, fs.FrozenRecord)]
