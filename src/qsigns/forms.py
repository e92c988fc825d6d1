"""The form type and the named forms.

A Form carries an integer coefficient table a(n) for 0 <= n <= prec plus
weight/level/character metadata.  Integrality is checked at finalization,
never assumed; the level and character are declared metadata (transformation
behaviour is not verified here), while support conditions are.

NAMED is the one table of form names: each name maps to a formspec
expression (see formspec), which gives the form's weight and level.
delta and g, the plus-space forms, keep a constructor each, which
checks their support condition once on the built table.
"""

from __future__ import annotations

import operator
from itertools import chain, compress, count, repeat
from math import gcd

from .arith import DirichletCharacter, Record
from . import lazy_submodule

# The expression evaluator and the q-series engine run only when a form
# is built, so a command that reads a file never compiles them.
formspec = lazy_submodule("formspec")
qseries = lazy_submodule("qseries")

# The largest prec of a build or a coefficient file, and the most grid
# positions an expression may ask of any node: g's, 4 (prec + 1), there.
LARGE_PREC_CAP = 1_000_000
WORKING_PREC_CAP = 4 * (LARGE_PREC_CAP + 1)

# name -> formspec expression, for every name `build --form` knows.
NAMED = {
    "delta": "1/4*(2*E4(4)*D(theta(1)) - 1/4*D(E4(4))*theta(1))",
    "g": "1/2*U(4, eta(2)*eta(22)*theta(11))",
    "Delta": "eta(1)^24",
    "G11": "eta(1)^2*eta(11)^2",
    "E4": "E4(1)",
}


class PrecisionError(ValueError):
    """A series does not reach the q^prec its integer table needs."""


class Form(Record):
    """Form of weight weight_num/2 with integer coefficients.

    Odd weight_num is a half-integral weight k + 1/2 on a level divisible
    by 4; even weight_num is an even integral weight 2k.  The level is
    positive.  coeffs[n] = a(n) for 0 <= n <= prec = len(coeffs) - 1;
    a(0) is an ordinary entry (1 for E4), and no statistic reads it.
    """

    __slots__ = ("weight_num", "level", "character", "coeffs")

    def __init__(self, weight_num: int, level: int,
                 character: DirichletCharacter, coeffs: list[int]):
        if level < 1:
            raise ValueError("level must be positive, got %d" % level)
        if weight_num % 2:
            if weight_num < 1:
                raise ValueError("weight numerator must be positive")
            if level % 4 != 0:
                raise ValueError("level must be divisible by 4")
        elif weight_num % 4 or weight_num < 4:
            raise ValueError("integral weight must be a positive even integer")
        if level % character.modulus:
            raise ValueError("character modulus %d does not divide the "
                             "level %d" % (character.modulus, level))
        super().__init__(weight_num, level, character, coeffs)

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1

    @property
    def half_integral(self) -> bool:
        return self.weight_num % 2 == 1

    @property
    def k(self) -> int:
        """k of the weight k + 1/2, or of the integral weight 2k."""
        return self.weight_num // (2 if self.half_integral else 4)


def plus_space_check(f: Form) -> list[int]:
    """Indices n <= prec violating a(n) = 0 for (-1)^k n = 2, 3 mod 4."""
    if not f.half_integral:
        raise ValueError("the plus space is defined in half-integral weight")
    # n = 2, 3 mod 4 for even k; -n = 2, 3, that is n = 1, 2, for odd k.
    residues = (1, 2) if f.k % 2 else (2, 3)
    return sorted(chain.from_iterable(
        compress(range(r, f.prec + 1, 4), f.coeffs[r::4]) for r in residues))


def integer_table(series: qseries.QSeries, prec: int,
                  den: int = 1) -> list[int]:
    """Read a(0)..a(prec) off series / den, asserting integrality; the
    entries below the series' offset are zero.

    The series must have an integral offset and cover exponents up to
    prec; den (as formspec.evaluate returns it) must divide every
    coefficient read.
    """
    if series.offset.denominator != 1:
        raise ValueError("cannot finalize a series with fractional offset %s"
                         % series.offset)
    off = int(series.offset)
    if off + series.prec <= prec:
        raise PrecisionError("q^%d beyond precision" % prec)
    lo = max(0, off)
    head = [0] * min(lo, prec + 1)
    window = series.coeffs[lo - off:prec + 1 - off]
    if den != 1:
        bad = next(compress(count(), map(operator.mod, window,
                                         repeat(den))), None)
        if bad is not None:
            common = gcd(window[bad], den)
            raise ValueError("non-integral coefficient %d/%d at q^%d"
                             % (window[bad] // common, den // common,
                                lo + bad))
        window = list(map(operator.floordiv, window, repeat(den)))
    return head + window


def expression_form(spec: str, prec: int) -> Form:
    """The Form of a formspec expression, a(0) through a(prec), with the
    weight and level of formspec.signature and the trivial character.
    The Form's weight and level, and the working precision (at most
    WORKING_PREC_CAP), are checked first; an expression deeper than
    formspec.MAX_DEPTH, or nested too deeply for the parser's recursion,
    is refused."""
    if prec < 1:
        raise ValueError("prec must be positive")
    try:
        ast = formspec.parse_formspec(spec)
        weight, level, _ = formspec.signature(ast)
        form = Form(weight_num=int(2 * weight), level=level,
                    character=DirichletCharacter.trivial(level), coeffs=[])
        need = formspec.working_prec(ast, prec + 1)
        if need > WORKING_PREC_CAP:
            raise ValueError("working precision %d exceeds %d"
                             % (need, WORKING_PREC_CAP))
        series, den = formspec.evaluate(ast, prec + 1)
    except RecursionError:
        raise ValueError(formspec.TOO_DEEP) from None
    form.coeffs = integer_table(series, prec, den)
    return form


def _named(name: str, prec: int) -> Form:
    """The named plus-space form, its support condition enforced."""
    form = expression_form(NAMED[name], prec)
    bad = plus_space_check(form)
    if bad:
        raise ValueError("plus-space support condition fails at n=%d"
                         % bad[0])
    return form


def delta_form(prec: int) -> Form:
    """The weight-13/2, level-4 plus-space cusp form built from the
    weight-4 Eisenstein series and the standard theta series:

        (1/4) * (2 E4(4z) (D theta)(z) - (D E4)(4z) theta(z)),

    D = q d/dq.  Expansion starts q - 56 q^4 + 120 q^5 - 240 q^8 + ...
    In the expression, D(E4(4)) differentiates the dilated series, which
    is 4 (D E4)(4z); hence its inner 1/4.
    """
    return _named("delta", prec)


def g_form(prec: int) -> Form:
    """The weight-3/2, level-44 plus-space cusp form

        (1/2) (theta(11z) eta(2z) eta(22z)) | U_4,

    with expansion q^3 - q^4 - q^11 - q^12 + q^15 + 2 q^16 + ...

    The eta product is supported on odd exponents, which U_4 kills, so
    halving the two-sided theta's doubled terms is the same as building
    the product with the one-sided sum over n >= 0; the normalization
    makes the leading coefficient 1.  The eta factors are multiplied
    first, to 4x the requested precision; U_4 of their product with the
    theta series is then built from 4-sections at the requested precision
    (qseries.u_mul), so no 4x product with theta is formed.
    """
    return _named("g", prec)
