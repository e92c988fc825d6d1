"""Hecke operators, U_m, the Shimura lift, and eigenvalue diagnostics.

Every operator returns its image as a Form whose table covers
0 <= n <= its own precision: the q-expansion formulas hold at n = 0
(T(p) E4 = sigma_3(p) E4).  T(p^2) and T(p) keep the input's weight,
level and character, and u_image gives U_m's.  One rule, _image, builds
all three tables; a p^2, p or m above the precision is refused before
anything else about it is read.
Eigenvalue extraction is exact integer arithmetic; a non-dividing ratio
is a hard not-an-eigenform verdict, never a rounding question.  An
EigenReport carries the whole verdict: the eigenvalue, its Satake data
and whether it meets the Deligne bound, lam^2 <= 4 p^(2k-1).

The T(p^2) verdict is also that of the recurrence along t p^(2m):
a(t p^2) = a(t) (lam_p - chi*(p) (t/p) p^(k-1)) and, for m >= 2,
a(t p^(2m)) = lam_p a(t p^(2m-2)) - p^(2k-1) a(t p^(2m-4)).  Step m is
T(p^2) f = lam_p f at n = t p^(2m-2) <= prec / p^2, so the recurrence
holds within precision exactly when f is a T(p^2) eigenform.
"""

from __future__ import annotations

import operator
from itertools import compress, count, cycle, repeat

from .arith import (DirichletCharacter, Record, kronecker, require_good_prime,
                    u_type)
from .forms import Form
from .signs import square_class


class EigenReport(Record):
    """Outcome of comparing a sequence with its image under an operator."""

    __slots__ = ("p", "lam", "is_eigen", "checked_up_to", "first_violation",
                 "satake", "deligne_ok", "note")
    _defaults = {"first_violation": None, "satake": None,
                 "deligne_ok": None, "note": ""}


def shimura_lift(f: Form, t: int) -> Form:
    """Lift at the square-free index t:

        A(n) = sum_{d | n} chi_t(d) d^(k-1) a(t (n/d)^2),

    chi_t = chi ((-1)^k t / .) with chi the form's character read mod the
    level, which 4 divides: the twist is by ((-1)^k 4t / .), 0 at every
    even d whatever chi's modulus.  Each d with c = chi_t(d) d^(k-1) != 0
    adds c a(t m^2) to A(d m), for the t m^2 of signs.square_class (which
    checks t), so A holds for the n with t n^2 <= prec and A(0) = 0.  The
    lift is a weight-2k form on level N/2 with the squared character
    (trivial on the residues coprime to the level).
    """
    require_weight(f, half_integral=True)
    k, N = f.k, f.level
    b = list(map(f.coeffs.__getitem__, square_class(f, t)))
    chi_t = f.character.twist((-1) ** k * 4 * t)
    out = [0] * (len(b) + 1)
    for d in range(1, len(b) + 1):
        c = chi_t(d) * d ** (k - 1)
        if c:
            out[d::d] = map(operator.add, out[d::d], map(c.__mul__, b))
    return Form(weight_num=4 * k, level=N // 2,
                character=DirichletCharacter.trivial(N // 2), coeffs=out)


def t_square_half(p: int, f: Form) -> Form:
    """Apply T(p^2) for a prime p not dividing the level:

        b(n) = a(p^2 n) + chi*(p) (n/p) p^(k-1) a(n)
             + chi(p)^2 p^(2k-1) a(n / p^2),

    chi* = chi (-4/.)^k, and the last term zero unless p^2 | n.  Valid for
    0 <= n <= prec // p^2.  chi is real, so chi(p)^2 = 1 at a good p.
    """
    require_weight(f, half_integral=True)
    _require_within("p^2", p * p, f)
    require_good_prime(p, f.level)
    return Form(f.weight_num, f.level, f.character, _image(
        f.coeffs, p * p, p ** (2 * f.k - 1),
        f.character.twist((-4) ** f.k)(p) * p ** (f.k - 1), p))


def t_integral(p: int, F: Form) -> Form:
    """Apply the integral-weight T(p) for a prime p not dividing the level:

        B(n) = A(p n) + chi^2(p) p^(2k-1) A(n / p),

    valid for 0 <= n <= prec // p; chi is real, so chi^2(p) = 1 at a good p.
    """
    require_weight(F, half_integral=False)
    _require_within("p", p, F)
    require_good_prime(p, F.level)
    return Form(F.weight_num, F.level, F.character,
                _image(F.coeffs, p, p ** (2 * F.k - 1)))


def u_image(m: int, f: Form) -> Form:
    """f | U_m: b(n) = a(m n) for 0 <= n <= prec // m, with the level and
    the character twist of arith.u_type; m must not exceed the precision.
    With no twist a non-trivial character is kept; any other is read mod
    the new level, where a square top is the trivial character."""
    if m < 1:
        raise ValueError("index must be positive")
    _require_within("m", m, f)
    coeffs = _image(f.coeffs, m)
    level, twist = u_type(f.level, m, f.half_integral)
    return Form(f.weight_num, level, f.character
                if twist == 1 and not f.character.is_trivial
                else f.character.twist(twist, level), coeffs)


def _require_within(name: str, q: int, f: Form):
    """Refuse, under its name, a q above f's precision."""
    if q > f.prec:
        raise ValueError("%s = %d exceeds the precision %d"
                         % (name, q, f.prec))


def _image(a: list[int], q: int, c_low: int = 0, c_mid: int = 0,
           p: int = 1) -> list[int]:
    """The table of T(p^2), T(p) and U_m by slices and map passes: b(n) =
    a(q n) + c_mid (n/p) a(n) + c_low a(n / q), 0 <= n <= (len(a) - 1) // q,
    the last term zero unless q | n; q is at most the precision
    (_require_within).  Only T(p^2) has a c_mid, and its p is odd (4
    divides a half-integral level), so (n/p) is read off one period of p
    values."""
    b = a[::q]
    if c_mid:
        period = [c_mid * kronecker(r, p) for r in range(p)]
        b = list(map(operator.add, b, map(operator.mul, a, cycle(period))))
    if c_low:
        b[::q] = map(operator.add, b[::q], map(operator.mul, a, repeat(c_low)))
    return b


def extract_eigenvalue(seq_before: list[int], seq_after: list[int], p: int,
                       k: int) -> EigenReport:
    """Compare a form's table with its T(p^2) or T(p) image on their
    shared index range from n = 1; k is the k of the form's weight.

    The candidate eigenvalue is read off at the first index where
    seq_before is nonzero and divides exactly; is_eigen requires
    seq_after(n) = lam * seq_before(n) at every shared index.  An integer
    lam also gets its Satake data and the Deligne bound check.
    """
    shared = min(len(seq_before), len(seq_after)) - 1
    if shared < 1:
        raise ValueError("sequences share no indices")
    n0 = next((n for n in range(1, shared + 1) if seq_before[n] != 0), None)
    if n0 is None:
        raise ValueError("seq_before vanishes on the shared range")
    lam, rem = divmod(seq_after[n0], seq_before[n0])
    if rem != 0:
        return EigenReport(p=p, lam=None, is_eigen=False, checked_up_to=shared,
                           first_violation=n0,
                           note="ratio %d/%d at n=%d is not an integer"
                                % (seq_after[n0], seq_before[n0], n0))
    after = seq_after[1:shared + 1]
    scaled = list(map(operator.mul, seq_before[1:shared + 1], repeat(lam)))
    violation = None if after == scaled else next(
        compress(count(1), map(operator.ne, after, scaled)))
    sat = satake(lam, p, k)
    return EigenReport(p=p, lam=lam, is_eigen=violation is None,
                       checked_up_to=shared, first_violation=violation,
                       satake=sat, deligne_ok=sat[2] <= 0)


def eigen_report(f: Form, p: int) -> EigenReport:
    """Eigen check under T(p^2) in half-integral weight and T(p) in
    integral weight, over every index the precision supports."""
    image = t_square_half(p, f) if f.half_integral else t_integral(p, f)
    return extract_eigenvalue(f.coeffs, image.coeffs, p, f.k)


def satake(lam: int, p: int, k: int) -> tuple[int, int, int]:
    """Trace, norm and discriminant sign of X^2 - lam X + p^(2k-1).

    A negative sign means the roots form a complex-conjugate pair on the
    circle of radius p^(k - 1/2); no irrational arithmetic is done.  A
    sign <= 0 is the Deligne bound lam^2 <= 4 p^(2k-1) (deligne_ok)."""
    norm = p ** (2 * k - 1)
    disc = lam * lam - 4 * norm
    return (lam, norm, (disc > 0) - (disc < 0))


def require_weight(f: Form, half_integral: bool):
    """Refuse a form not of the asked weight class and, in half-integral
    weight, weight 1/2."""
    if f.half_integral != half_integral:
        raise ValueError("needs a form of %s weight, got weight %d/2"
                         % ("half-integral" if half_integral else "integral",
                            f.weight_num))
    if half_integral and f.k == 0:
        # T(p^2) would carry the factor p^(k-1) = 1/p, the lift weight 0.
        raise ValueError("weight 1/2 is not supported: T(p^2) and the "
                         "Shimura lift need weight 3/2 or more")
