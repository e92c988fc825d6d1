"""Hecke operators, U_m, the Shimura lift, and eigenvalue diagnostics.

Every operator returns its image as a Form whose table covers
0 <= n <= its own precision: the q-expansion formulas hold at n = 0
(T(p) E4 = sigma_3(p) E4).  T(p^2) and T(p) keep the input's weight,
level and character, and u_image gives U_m's.  One rule, _image, builds
all three tables and refuses a p^2, p or m above the precision.
Eigenvalue extraction is exact integer arithmetic; a non-dividing ratio
is a hard not-an-eigenform verdict, never a rounding question.  An
EigenReport carries the whole verdict: the eigenvalue, its Satake data
and whether it meets the Deligne and the elementary bound.
"""

from __future__ import annotations

import operator
from itertools import cycle, repeat

from .arith import (DirichletCharacter, Record, kronecker, require_good_prime,
                    u_type)
from .forms import Form
from .signs import prime_powers, square_class


class EigenReport(Record):
    """Outcome of comparing a sequence with its image under an operator."""

    __slots__ = ("p", "lam", "is_eigen", "checked_up_to", "first_violation",
                 "satake", "deligne_ok", "elementary_bound_ok", "note")
    _defaults = {"first_violation": None, "satake": None,
                 "deligne_ok": None, "elementary_bound_ok": None, "note": ""}


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
    _require_weight(f, half_integral=True)
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
    0 <= n <= prec // p^2.
    """
    _require_weight(f, half_integral=True)
    require_good_prime(p, f.level)
    return Form(f.weight_num, f.level, f.character, _image(
        "p^2", f.coeffs, p * p, f.character(p) ** 2 * p ** (2 * f.k - 1),
        f.character.twist((-4) ** f.k)(p) * p ** (f.k - 1), p))


def t_integral(p: int, F: Form) -> Form:
    """Apply the integral-weight T(p) for a prime p not dividing the level:

        B(n) = A(p n) + chi^2(p) p^(2k-1) A(n / p),

    valid for 0 <= n <= prec // p.
    """
    _require_weight(F, half_integral=False)
    require_good_prime(p, F.level)
    return Form(F.weight_num, F.level, F.character, _image(
        "p", F.coeffs, p, F.character(p) ** 2 * p ** (2 * F.k - 1)))


def u_image(m: int, f: Form) -> Form:
    """f | U_m: b(n) = a(m n) for 0 <= n <= prec // m, with the level and
    the character twist of arith.u_type; m must not exceed the precision.
    With no twist, a trivial character moves to the new level and a
    non-trivial one is kept."""
    if m < 1:
        raise ValueError("index must be positive")
    coeffs = _image("m", f.coeffs, m)
    level, twist = u_type(f.level, m, f.half_integral)
    character = f.character
    if twist != 1:
        character = character.twist(twist, level)
    elif character.is_trivial:
        character = DirichletCharacter.trivial(level)
    return Form(f.weight_num, level, character, coeffs)


def _image(name: str, a: list[int], q: int, c_low: int = 0, c_mid: int = 0,
           p: int = 1) -> list[int]:
    """The table of T(p^2), T(p) and U_m by slices and map passes: b(n) =
    a(q n) + c_mid (n/p) a(n) + c_low a(n / q), 0 <= n <= (len(a) - 1) // q,
    the last term zero unless q | n; a q above the precision is refused
    under its name.  Only T(p^2) has a c_mid, and its p is odd (4 divides
    a half-integral level), so (n/p) is read off one period of p values."""
    if q >= len(a):
        raise ValueError("%s = %d exceeds the precision %d"
                         % (name, q, len(a) - 1))
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
    lam also gets its Satake data and both bound checks.
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
    violation = next((n for n in range(1, shared + 1)
                      if seq_after[n] != lam * seq_before[n]), None)
    sat = satake(lam, p, k)
    return EigenReport(p=p, lam=lam, is_eigen=violation is None,
                       checked_up_to=shared, first_violation=violation,
                       satake=sat, deligne_ok=sat[2] <= 0,
                       elementary_bound_ok=elementary_bound_check(lam, p, k))


def eigen_report(f: Form, p: int) -> EigenReport:
    """Eigen check under T(p^2) in half-integral weight and T(p) in
    integral weight, over every index the precision supports."""
    image = t_square_half(p, f) if f.half_integral else t_integral(p, f)
    return extract_eigenvalue(f.coeffs, image.coeffs, p, f.k)


class RecurrenceReport(Record):
    """Result of checking the local Hecke recurrence along t p^(2m)."""

    __slots__ = ("ok", "t", "p", "lam", "max_m", "indices", "note")
    _defaults = {"note": ""}


def recurrence_check(f: Form, t: int, p: int) -> RecurrenceReport:
    """Verify, within precision, that the prime-power coefficients obey

        a(t p^2)    = a(t) (lam_p - chi*(p) (t/p) p^(k-1)),
        a(t p^(2m)) = lam_p a(t p^(2m-2))
                      - chi(p)^2 p^(2k-1) a(t p^(2m-4)),  m >= 2,

    along signs.prime_powers.  Step m is T(p^2) f = lam_p f at
    n = t p^(2m-2) (see t_square_half; from m = 2 on, (n/p) = 0), and
    every such n is at most prec / p^2, where eigen_report checks that
    equation.  So the recurrence holds exactly when f is a T(p^2)
    eigenform within precision, and lam_p is its eigenvalue."""
    _require_weight(f, half_integral=True)
    indices = prime_powers(f, t, p)
    rep = eigen_report(f, p)
    if not rep.is_eigen:
        return RecurrenceReport(ok=False, t=t, p=p, lam=rep.lam, max_m=0,
                                indices=indices,
                                note="not a T(p^2) eigenform: %s"
                                     % (rep.note or
                                        "violation at n=%s" % rep.first_violation))
    return RecurrenceReport(ok=True, t=t, p=p, lam=rep.lam,
                            max_m=len(indices) - 1, indices=indices)


def satake(lam: int, p: int, k: int) -> tuple[int, int, int]:
    """Trace, norm and discriminant sign of X^2 - lam X + p^(2k-1).

    A negative sign means the roots form a complex-conjugate pair on the
    circle of radius p^(k - 1/2); no irrational arithmetic is done.  A
    sign <= 0 is the Deligne bound lam^2 <= 4 p^(2k-1) (deligne_ok)."""
    norm = p ** (2 * k - 1)
    disc = lam * lam - 4 * norm
    return (lam, norm, (disc > 0) - (disc < 0))


def elementary_bound_check(lam: int, p: int, k: int) -> bool:
    """|lam| < p^k + p^(k-1)."""
    return abs(lam) < p ** k + p ** (k - 1)


def _require_weight(f: Form, half_integral: bool):
    if f.half_integral != half_integral:
        raise ValueError("needs a form of %s weight, got weight %d/2"
                         % ("half-integral" if half_integral else "integral",
                            f.weight_num))
    if half_integral and f.k == 0:
        # T(p^2) would carry the factor p^(k-1) = 1/p, the lift weight 0.
        raise ValueError("weight 1/2 is not supported: T(p^2) and the "
                         "Shimura lift need weight 3/2 or more")
