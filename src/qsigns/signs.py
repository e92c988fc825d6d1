"""Sign-change detection and positivity statistics for coefficient tables.

A sign change is an adjacent pair of opposite-sign entries in the
zero-deleted subsequence; reported positions are 1-based indices of the
later entry of each flip (or the parameter labelling it, for surveys).
Ratios are exact fractions, rendered to a fixed number of decimals with
half-away-from-zero rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_fundamental_discriminant, is_squarefree, kronecker
from .forms import Form


@dataclass
class SignStatsReport:
    """Counts and sign-change data for one scanned subsequence."""

    X: int
    n_pos: int
    n_neg: int
    n_zero_skipped: int
    ratio: Fraction
    sign_change_count: int
    change_positions: list[int] = field(default_factory=list)

    @property
    def n_nonzero(self) -> int:
        return self.n_pos + self.n_neg

    def ratio_rendered(self, decimals: int = 6) -> str:
        return render_ratio(self.ratio, decimals)


def render_ratio(value: Fraction, decimals: int = 6) -> str:
    """Fixed-point rendering with half-away-from-zero rounding."""
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    scaled = abs(num) * 10 ** decimals
    q, r = divmod(scaled, den)
    if 2 * r >= den:
        q += 1
    if decimals == 0:
        return "%s%d" % (sign, q)
    return "%s%d.%0*d" % (sign, q // 10 ** decimals, decimals,
                          q % 10 ** decimals)


def sign_changes(seq) -> tuple[int, list[int]]:
    """Count adjacent sign flips in a sequence, skipping zeros.

    Returns (count, positions) with 1-based positions of the later entry
    of each flip."""
    seq = list(seq)
    if not any(seq):
        return 0, []
    rep = _scan(enumerate(seq, start=1), len(seq))
    return rep.sign_change_count, rep.change_positions


def _scan(values_with_positions, X: int) -> SignStatsReport:
    n_pos = n_neg = n_zero = 0
    changes = 0
    positions = []
    prev = 0
    for pos, value in values_with_positions:
        if value == 0:
            n_zero += 1
            continue
        if value > 0:
            n_pos += 1
            s = 1
        else:
            n_neg += 1
            s = -1
        if prev and s != prev:
            changes += 1
            positions.append(pos)
        prev = s
    nonzero = n_pos + n_neg
    if nonzero == 0:
        raise ValueError("no nonzero entries up to X=%d" % X)
    return SignStatsReport(X=X, n_pos=n_pos, n_neg=n_neg, n_zero_skipped=n_zero,
                           ratio=Fraction(n_pos, nonzero),
                           sign_change_count=changes,
                           change_positions=positions)


def subseq_t_n2(f, t: int, X: int) -> list[int]:
    """The coefficients a(t n^2) for n = 1..X; needs t X^2 <= prec."""
    if t < 1 or not is_squarefree(t):
        raise ValueError("t must be a square-free positive integer")
    if t * X * X > f.prec:
        raise ValueError("t X^2 = %d exceeds precision %d" % (t * X * X, f.prec))
    return [f.a(t * n * n) for n in range(1, X + 1)]


def r_plus_tot(f, X: int) -> SignStatsReport:
    """Share of positive values among the nonzero a(n), n <= X."""
    if X > f.prec:
        raise ValueError("X=%d exceeds precision %d" % (X, f.prec))
    coeffs = f.coeffs
    return _scan(((n, coeffs[n]) for n in range(1, X + 1)), X)


def r_plus_fund(f: Form, X: int) -> SignStatsReport:
    """Same count restricted to n <= X for which (-1)^k n is a fundamental
    discriminant (1 included); f has half-integral weight k + 1/2."""
    if not f.half_integral:
        raise ValueError("fund statistics need a half-integral form")
    if X > f.prec:
        raise ValueError("X=%d exceeds precision %d" % (X, f.prec))
    sign = -1 if f.k % 2 else 1
    coeffs = f.coeffs

    def scan():
        for n in range(1, X + 1):
            if is_fundamental_discriminant(sign * n):
                yield n, coeffs[n]

    return _scan(scan(), X)


def dprime_filter(T, primes, eps) -> list[int]:
    """Keep the t with (t/p_j) = eps_j for every j."""
    if len(primes) != len(eps):
        raise ValueError("primes and eps must have equal length")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    return [t for t in T
            if all(kronecker(t, p) == e for p, e in zip(primes, eps))]


def first_nonzero_in_square_class(f, t: int) -> tuple[int, int] | None:
    """Smallest n with a(t n^2) != 0 within precision, as (n, a(t n^2))."""
    n = 1
    while t * n * n <= f.prec:
        v = f.a(t * n * n)
        if v != 0:
            return n, v
        n += 1
    return None


def squarefree_sign_survey(f, ts) -> list[tuple[int, int]]:
    """The entries (t, a(t n_t^2)) for the square-free t in ts, in order,
    with n_t the smallest index making the coefficient nonzero; t with
    none within precision are skipped."""
    entries = []
    for t in ts:
        if is_squarefree(t):
            hit = first_nonzero_in_square_class(f, t)
            if hit is not None:
                entries.append((t, hit[1]))
    return entries


def prop2_witnesses(f, p: int, limit: int) -> dict:
    """Search n <= limit for both signs of a(n) in both Kronecker classes
    (n/p) = +-1.  Returns {(eps, sign): n or None}."""
    found = {(e, s): None for e in (1, -1) for s in (1, -1)}
    missing = 4
    for n in range(1, min(limit, f.prec) + 1):
        v = f.coeffs[n]
        if v == 0:
            continue
        key = (kronecker(n, p), 1 if v > 0 else -1)
        if key in found and found[key] is None:
            found[key] = n
            missing -= 1
            if missing == 0:
                break
    return found
