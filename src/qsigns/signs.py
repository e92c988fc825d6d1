"""Sign statistics: which coefficients each statistic reads, and one scan.

Each statistic reads a(n) along one index set, stated here once:
prefix (1..X), fundamental (the n <= X with (-1)^k n a fundamental
discriminant), square_class (t n^2 <= prec), prime_powers
(t p^(2m) <= prec) and first_nonzero (per surveyed t, the least nonzero
t n_t^2).  square_class and prime_powers check t (square-free, positive,
a(t) within precision); prime_powers checks p (prime, not dividing the
level).  scan reads one index set in one pass; prefix and fundamental
ascend, so a table cuts the set for its largest X at every X.  A sign
change is an adjacent pair of opposite-sign entries once the zeros are
deleted, at the 1-based place in the index set of the later entry.
Ratios are exact fractions, rendered with half-away-from-zero rounding.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt

from .arith import (Record, fundamental_mask, is_prime, is_squarefree,
                    kronecker, require_good_prime)
from .forms import Form

# How many nonzero (n, a(n)) pairs a scan keeps as witnesses.
WITNESSES = 10


class SignStatsReport(Record):
    """Counts, sign changes and witnesses of one scanned index set."""

    __slots__ = ("entries", "n_pos", "n_neg", "change_positions",
                 "witnesses")

    @property
    def sign_change_count(self) -> int:
        return len(self.change_positions)

    @property
    def ratio(self) -> Fraction:
        """Share of positive values among the nonzero ones."""
        return Fraction(self.n_pos, self.n_pos + self.n_neg)

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


def scan(f: Form, indices) -> SignStatsReport:
    """Read a(n) for the n of indices, in order, once."""
    coeffs = f.coeffs
    n_pos = n_neg = entries = prev = 0
    positions, witnesses = [], []
    for entries, n in enumerate(indices, start=1):
        v = coeffs[n]
        if v > 0:
            n_pos += 1
            if prev < 0:
                positions.append(entries)
        elif v < 0:
            n_neg += 1
            if prev > 0:
                positions.append(entries)
        else:
            continue
        prev = v
        if len(witnesses) < WITNESSES:
            witnesses.append((n, v))
    return SignStatsReport(entries, n_pos, n_neg, positions, witnesses)


def prefix(f: Form, X: int) -> range:
    """1..X; needs X <= prec."""
    if X > f.prec:
        raise ValueError("X=%d exceeds precision %d" % (X, f.prec))
    return range(1, X + 1)


def fundamental(f: Form, X: int) -> list[int]:
    """The n <= X with (-1)^k n a fundamental discriminant (1 among them
    when k is even); f has half-integral weight k + 1/2.  Square-freeness
    is read off one sieve up to X, and the discriminants off
    arith.fundamental_mask."""
    if not f.half_integral:
        raise ValueError("fund statistics need a half-integral form")
    N = len(prefix(f, X))
    squarefree = bytearray(b"\x01") * (N + 1)
    for p in filter(is_prime, range(isqrt(N) + 1)):
        squarefree[p * p::p * p] = bytes(N // (p * p))
    mask = fundamental_mask(-1 if f.k % 2 else 1, squarefree)
    return list(compress(range(N + 1), mask))


def square_class(f: Form, t: int) -> list[int]:
    """t n^2 <= prec for n = 1, 2, ..."""
    _check_t(f, t)
    return [t * n * n for n in range(1, isqrt(f.prec // t) + 1)]


def prime_powers(f: Form, t: int, p: int) -> list[int]:
    """t p^(2m) <= prec for m = 0, 1, ..."""
    _check_t(f, t)
    require_good_prime(p, f.level)
    out = [t]
    while out[-1] * p * p <= f.prec:
        out.append(out[-1] * p * p)
    return out


def first_nonzero(f: Form, ts) -> dict[int, int]:
    """t -> the least t n_t^2 with a(t n_t^2) != 0, for the t of ts in
    order; t that square_class refuses or whose class vanishes are left
    out."""
    out = {}
    for t in ts:
        try:
            indices = square_class(f, t)
        except ValueError:
            continue
        n = next((n for n in indices if f.coeffs[n]), None)
        if n:
            out[t] = n
    return out


def _check_t(f: Form, t: int):
    if t < 1 or not is_squarefree(t):
        raise ValueError("t must be a square-free positive integer")
    if t > f.prec:
        raise ValueError("a(t) is beyond the form's precision")


def dprime_filter(T, primes, eps) -> list[int]:
    """Keep the t with (t/p_j) = eps_j for every prime p_j, reading (t/p)
    off one period of t: p values, or 8 for p = 2."""
    if len(primes) != len(eps):
        raise ValueError("primes and eps must have equal length")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
    for p, e in zip(primes, eps):
        q = 8 if p == 2 else p
        hit = [kronecker(r, p) == e for r in range(q)]
        T = [t for t in T if hit[t % q]]
    return list(T)


def prop2_witnesses(f, p: int, limit: int) -> dict:
    """Search n <= limit (>= 1) for both signs of a(n) in both Kronecker
    classes (n/p) = +-1, p a good prime.  Returns {(eps, sign): n or None}."""
    require_good_prime(p, f.level)
    if limit < 1:
        raise ValueError("limit must be positive, got %d" % limit)
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
