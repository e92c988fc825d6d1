"""Sign statistics: which coefficients each statistic reads, one tally
and one scan.

The two table statistics are masks, one byte per n in 0..X, 1 where the
statistic reads a(n): prefix (1..X) and fundamental (the n <= X with
(-1)^k n a fundamental discriminant).  Neither selects n = 0.  counts is
the one tally: the positive and negative a(n) a mask selects up to each
X, read by compress and counted in C.  Ratios are exact, rendered from
those two ints with half-away-from-zero rounding.

The reports read index lists, in their own order: square_class
(t n^2 <= prec), prime_powers (t p^(2m) <= prec) and first_nonzero (per
surveyed t, the least nonzero t n_t^2).  square_class and prime_powers
check t (a(t) within precision, then square-free and positive);
prime_powers checks p (prime, not dividing the level).  scan reads one
index list in one pass, for its entry count, sign changes and
witnesses.  A sign change is an adjacent pair of opposite-sign entries
once the zeros are deleted, at the 1-based place in the list of the
later entry.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import isqrt
from operator import gt

from .arith import (Record, fundamental_mask, is_prime, is_squarefree,
                    kronecker, require_good_prime)
from .forms import Form

# How many nonzero (n, a(n)) pairs a scan keeps as witnesses.
WITNESSES = 10


class SignStatsReport(Record):
    """Sign changes and witnesses of one scanned index list."""

    __slots__ = ("entries", "change_positions", "witnesses")

    @property
    def sign_change_count(self) -> int:
        return len(self.change_positions)


def render_ratio(num: int, den: int, decimals: int = 6) -> str:
    """num / den (den > 0) in fixed point with half-away-from-zero
    rounding."""
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
    """Read a(n) for the n of indices, in order, once.  indices lists the
    n themselves, in any order (the --dprime survey goes in t order); a
    statistic's mask, one byte per n, is not an index list."""
    coeffs = f.coeffs
    entries = prev = 0
    positions, witnesses = [], []
    for entries, n in enumerate(indices, start=1):
        v = coeffs[n]
        if not v:
            continue
        if prev and (v > 0) != (prev > 0):
            positions.append(entries)
        prev = v
        if len(witnesses) < WITNESSES:
            witnesses.append((n, v))
    return SignStatsReport(entries, positions, witnesses)


def counts(f: Form, mask, xs) -> list[tuple[int, int]]:
    """(n_pos, n_neg) of the a(n) with n <= X that mask selects, for each X
    of xs, in order; mask covers 0..max(xs).  Each distinct X adds the
    piece compress(a(lo..X), mask[lo..X]) after the last cut lo, counted
    in C: its positives by one map, its zeros by list.count."""
    coeffs = f.coeffs
    at, lo, n_pos, n_neg = {}, 0, 0, 0
    for X in sorted(set(xs)):
        piece = list(compress(coeffs[lo:X + 1], mask[lo:X + 1]))
        pos = sum(map(gt, piece, repeat(0)))
        n_pos += pos
        n_neg += len(piece) - pos - piece.count(0)
        at[X] = n_pos, n_neg
        lo = X + 1
    return [at[X] for X in xs]


def prefix(f: Form, X: int) -> bytes:
    """The mask of 1..X; needs X <= prec."""
    if X > f.prec:
        raise ValueError("X=%d exceeds precision %d" % (X, f.prec))
    return b"\x00" + b"\x01" * X


def fundamental(f: Form, X: int) -> bytearray:
    """The mask of the n <= X with (-1)^k n a fundamental discriminant (1
    among them when k is even); f has half-integral weight k + 1/2.
    Square-freeness is read off one sieve up to X, and the discriminants
    off arith.fundamental_mask."""
    if not f.half_integral:
        raise ValueError("fund statistics need a half-integral form")
    squarefree = bytearray(prefix(f, X))
    for p in filter(is_prime, range(isqrt(X) + 1)):
        squarefree[p * p::p * p] = bytes(X // (p * p))
    return fundamental_mask(-1 if f.k % 2 else 1, squarefree)


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
    # The precision bounds t before trial division reads it.
    if t > f.prec:
        raise ValueError("a(t) is beyond the form's precision")
    if t < 1 or not is_squarefree(t):
        raise ValueError("t must be a square-free positive integer")


def dprime_filter(T, primes, eps) -> list[int]:
    """Keep the t with (t/p_j) = eps_j for every prime p_j.  (t/p) has a
    period of p values, or 8 for p = 2, and is read once for each residue
    that some t of T takes, so never more often than T has entries."""
    if len(primes) != len(eps):
        raise ValueError("primes and eps must have equal length")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
    T = list(T)
    for p, e in zip(primes, eps):
        q = 8 if p == 2 else p
        hit = {r: kronecker(r, p) == e for r in {t % q for t in T}}
        T = [t for t in T if hit[t % q]]
    return T


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
