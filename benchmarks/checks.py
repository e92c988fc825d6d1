"""Independent checks of qsigns outputs.

Nothing here imports qsigns.  A check returns None when the output is
right and a one-line description of the problem otherwise.  The checks
are:

* sha256 digests of seed-independent outputs, recorded in
  reference.json from the seed commit.  Coefficient files are digested
  over their body lines only, so header additions (a checksum line, a
  provenance line) do not read as wrong coefficients; CSV tables are
  digested whole, because they are promised byte-stable;
* the paper's printed Table 1 and Table 2 cells, at the tolerances of
  the acceptance gate in tests/test_acceptance.py;
* small oracles computed here: Ramanujan's tau from the pentagonal
  series, and sigma_7 by a divisor sieve (E4^2 = E8 = 1 + 480 sum
  sigma_7(n) q^n).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Printed cells, X -> value, and the absolute tolerance per column.
TABLE1 = {"R_tot": ({10: "0.600", 100: "0.520", 1000: "0.518",
                     10_000: "0.504600", 100_000: "0.499600"},
                    Fraction(5, 10_000)),
          "R_fund": ({10: "0.667", 100: "0.548", 1000: "0.515",
                      10_000: "0.501643", 100_000: "0.500016"},
                     Fraction(5, 1000))}
# The X = 10 fundamental cell of Table 2 is excluded, as in the gate.
TABLE2 = {"R_tot": ({10: "0.500", 100: "0.500", 1000: "0.500",
                     10_000: "0.496042", 100_000: "0.501022"},
                    Fraction(5, 10_000)),
          "R_fund": ({10_000: "0.491968", 100_000: "0.500861"},
                     Fraction(1, 100))}


def load_reference(profile: str) -> dict:
    return json.loads(REFERENCE.read_text())[profile]


def _body_lines(path: Path) -> list[bytes]:
    return [line for line in path.read_bytes().splitlines(keepends=True)
            if not line.startswith(b"#")]


def body_digest(path: Path) -> str:
    return hashlib.sha256(b"".join(_body_lines(path))).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_table(path: Path) -> dict[int, int]:
    """The body of a coefficient file as {n: a(n)} (nonzero entries)."""
    out = {}
    for line in _body_lines(path):
        n, c = line.split(b"\t")
        out[int(n)] = int(c)
    return out


def expect_digest(path: Path, want: str, body_only: bool) -> str | None:
    if not path.exists():
        return "%s was not written" % path.name
    got = body_digest(path) if body_only else file_digest(path)
    if got != want:
        return "%s digest %s, expected %s" % (path.name, got[:12], want[:12])
    return None


def expect_table_cells(path: Path, printed: dict) -> str | None:
    """Compare a signs CSV with the printed cells it covers."""
    if not path.exists():
        return "%s was not written" % path.name
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    for row in rows[1:]:
        cells = dict(zip(header, row.split(",")))
        X = int(cells["X"])
        for column, (values, tol) in printed.items():
            if X in values and column in cells:
                got = Fraction(cells[column])
                if abs(got - Fraction(values[X])) > tol:
                    return "%s %s(%d) = %s, printed %s" % (
                        path.name, column, X, cells[column], values[X])
    return None


def tau_table(N: int) -> list[int]:
    """tau(n) for 0 <= n <= N (tau(0) = 0): q prod (1 - q^n)^24 as the
    24th power of Euler's pentagonal series."""
    euler = {0: 1}
    j = 1
    while j * (3 * j - 1) // 2 < N:
        s = -1 if j % 2 else 1
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e < N:
                euler[e] = s
        j += 1
    power = [1] + [0] * (N - 1)
    for _ in range(24):
        nxt = [0] * N
        for e, s in euler.items():
            for i in range(N - e):
                nxt[i + e] += s * power[i]
        power = nxt
    return [0] + power


def sigma7_table(N: int) -> list[int]:
    """sigma_7(n) for 0 <= n <= N by a divisor sieve."""
    sig = [0] * (N + 1)
    for d in range(1, N + 1):
        d7 = d ** 7
        for m in range(d, N + 1, d):
            sig[m] += d7
    return sig


def sign_changes(seq) -> int:
    """Adjacent sign flips in a sequence with its zeros deleted."""
    count, prev = 0, 0
    for v in seq:
        if v:
            s = 1 if v > 0 else -1
            count += prev != 0 and s != prev
            prev = s
    return count
