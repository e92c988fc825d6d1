"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the package's series kernels: plain
list polynomials, literal products, direct lattice counts.  Oracles stay
independent of the code paths they check.
"""

from fractions import Fraction
from math import isqrt


def poly_mul(A, B, prec):
    """Schoolbook product of dense coefficient lists, truncated."""
    out = [0] * prec
    for i, x in enumerate(A[:prec]):
        if x == 0:
            continue
        for j, y in enumerate(B[:prec - i]):
            if y:
                out[i + j] += x * y
    return out


def dilated(coeffs, m, prec):
    """The first prec coefficients after q -> q^m: entry i is
    coeffs[i // m] when m divides i, and 0 otherwise."""
    return [coeffs[i // m] if i % m == 0 else 0 for i in range(prec)]


def euler_product_literal(prec):
    """prod_{n=1}^{prec-1} (1 - q^n) expanded term by term."""
    out = [0] * prec
    out[0] = 1
    for n in range(1, prec):
        factor = [0] * (n + 1)
        factor[0] = 1
        factor[n] = -1
        out = poly_mul(factor, out, prec)   # two terms as the row source
    return out


def tau_list(prec):
    """Ramanujan tau(1..prec) from the literal expansion of q prod (1-q^n)^24."""
    e = euler_product_literal(prec)
    power = [1]
    for _ in range(24):
        power = poly_mul(power, e, prec)
    # shift by q: tau(n) is the coefficient of q^(n-1) in the 24th power
    return [0] + power[:prec]


def x0_11_list(prec):
    """Coefficients a(1..prec) of eta(z)^2 eta(11z)^2 by literal expansion."""
    e1 = euler_product_literal(prec)
    e11 = [0] * prec
    for i, c in enumerate(euler_product_literal(prec)):
        if 11 * i < prec and c:
            e11[11 * i] = c
    prod = poly_mul(poly_mul(e1, e1, prec), poly_mul(e11, e11, prec), prec)
    # the eta offsets contribute q^(2/24 + 22/24) = q^1
    return [0] + prod[:prec]


def r2_list(prec):
    """Number of lattice points x^2 + y^2 = n for n < prec, counted directly."""
    out = [0] * prec
    bound = 1
    while bound * bound < prec:
        bound += 1
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            n = x * x + y * y
            if n < prec:
                out[n] += 1
    return out


def legendre_euler(a, p):
    """Legendre symbol mod an odd prime via the Euler criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def jacobi_euler(a, n):
    """Jacobi symbol (a/n) for odd n >= 1: the product of legendre_euler
    over the primes of n, each as often as it divides n."""
    out, p = 1, 3
    while n > 1:
        while n % p == 0:
            out *= legendre_euler(a, p)
            n //= p
        p += 2
    return out


def shimura_lift_loop(f, t):
    """The Shimura lift of a half-integral f at a square-free t, one n
    and one divisor d at a time:

        A(n) = sum_{d | n} chi(d) ((-1)^k t / d) d^(k-1) a(t n^2 / d^2),

    chi the form's own character, for 1 <= n <= sqrt(prec / t), and
    A(0) = 0.  chi must vanish at 2 (4 divides its modulus), so every d
    that counts is odd and its symbol is jacobi_euler's."""
    k, a = f.k, f.coeffs
    out = [0]
    for n in range(1, isqrt(f.prec // t) + 1):
        acc = 0
        for d in range(1, n + 1):
            if n % d == 0 and f.character(d):
                assert d % 2, "the oracle needs chi(2) = 0"
                acc += (f.character(d) * jacobi_euler((-1) ** k * t, d)
                        * d ** (k - 1) * a[t * n * n // (d * d)])
        out.append(acc)
    return out


def sigma_k(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def squarefree_kernel(n):
    """Largest square-free divisor structure: n = kernel * square."""
    kernel = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                kernel *= d
        d += 1
    return kernel * n


def recurrence_oracle(a0, a1, lam, p2k1, length):
    """a(t p^(2m)) for m < length from a0 = a(t) and a1 = a(t p^2) by the
    two-term Hecke recurrence a_m = lam a_(m-1) - p^(2k-1) a_(m-2)."""
    out = [a0, a1]
    while len(out) < length:
        out.append(lam * out[-1] - p2k1 * out[-2])
    return out


def t_square_half_loop(p, f):
    """T(p^2) of a half-integral form f at an odd prime p, one n at a
    time:

        b(n) = a(p^2 n) + chi*(p) (n/p) p^(k-1) a(n)
             + chi(p)^2 p^(2k-1) a(n / p^2),

    chi*(p) = (-4/p)^k chi(p), with the Legendre symbols of
    legendre_euler."""
    k, a, psq = f.k, f.coeffs, p * p
    cs = legendre_euler(-1, p) ** k * f.character(p)
    c2 = f.character(p) ** 2
    out = []
    for n in range(f.prec // psq + 1):
        b = a[psq * n] + cs * legendre_euler(n, p) * p ** (k - 1) * a[n]
        if n % psq == 0:
            b += c2 * p ** (2 * k - 1) * a[n // psq]
        out.append(b)
    return out


def t_integral_loop(p, F):
    """T(p) of an integral-weight form F, one n at a time:
    B(n) = A(p n) + chi(p)^2 p^(2k-1) A(n / p)."""
    c2 = F.character(p) ** 2
    A = F.coeffs
    out = []
    for n in range(F.prec // p + 1):
        b = A[p * n]
        if n % p == 0:
            b += c2 * p ** (2 * F.k - 1) * A[n // p]
        out.append(b)
    return out


def u_loop(m, f):
    """U_m of f, one n at a time: b(n) = a(m n)."""
    return [f.coeffs[m * n] for n in range(f.prec // m + 1)]


def eval_fraction(tree, need):
    """Evaluate an expression tree with Fraction coefficients, as
    (offset, coeffs) with coeffs[i] the coefficient of q^(offset + i).

    A tree is nested tuples: ("eta", m), ("theta", m), ("E4", m),
    ("scale", r, x), ("add", x, y), ("sub", x, y), ("mul", x, y),
    ("pow", x, e), ("D", x) and ("U", m, x).  Atoms come from their
    literal definitions and products from poly_mul; D multiplies the
    coefficient of q^e by e, and U(m, x) reads x at m * need positions.
    A sum keeps the exponents both operands know.
    """
    op = tree[0]
    if op == "eta":
        m = tree[1]
        out = [Fraction(0)] * need
        for i, c in enumerate(euler_product_literal(-(-need // m))):
            if m * i < need:
                out[m * i] = Fraction(c)
        return Fraction(m, 24), out
    if op == "theta":
        m = tree[1]
        out = [Fraction(0)] * need
        for n in range(-need, need + 1):
            if m * n * n < need:
                out[m * n * n] += 1
        return Fraction(0), out
    if op == "E4":
        m = tree[1]
        out = [Fraction(0)] * need
        out[0] = Fraction(1)
        for n in range(1, need):
            if m * n < need:
                out[m * n] = Fraction(240 * sigma_k(n, 3))
        return Fraction(0), out
    if op == "scale":
        off, c = eval_fraction(tree[2], need)
        return off, [tree[1] * v for v in c]
    if op in ("add", "sub"):
        (o1, c1), (o2, c2) = (eval_fraction(t, need) for t in tree[1:])
        if (o1 - o2).denominator != 1:
            raise ValueError("offsets on different grids")
        sign = 1 if op == "add" else -1
        lo = min(o1, o2)
        out = []
        for i in range(int(min(o1 + len(c1), o2 + len(c2)) - lo)):
            v = Fraction(0)
            if 0 <= lo + i - o1:
                v += c1[int(lo + i - o1)]
            if 0 <= lo + i - o2:
                v += sign * c2[int(lo + i - o2)]
            out.append(v)
        return lo, out
    if op == "mul":
        (o1, c1), (o2, c2) = (eval_fraction(t, need) for t in tree[1:])
        return o1 + o2, poly_mul(c1, c2, min(len(c1), len(c2)))
    if op == "pow":
        off, c = eval_fraction(tree[1], need)
        out = c
        for _ in range(tree[2] - 1):
            out = poly_mul(out, c, len(c))
        return tree[2] * off, out
    if op == "D":
        off, c = eval_fraction(tree[1], need)
        return off, [(off + i) * v for i, v in enumerate(c)]
    if op == "U":
        m = tree[1]
        off, c = eval_fraction(tree[2], m * need)
        if off.denominator != 1:
            raise ValueError("U needs an integer offset")
        return Fraction(0), [c[int(m * n - off)] if m * n >= off
                             else Fraction(0) for n in range(need)]
    raise ValueError("unknown node %r" % (op,))


def sign_scan(values, indices, cap=10):
    """Sign statistics of values[n] for n in indices, read literally:
    delete the zeros, then count adjacent flips.  Returns (n_pos, n_neg,
    n_zero, positions, witnesses): 1-based places in indices of the later
    entry of each flip, and the first cap nonzero (n, values[n])."""
    kept = [(place, n, values[n]) for place, n in enumerate(indices, start=1)
            if values[n] != 0]
    n_pos = len([v for _, _, v in kept if v > 0])
    n_neg = len([v for _, _, v in kept if v < 0])
    positions = [kept[i][0] for i in range(1, len(kept))
                 if (kept[i - 1][2] > 0) != (kept[i][2] > 0)]
    witnesses = [(n, v) for _, n, v in kept[:cap]]
    return n_pos, n_neg, len(indices) - len(kept), positions, witnesses
