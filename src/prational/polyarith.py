"""Exact arithmetic on integers and integer polynomials, shared by every module.

A polynomial is a tuple of arbitrary-precision integer coefficients in
ascending degree order, so ``1 - 2x + x^3`` is ``(1, -2, 0, 1)``.  Everything
in this module is pure integer (or Fraction) arithmetic; no floating point
touches this path.  Cyclotomic polynomials are built from the primes of n
with no polynomial division: Phi_n is the product of (1 - x^d)^mu(n/d) over
the divisors d of n, taken as a power series truncated above degree n
(Arnold and Monagan, *Calculating cyclotomic polynomials*, Math. Comp. 80,
2011), and cached.  Resultants go through the subresultant polynomial
remainder sequence so intermediate coefficients stay integral.  IntPoly has
evaluation and negation but no sum or product: the routines here compute
on its coefficients.

The integer primitives live here too: integer k-th roots, the Jacobi symbol,
rational bounds on square roots, Hensel lifting of simple roots, and the
common root of two polynomials mod p, through prem, the one remainder routine.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


class IntPoly(NamedTuple):
    """Dense integer polynomial; ``coeffs[i]`` multiplies ``x**i``.

    >>> IntPoly.of(-1, 0, 1)
    IntPoly('x^2 - 1')
    >>> IntPoly.of(-1, 0, 1).evaluate(3)
    8
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def of(*coeffs: int) -> "IntPoly":
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        return IntPoly(tuple(int(c) for c in coeffs[:end]))

    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    # IntPoly has no sum or product: + and * would otherwise be the tuple's
    # concatenation and repetition, and None makes each a TypeError
    __add__ = __mul__ = __rmul__ = None

    def evaluate(self, x):
        """Horner evaluation; works for any ring element supporting + and *."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly.of(*(i * c for i, c in enumerate(self.coeffs) if i))

    def reciprocal(self) -> "IntPoly":
        """``x**deg * f(1/x)`` (coefficients reversed)."""
        return IntPoly.of(*reversed(self.coeffs))

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def __repr__(self):
        return f"IntPoly('{self.pretty()}')"

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " - " if c < 0 else (" + " if parts else "")
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts and c < 0:
                sign = "-"
            parts.append(sign + term)
        return "".join(parts)


def prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: ``lead(b)**(deg a - deg b + 1) * a = q*b + r``.

    Works on one coefficient list r: each step multiplies r by d = lead(b)
    and subtracts lead(r) * x**(deg r - deg b) * b, which cancels its top
    coefficient.  A step can drop the degree by more than one, so the
    factors of d that no step applied are applied at the end."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    da, db = a.degree(), b.degree()
    if da < db:
        return a
    d = b.lead()
    e = da - db + 1
    low = b.coeffs[:-1]
    r = list(a.coeffs)
    while len(r) > db:
        lead = r.pop()
        shift = len(r) - db
        if d != 1:
            r = [c * d for c in r]
        for j, c in enumerate(low, shift):
            r[j] -= lead * c
        while r and not r[-1]:
            r.pop()
        e -= 1
    if e > 0:
        scale = d ** e
        r = [c * scale for c in r]
    return IntPoly(tuple(r))


def _res_std(a: IntPoly, b: IntPoly) -> int:
    """Standard resultant: ``lead(a)**deg(b) * prod b(alpha)`` over roots of a.

    Subresultant PRS; exact integer arithmetic throughout.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if a.degree() == 0:
        return a.lead() ** b.degree()
    if b.degree() == 0:
        return b.lead() ** a.degree()
    s = 1
    if a.degree() < b.degree():
        if (a.degree() * b.degree()) % 2:
            s = -s
        a, b = b, a
    ca, cb = abs(a.content()), abs(b.content())
    t = ca ** b.degree() * cb ** a.degree()
    a = IntPoly(tuple(c // ca for c in a.coeffs))
    b = IntPoly(tuple(c // cb for c in b.coeffs))
    g = h = 1
    while b.degree() > 0:
        delta = a.degree() - b.degree()
        if (a.degree() % 2) and (b.degree() % 2):
            s = -s
        r = prem(a, b)
        a = b
        denom = g * h ** delta
        b = IntPoly(tuple(c // denom for c in r.coeffs))
        g = a.lead()
        h = h if delta == 0 else (g ** delta) // (h ** (delta - 1))
    if b.is_zero():
        return 0
    h = (b.lead() ** a.degree()) // (h ** (a.degree() - 1))
    return s * t * h


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant with the convention ``lead(g)**deg(f) * prod f(beta)`` over roots of g.

    With this normalization ``resultant(f, x - c) == f(c)``, and the swap law
    reads ``resultant(f, g) == (-1)**(deg f * deg g) * resultant(g, f)``.
    """
    return _res_std(g, f)


def discriminant(f: IntPoly) -> int:
    """Discriminant of a monic polynomial of degree >= 1."""
    if not f.is_monic() or f.degree() < 1:
        raise ValueError("discriminant requires a monic polynomial of positive degree")
    if f.degree() == 1:
        return 1
    r = _res_std(f, f.derivative())
    sign = -1 if (f.degree() * (f.degree() - 1) // 2) % 2 else 1
    return sign * r


def euler_phi(n: int) -> int:
    """Euler totient: the degree of the n-th cyclotomic polynomial."""
    return cyclotomic(n).degree()


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, monic of degree ``euler_phi(n)``.

    For n > 1, Phi_n is the product of (1 - x^d)^mu(s) over the squarefree
    divisors s of n, with d = n/s.  Each factor is one pass over the
    coefficients mod x^(n+1): times 1 - x^d when mu(s) = 1, times
    1/(1 - x^d) = 1 + x^d + x^2d + ... when mu(s) = -1.  The coefficients
    above deg Phi_n = phi(n) come out 0.

    >>> cyclotomic(1)
    IntPoly('x - 1')
    >>> cyclotomic(12)
    IntPoly('x^4 - x^2 + 1')
    """
    from .factorint import factor

    if n < 1:
        raise ValueError("cyclotomic requires n >= 1")
    if n == 1:
        return IntPoly.of(-1, 1)
    primes = [p for p, _ in factor(n).complete_factors()]
    c = [1] + [0] * n
    for r in range(len(primes) + 1):
        for s in itertools.combinations(primes, r):
            d = n // math.prod(s)
            if r % 2:
                for i in range(d, n + 1):
                    c[i] += c[i - d]
            else:
                for i in range(n, d - 1, -1):
                    c[i] -= c[i - d]
    return IntPoly.of(*c)


def power_poly(f: IntPoly, k: int) -> IntPoly:
    """Monic polynomial whose roots are the k-th powers of the roots of f.

    f must be monic.  Computed in integers through Newton's identities (each
    division is exact); it is the characteristic polynomial of ``alpha**k``
    acting on Q[x]/(f), hence the minimal polynomial whenever ``alpha**k``
    still generates the same field.
    """
    if not f.is_monic():
        raise ValueError("power_poly requires a monic polynomial")
    if k < 1:
        raise ValueError("k must be >= 1")
    m = f.degree()
    if m == 0:
        return f
    # a[i] = coefficient of x^(m-i), Newton recurrence for power sums
    a = [f.coeffs[m - i] for i in range(m + 1)]
    p = [0] * (m * k + 1)
    for j in range(1, m * k + 1):
        acc = j * a[j] if j <= m else 0
        for i in range(1, min(j, m) + 1):
            acc += a[i] * p[j - i]
        p[j] = -acc
    # elementary symmetric functions of the powered roots
    e = [1] + [0] * m
    for j in range(1, m + 1):
        acc = 0
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * e[j - i] * p[i * k]
        e[j] = acc // j
    return IntPoly.of(*((-1) ** j * e[j] for j in range(m, -1, -1)))


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0.

    Integer Newton steps fall from a float estimate just above the root to
    its floor and stop there.  The estimate is within a relative 2**-40 of
    the root when log2(root) is below about 32, and its error grows only with
    that logarithm, so a few steps, each one power of about the size of n,
    settle it; a root of many bits takes a step per doubling of its bits.
    """
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    log_root = math.log2(n) / k
    shift = max(int(log_root) - 50, 0)   # keeps the estimate within the double range
    t = (math.ceil(2.0 ** (log_root - shift) * (1 + (log_root + 1) * 2.0 ** -45)) + 1) << shift
    while True:
        lower = ((k - 1) * t + n // t ** (k - 1)) // k
        if lower >= t:
            return t
        t = lower


def jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a|m) for odd m > 0, in {-1, 0, 1}: the Legendre
    symbol when m is prime, and it factors nothing.  Quadratic reciprocity
    turns (a|m) into (m|a) after the factors of 2 leave a, each of which
    gives -1 when m = 3 or 5 (mod 8) (Cohen, A Course in Computational
    Algebraic Number Theory, GTM 138, alg. 1.4.10).

    >>> jacobi(2, 7), jacobi(5, 21), jacobi(-1, 1)
    (1, 1, 1)
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"the Jacobi symbol needs an odd modulus m > 0, not {m}")
    a %= m
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and m % 8 in (3, 5):
            sign = -sign
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a, m = m % a, a
    return sign if m == 1 else 0


def sqrt_bounds(q: int | Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational (lower, upper) bounds for sqrt(q), q >= 0, that differ by
    ``1 / (denominator(q) * 2**bits)``."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative argument")
    s = math.isqrt(q.numerator * q.denominator << (2 * bits))
    den = q.denominator << bits
    return Fraction(s, den), Fraction(s + 1, den)


def hensel_lift(f: IntPoly, r: int, p: int, k: int) -> int:
    """Lift a simple root r of f from mod p to mod p**k (Newton steps that
    double the precision)."""
    fp = f.derivative()
    target = p ** k
    modulus = p
    while modulus < target:
        modulus = min(modulus * modulus, target)
        deriv = fp.evaluate(r) % modulus
        r = (r - f.evaluate(r) * pow(deriv, -1, modulus)) % modulus
    return r % target


def common_root_mod_p(f: IntPoly, g: IntPoly, p: int) -> int:
    """The root mod p of gcd(f, g) over F_p, which must have degree 1: Euclid
    on remainders reduced mod p, where lead(b) is a unit, so prem(a, b) mod p
    is a unit times the remainder of a by b over F_p."""
    a, b = (IntPoly.of(*(c % p for c in h.coeffs)) for h in (f, g))
    while not b.is_zero():
        a, b = b, IntPoly.of(*(c % p for c in prem(a, b).coeffs))
    if a.degree() != 1:
        raise ArithmeticError(f"gcd mod {p} has degree {a.degree()}, not 1")
    return -a.constant() * pow(a.lead(), -1, p) % p
