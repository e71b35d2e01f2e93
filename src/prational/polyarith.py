"""Exact arithmetic on integers and integer polynomials, shared by every module.

A polynomial is a tuple of arbitrary-precision integer coefficients in
ascending degree order, so ``1 - 2x + x^3`` is ``(1, -2, 0, 1)``.  Everything
in this module is pure integer (or Fraction) arithmetic; no floating point
touches this path.  Cyclotomic polynomials are produced by iterated exact
division of ``x^n - 1`` and cached, and resultants go through the
subresultant polynomial remainder sequence so intermediate coefficients stay
integral.

The integer primitives live here too: integer k-th roots, rational bounds on
square roots, Hensel lifting of simple roots, and root finding in F_p[x].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NonConvergenceError

_SPLIT_TRIES = 64   # splitting shifts roots_mod_p tries on one factor before it gives up


@dataclass(frozen=True)
class IntPoly:
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

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def x_pow_minus_one(n: int) -> "IntPoly":
        """``x**n - 1``."""
        return IntPoly.of(-1, *([0] * (n - 1)), 1)

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

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPoly.of(*(x + y for x, y in zip(a, b)))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPoly.zero()
            return IntPoly(tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPoly.of(*out)

    __radd__ = __add__
    __rmul__ = __mul__

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

    def primitive(self) -> "IntPoly":
        """Divide out the content and force a positive leading coefficient."""
        if self.is_zero():
            return self
        c = self.content()
        if self.lead() < 0:
            c = -c
        return IntPoly(tuple(x // c for x in self.coeffs))

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


def _coerce(v) -> IntPoly:
    if isinstance(v, IntPoly):
        return v
    if isinstance(v, int):
        return IntPoly.of(v)
    raise TypeError(f"cannot coerce {type(v)!r} to IntPoly")


def div_exact(num: IntPoly, den: IntPoly) -> IntPoly:
    """Exact polynomial division in Z[x]; raises if the division is not exact."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q: list[int] = [0] * max(0, num.degree() - den.degree() + 1)
    r = list(num.coeffs)
    dd = den.degree()
    dl = den.lead()
    while len(r) - 1 >= dd and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dd:
            break
        t, rem = divmod(r[-1], dl)
        if rem:
            raise ValueError("division is not exact over the integers")
        k = len(r) - 1 - dd
        q[k] = t
        for i, c in enumerate(den.coeffs):
            r[k + i] -= t * c
    if any(r):
        raise ValueError("division is not exact over the integers")
    return IntPoly.of(*q)


def prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: ``lead(b)**(deg a - deg b + 1) * a = q*b + r``."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    da, db = a.degree(), b.degree()
    if da < db:
        return a
    d = b.lead()
    e = da - db + 1
    r = a
    while not r.is_zero() and r.degree() >= db:
        s = IntPoly.of(*([0] * (r.degree() - db)), r.lead())
        r = r * d - b * s
        e -= 1
    if e > 0:
        r = r * (d ** e)
    return r


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


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over Q, returned as a primitive integer polynomial
    with positive leading coefficient."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    a, b = f.primitive(), g.primitive()
    if a.degree() < b.degree():
        a, b = b, a
    while not b.is_zero():
        r = prem(a, b)
        a, b = b, r.primitive() if not r.is_zero() else r
    return a.primitive()


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """Sorted positive divisors."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return tuple(small + large[::-1])


def euler_phi(n: int) -> int:
    """Euler totient, via the factorization of n."""
    from .factorint import factor

    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    phi = 1
    for p, e in factor(n).complete_factors():
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, monic of degree ``euler_phi(n)``.

    >>> cyclotomic(1)
    IntPoly('x - 1')
    >>> cyclotomic(12)
    IntPoly('x^4 - x^2 + 1')
    """
    if n < 1:
        raise ValueError("cyclotomic requires n >= 1")
    poly = IntPoly.x_pow_minus_one(n)
    for d in divisors(n):
        if d < n:
            poly = div_exact(poly, cyclotomic(d))
    return poly


def power_poly(f: IntPoly, k: int) -> IntPoly:
    """Monic polynomial whose roots are the k-th powers of the roots of f.

    f must be monic.  Computed through Newton's identities on power sums, so
    the result is exact; it is the characteristic polynomial of ``alpha**k``
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
    p = [Fraction(0)] * (m * k + 1)
    for j in range(1, m * k + 1):
        acc = Fraction(j * a[j]) if j <= m else Fraction(0)
        for i in range(1, min(j, m) + 1):
            acc += a[i] * p[j - i]
        p[j] = -acc
    # elementary symmetric functions of the powered roots
    e = [Fraction(1)] + [Fraction(0)] * m
    for j in range(1, m + 1):
        acc = Fraction(0)
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * e[j - i] * p[i * k]
        e[j] = acc / j
    coeffs = []
    for j in range(m, -1, -1):
        v = (-1) ** j * e[j]
        if v.denominator != 1:
            raise ArithmeticError("power sums did not yield integer coefficients")
        coeffs.append(int(v))
    return IntPoly.of(*coeffs)


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    hi = 1 << (n.bit_length() // k + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


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


# --- polynomials over F_p: coefficient lists, ascending degree -------------

def _pmod_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p; b need not be monic."""
    a = [c % p for c in a]
    _pmod_trim(a)
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b):
        coef = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * c) % p
        _pmod_trim(a)
        if not a:
            break
    return a


def _pmod_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] = (out[i + j] + c * d) % p
    return _pmod_trim(out)


def _pmod_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = [c % p for c in a], [c % p for c in b]
    _pmod_trim(a)
    _pmod_trim(b)
    while b:
        a, b = b, _pmod_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pmod_pow(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod_rem(base, mod, p)
    while e:
        if e & 1:
            result = _pmod_rem(_pmod_mul(result, base, p), mod, p)
        base = _pmod_rem(_pmod_mul(base, base, p), mod, p)
        e >>= 1
    return result


def roots_mod_p(f: IntPoly, p: int) -> list[int]:
    """Roots of a monic squarefree-mod-p polynomial over F_p (deterministic
    sequence of splitting shifts, so scans are reproducible)."""
    fb = _pmod_trim([c % p for c in f.coeffs])
    if p <= 3:
        return sorted(r for r in range(p) if _pmod_eval(fb, r, p) == 0)
    xp = _pmod_pow([0, 1], p, fb, p)
    xp_minus_x = xp[:]
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    linear_part = _pmod_gcd(_pmod_trim(xp_minus_x), fb, p)
    roots: list[int] = []

    def split(h: list[int], depth: int):
        if len(h) <= 1:
            return
        if len(h) == 2:
            roots.append((-h[0]) * pow(h[1], -1, p) % p)
            return
        for a in range(depth, depth + _SPLIT_TRIES):
            w = _pmod_pow([a, 1], (p - 1) // 2, h, p)
            if len(w) == 0:
                w = [0]
            w = w[:]
            w[0] = (w[0] - 1) % p
            g1 = _pmod_gcd(_pmod_trim(w), h, p)
            if 0 < len(g1) - 1 < len(h) - 1:
                quot = _pmod_quot(h, g1, p)
                split(g1, a + 1)
                split(quot, a + 1)
                return
        raise NonConvergenceError("equal-degree splitting stalled")

    split(linear_part, 0)
    return sorted(roots)


def _pmod_eval(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _pmod_quot(a: list[int], b: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    q = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    while len(_pmod_trim(a)) >= len(b):
        coef = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        q[shift] = coef
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * c) % p
    return _pmod_trim(q)
