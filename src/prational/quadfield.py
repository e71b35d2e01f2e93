"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

The ring of integers is Z[w] with w = sqrt(d) for d != 1 (mod 4) and
w = (1 + sqrt(d))/2 otherwise, so w^2 = t*w + s with (t, s) = (0, d) or
(1, (d-1)/4).  Elements are exact coordinate pairs x + y*w, with the
operations the commands use: + and - with an integer on the right, * with
an element or an integer on either side, and ** with an exponent >= 0;
there is no sum of two elements, negation or conjugate.  embedding_bounds
bounds the absolute values of an element at the two real places by
integers over one power of two, 2**(bits+1), from floor(sqrt(d) * 2**bits).  The fundamental unit comes from
the continued fraction of w; the class number, on its first read, from the
cycles of reduced binary quadratic forms of discriminant disc (exact, and
computed up to disc = 10**6, where a class number given must equal it; a
larger field needs the class number given).

Arithmetic modulo P**2 has one primitive per kind of prime.  At a split p,
omega_root_mod_p2 gives a root r of w's minimal polynomial mod p**2 by one
Newton step from its root mod p; w -> r identifies O/P**2 with Z/p**2, and the
conjugate ideal P' uses the other root t - r.  At an inert p, O/p**2 is
worked in through coordinate pairs, which pair_pow raises to a power; it also
takes the square root mod p behind every split prime (Cipolla's method).  Only
the tests call unit_pow_mod_p2, with residue_is_one of tests/residue_order.py
as an oracle.  The p-rationality classifier (scans, part (B)) works with a
Lucas ladder on the trace of u**2 instead.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import NamedTuple

from .polyarith import IntPoly, hensel_lift, jacobi

_CLASS_NUMBER_DISC_CAP = 10 ** 6
_CF_MAX_STEPS = 100_000   # continued-fraction steps to the fundamental unit


class Splitting(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class QuadField:
    """Immutable description of Q(sqrt(d)) for squarefree d >= 2."""

    def __init__(self, d, disc, omega_half, fundamental_unit_xy, class_number=None):
        self.d = d
        self.disc = disc
        self.omega_half = omega_half          # True: w = (1+sqrt d)/2
        self.t = 1 if omega_half else 0       # w^2 = t*w + s
        self.s = (d - 1) // 4 if omega_half else d
        self.fundamental_unit = QuadInt(self, *fundamental_unit_xy)
        self.unit_norm = self.fundamental_unit.norm()
        self.given_class_number = class_number

    @functools.cached_property
    def class_number(self) -> int:
        """h, on its first read, from the cycles of the reduced forms of
        discriminant disc up to disc = 10**6, where a given h must equal it;
        a larger field needs h given, and it is taken as given.

        A form (a, b, c) with b**2 - 4*a*c = disc is reduced when
        0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b.  The
        reduction map rho(a, b, c) = (c, b', (b'**2 - disc) / (4*c)), with
        b' = -b mod 2|c| and sqrt(disc) - 2|c| < b' < sqrt(disc), permutes the
        reduced forms, and its cycles are the proper classes of forms, so their
        number is the narrow class number h+ (Buchmann-Vollmer, Binary Quadratic
        Forms, 2007, ch. 6).  h = h+ when N(eps) = -1 and h+/2 otherwise.  disc
        is fundamental, so every form is primitive; sqrt(disc) is irrational, so
        each bound compares exactly with s = isqrt(disc) in its place.
        """
        D, given = self.disc, self.given_class_number
        if D > _CLASS_NUMBER_DISC_CAP:
            if given is None:
                raise ArithmeticError(
                    f"disc = {D} exceeds the certified class-number bound; pass the class number explicitly"
                )
            return given
        s = math.isqrt(D)
        forms = set()
        for b in range(2 - D % 2, s + 1, 2):   # b = disc mod 2
            m = (D - b * b) // 4                # -a*c
            for a in range((s - b) // 2 + 1, (s + b) // 2 + 1):
                if m % a == 0:
                    forms.update(((a, b, -m // a), (-a, b, m // a)))
        narrow = 0
        while forms:
            narrow += 1
            a, b, c = forms.pop()
            while True:   # follow rho around the cycle, back to the popped form
                b = s - (s + b) % (2 * abs(c))
                a, c = c, (b * b - D) // (4 * c)
                if (a, b, c) not in forms:
                    break
                forms.remove((a, b, c))
        h = narrow if self.unit_norm == -1 else narrow // 2
        if given is not None and given != h:
            raise ValueError(f"the class number of Q(sqrt({self.d})) is {h}, not {given}")
        return h

    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    def omega_value(self) -> float:
        r = math.sqrt(self.d)
        return (1 + r) / 2 if self.omega_half else r

    def __eq__(self, other):
        return isinstance(other, QuadField) and self.d == other.d

    def __hash__(self):
        return hash(("QuadField", self.d))

    def __repr__(self):
        return f"QuadField(d={self.d}, disc={self.disc})"


class QuadInt(NamedTuple):
    """x + y*w in the ring of integers of its field."""

    field: QuadField
    x: int = 0
    y: int = 0

    def _check(self, other: "QuadInt"):
        if self.field != other.field:
            raise ValueError("operands live in different fields")

    def __add__(self, other: int):
        return QuadInt(self.field, self.x + other, self.y)

    def __sub__(self, other: int):
        return QuadInt(self.field, self.x - other, self.y)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.field, self.x * other, self.y * other)
        self._check(other)
        F = self.field
        yy = self.y * other.y
        return QuadInt(
            F,
            self.x * other.x + F.s * yy,
            self.x * other.y + self.y * other.x + F.t * yy,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not integral in general")
        result = QuadInt(self.field, 1, 0)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def norm(self) -> int:
        F = self.field
        return self.x * self.x + F.t * self.x * self.y - F.s * self.y * self.y

    def trace(self) -> int:
        return 2 * self.x + self.field.t * self.y

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def approx(self) -> float:
        return self.x + self.y * self.field.omega_value()

    def embedding_bounds(self, bits: int = 96):
        """(lower, upper) bounds on |sigma(self)| at both real places, as
        integer numerators over 2**(bits + 1).

        sqrt(d) lies between s and s + 1 over 2**bits, s = floor(sqrt(d) *
        2**bits) as polyarith.sqrt_bounds rounds it, so w lies between wlo
        and wlo + 1 (w = (1 + sqrt d)/2) or wlo + 2 (w = sqrt d) over
        2**(bits + 1)."""
        F = self.field
        s = math.isqrt(F.d << 2 * bits)
        wlo = (1 << bits) + s if F.omega_half else 2 * s
        whi = wlo + (1 if F.omega_half else 2)
        tt = F.t << (bits + 1)
        x, y = self.x << (bits + 1), self.y
        out = []
        for a, b in ((wlo, whi), (tt - whi, tt - wlo)):
            v_lo = x + (y * a if y >= 0 else y * b)
            v_hi = x + (y * b if y >= 0 else y * a)
            if v_lo >= 0:
                out.append((v_lo, v_hi))
            elif v_hi <= 0:
                out.append((-v_hi, -v_lo))
            else:
                out.append((0, max(-v_lo, v_hi)))
        return out[0], out[1]

    def __str__(self):
        sym = "w" if self.field.omega_half else f"sqrt({self.field.d})"
        if self.y == 0:
            return str(self.x)
        ypart = sym if abs(self.y) == 1 else f"{abs(self.y)}*{sym}"
        if self.x == 0:
            return f"{'-' if self.y < 0 else ''}{ypart}"
        return f"{self.x}{'-' if self.y < 0 else '+'}{ypart}"

    def __repr__(self):
        return f"QuadInt({self}, d={self.field.d})"


class PrimeIdealAboveP(NamedTuple):
    """A prime ideal above a rational prime, with its residue data.

    ``hensel_root`` is present only when split: the root r of the minimal
    polynomial of w modulo p**2, so w -> r identifies O/P^2 with Z/p^2, and
    w -> r mod p identifies O/P with Z/p.
    """

    p: int
    splitting: Splitting
    residue_degree: int
    norm: int
    hensel_root: int | None = None


def _squarefree(n: int) -> bool:
    from .factorint import factor

    f = factor(n)
    if f.status.value != "complete":
        raise ArithmeticError(f"cannot certify {n} squarefree")
    return all(e == 1 for _, e in f.factors)


def _fundamental_unit(d: int, omega_half: bool) -> tuple[int, int]:
    """Coordinates of the fundamental unit > 1 from the continued fraction of w.

    Every unit > 1 appears as h - k*conj(w) = (h - t*k) + k*w with h/k a
    convergent of w = (P_0 + sqrt(d)) / Q_0.  The convergent before the
    complete quotient (P + sqrt(d)) / Q has |norm| |Q| / Q_0, so the first
    one after which |Q| = Q_0 again is fundamental.  P and Q stay below
    2*sqrt(d); h and k, as long as the unit, are built once, at the end.
    """
    P, Q = (1, 2) if omega_half else (0, 1)  # w = (P + sqrt(d)) / Q
    start = Q
    sq = math.isqrt(d)
    quotients = []
    for _ in range(_CF_MAX_STEPS):
        a = (P + sq) // Q if Q > 0 else (-P - sq - 1) // (-Q)
        quotients.append(a)
        P = a * Q - P
        Q = (d - P * P) // Q
        if abs(Q) == start:
            break
    else:
        raise ArithmeticError("continued fraction did not produce a unit")
    h, h_prev, k, k_prev = 1, 0, 0, 1
    for a in quotients:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h - k if omega_half else h, k


def make_field(d: int, class_number_override: int | None = None) -> QuadField:
    """Build Q(sqrt(d)) with discriminant and fundamental unit.  The class
    number is computed when first read, and must then equal the override if
    one is given; above disc = 10**6 it is the override, which is required."""
    if d < 2:
        raise ValueError("d must be >= 2 for a real quadratic field")
    if not _squarefree(d):
        raise ValueError(f"d = {d} is not squarefree")
    if class_number_override is not None and class_number_override < 1:
        raise ValueError("class number must be positive")
    omega_half = d % 4 == 1
    disc = d if omega_half else 4 * d
    return QuadField(d, disc, omega_half, _fundamental_unit(d, omega_half), class_number_override)


def minpoly_of(u: QuadInt) -> IntPoly:
    """Minimal polynomial over Q (monic; degree 2 unless u is rational)."""
    if u.y == 0:
        return IntPoly.of(-u.x, 1)
    return IntPoly.of(u.norm(), -u.trace(), 1)


def pair_pow(x: int, y: int, e: int, t: int, s: int, mod: int) -> tuple[int, int]:
    """(x + y*w)**e modulo mod as a coordinate pair, where w**2 = t*w + s
    (left-to-right square and multiply)."""
    if e == 0:
        return 1 % mod, 0
    a, b = x, y = x % mod, y % mod
    for bit in bin(e)[3:]:
        bb = b * b
        a, b = (a * a + s * bb) % mod, (2 * a * b + t * bb) % mod
        if bit == "1":
            by = b * y
            a, b = (a * x + s * by) % mod, (a * y + b * x + t * by) % mod
    return a, b


def sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a quadratic residue a mod an odd prime p: one power
    when p = 3 (mod 4), else Cipolla's: with w**2 = b*b - a a non-residue (least
    b >= 0), (b + w)**p = b - w, so (b + w)**((p + 1)/2) squares to a, in F_p."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    b = 0
    while jacobi(b * b - a, p) != -1:
        b += 1
    return pair_pow(b, 1, (p + 1) // 2, 0, b * b - a, p)[0]


def omega_root_mod_p2(F: QuadField, p: int) -> int:
    """A root r of w's minimal polynomial x**2 - t*x - s modulo p**2, for a
    prime p that splits in F.

    The root mod p is (t + sqrt(disc))/2 (0 when p = 2), and Hensel lifting
    takes it to p**2: the derivative 2*r - t is a unit mod p because p does
    not divide disc.  The other root is t - r.
    """
    t = F.t
    r = 0 if p == 2 else (t + sqrt_mod_p(F.disc, p)) * ((p + 1) // 2) % p
    return hensel_lift(IntPoly.of(-F.s, -t, 1), r, p, 2)


def split_prime(F: QuadField, p: int) -> list[PrimeIdealAboveP]:
    """Classify p in O_K: ramified when p | disc, else split when (disc|p) =
    1 (for p = 2, when d = 1 mod 8).  A split p gives the two ideals P, P'
    sorted by hensel_root: the root r of omega_root_mod_p2 and the other
    root t - r."""
    if p < 2:
        raise ValueError("p must be a prime")
    if F.disc % p == 0:
        return [PrimeIdealAboveP(p, Splitting.RAMIFIED, 1, p, None)]
    split = F.d % 8 == 1 if p == 2 else jacobi(F.disc, p) == 1
    if not split:
        return [PrimeIdealAboveP(p, Splitting.INERT, 2, p * p, None)]
    r = omega_root_mod_p2(F, p)
    return [PrimeIdealAboveP(p, Splitting.SPLIT, 1, p, root) for root in sorted((r, (F.t - r) % (p * p)))]


def unit_pow_mod_p2(u: QuadInt, e: int, P: PrimeIdealAboveP):
    """u**e modulo P**2, P a prime of the field of u.

    Split P: an integer class mod p**2 through the Hensel embedding
    w -> hensel_root.  Inert P: P**2 = p**2 O_K, so the coordinate pair
    (x, y) mod p**2.
    """
    if P.splitting is Splitting.RAMIFIED:
        raise ValueError("mod-P^2 arithmetic at ramified primes is not supported")
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    p2 = P.p * P.p
    if P.splitting is Splitting.SPLIT:
        img = (u.x + u.y * P.hensel_root) % p2
        return pow(img, e, p2)
    return pair_pow(u.x, u.y, e, u.field.t, u.field.s, p2)


def excluded_prime_bound(F: QuadField) -> int:
    """Largest prime that must be discarded before the congruence criterion
    applies: max(3, largest prime dividing 2 * disc * h)."""
    from .factorint import factor

    f = factor(2 * F.disc * F.class_number)
    return max(3, max(p for p, _ in f.complete_factors()))
