"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

The ring of integers is Z[w] with w = sqrt(d) for d != 1 (mod 4) and
w = (1 + sqrt(d))/2 otherwise, so w^2 = t*w + s with (t, s) = (0, d) or
(1, (d-1)/4).  Elements are exact coordinate pairs x + y*w.  The fundamental
unit comes from the continued fraction of w; the class number from
Minkowski-bound ideal enumeration with principality decided by a bounded
generator search (certified at small discriminants, refused otherwise).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    NotSquarefreeError,
    RamifiedUnsupportedError,
    TooLargeDiscriminantError,
)
from .polyarith import IntPoly, hensel_lift, sqrt_bounds

_CLASS_NUMBER_DISC_CAP = 10 ** 6
_PRINCIPALITY_SEARCH_CAP = 10 ** 6


class Splitting(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class QuadField:
    """Immutable description of Q(sqrt(d)) for squarefree d >= 2."""

    def __init__(self, d, disc, omega_half, fundamental_unit_xy):
        self.d = d
        self.disc = disc
        self.omega_half = omega_half          # True: w = (1+sqrt d)/2
        self.t = 1 if omega_half else 0       # w^2 = t*w + s
        self.s = (d - 1) // 4 if omega_half else d
        self.fundamental_unit = QuadInt(self, *fundamental_unit_xy)
        self.unit_norm = self.fundamental_unit.norm()
        self.class_number = 1

    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    def element(self, x: int, y: int) -> "QuadInt":
        return QuadInt(self, x, y)

    def omega_value(self) -> float:
        r = math.sqrt(self.d)
        return (1 + r) / 2 if self.omega_half else r

    def omega_minpoly(self) -> IntPoly:
        return IntPoly.of(-self.s, -self.t, 1)

    def __eq__(self, other):
        return isinstance(other, QuadField) and self.d == other.d

    def __hash__(self):
        return hash(("QuadField", self.d))

    def __repr__(self):
        return f"QuadField(d={self.d}, disc={self.disc}, h={self.class_number})"


@dataclass(frozen=True)
class QuadInt:
    """x + y*w in the ring of integers of its field."""

    field: QuadField = field(repr=False)
    x: int = 0
    y: int = 0

    def _check(self, other: "QuadInt"):
        if self.field != other.field:
            raise ValueError("operands live in different fields")

    def __add__(self, other):
        if isinstance(other, int):
            return QuadInt(self.field, self.x + other, self.y)
        self._check(other)
        return QuadInt(self.field, self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return QuadInt(self.field, self.x - other, self.y)
        self._check(other)
        return QuadInt(self.field, self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadInt(self.field, -self.x, -self.y)

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

    def conj(self) -> "QuadInt":
        F = self.field
        return QuadInt(F, self.x + F.t * self.y, -self.y)

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
        """Exact rational (lower, upper) bounds on |sigma(self)| at both real places."""
        lo, hi = sqrt_bounds(self.field.d, bits)
        if self.field.omega_half:
            wlo, whi = (1 + lo) / 2, (1 + hi) / 2
        else:
            wlo, whi = lo, hi
        out = []
        for a, b in ((wlo, whi), (self.field.t - whi, self.field.t - wlo)):
            v_lo = self.x + (self.y * a if self.y >= 0 else self.y * b)
            v_hi = self.x + (self.y * b if self.y >= 0 else self.y * a)
            if v_lo >= 0:
                out.append((v_lo, v_hi))
            elif v_hi <= 0:
                out.append((-v_hi, -v_lo))
            else:
                out.append((Fraction(0), max(-v_lo, v_hi)))
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


@dataclass(frozen=True)
class PrimeIdealAboveP:
    """A prime ideal above a rational prime, with its residue data.

    ``hensel_root`` is present only when split: the root r of the minimal
    polynomial of w modulo p**2, so w -> r identifies O/P^2 with Z/p^2.
    """

    p: int
    splitting: Splitting
    residue_degree: int
    norm: int
    hensel_root: int | None = None

    def root_mod_p(self) -> int | None:
        return None if self.hensel_root is None else self.hensel_root % self.p

    def conjugate(self, F: QuadField) -> "PrimeIdealAboveP":
        if self.splitting is not Splitting.SPLIT:
            return self
        p2 = self.p * self.p
        return PrimeIdealAboveP(
            self.p, self.splitting, 1, self.p, (F.t - self.hensel_root) % p2
        )


def _squarefree(n: int) -> bool:
    from .factorint import factor

    f = factor(n)
    if f.status.value != "complete":
        raise TooLargeDiscriminantError(f"cannot certify {n} squarefree")
    return all(e == 1 for _, e in f.factors)


def _fundamental_unit(d: int, omega_half: bool) -> tuple[int, int]:
    """Coordinates of the fundamental unit > 1 from the continued fraction of w.

    Every unit > 1 appears as h - k*conj(w) = (h - t*k) + k*w with h/k a
    convergent of w, so the first convergent with |norm| 1 is fundamental.
    """
    t = 1 if omega_half else 0
    s_const = (d - 1) // 4 if omega_half else d
    P, Q = (1, 2) if omega_half else (0, 1)  # w = (P + sqrt(d)) / Q
    sq = math.isqrt(d)
    h1, h2 = 1, 0  # h_{i-1}, h_{i-2}
    k1, k2 = 0, 1
    for _ in range(100000):
        if Q > 0:
            a = (P + sq) // Q
        else:
            a = (-P - sq - 1) // (-Q)
        h, k = a * h1 + h2, a * k1 + k2
        x, y = h - t * k, k
        if abs(x * x + t * x * y - s_const * y * y) == 1:
            return x, y
        h2, h1 = h1, h
        k2, k1 = k1, k
        P = a * Q - P
        Q = (d - P * P) // Q
    raise RuntimeError("continued fraction did not produce a unit")


# --- ideal lattices: (a, b, c) is the Z-module Z*a + Z*(b + c*w) ---

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_from_generators(gens: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Basis (a, b, c) of the Z-span of the given (x, y) pairs."""
    c, b = 0, 0
    for gx, gy in gens:
        if gy == 0:
            continue
        if c == 0:
            c, b = abs(gy), (gx if gy > 0 else -gx)
        else:
            g, u, v = _xgcd(c, gy)
            b = u * b + v * gx
            c = g
    if c == 0:
        raise ValueError("generators span a rank-1 module")
    a = 0
    for gx, gy in gens:
        a = math.gcd(a, abs(gx - (gy // c) * b))
    if a == 0:
        raise ValueError("degenerate ideal generators")
    return a, b % a, c


def _ideal_mul(F: QuadField, A, B) -> tuple[int, int, int]:
    a1, b1, c1 = A
    a2, b2, c2 = B
    gens = []
    for x1, y1 in ((a1, 0), (b1, c1)):
        for x2, y2 in ((a2, 0), (b2, c2)):
            yy = y1 * y2
            gens.append((x1 * x2 + F.s * yy, x1 * y2 + y1 * x2 + F.t * yy))
    return _hnf_from_generators(gens)


def _ideal_conj(F: QuadField, A) -> tuple[int, int, int]:
    a, b, c = A
    return _hnf_from_generators([(a, 0), (b + c * F.t, -c)])


def _ideal_norm(A) -> int:
    return A[0] * A[2]


def _ideal_contains(A, x: int, y: int) -> bool:
    a, b, c = A
    if y % c:
        return False
    return (x - (y // c) * b) % a == 0


def _is_principal(F: QuadField, A) -> bool:
    """Search for a generator; the search window is provably large enough
    because some generator has both embeddings below sqrt(norm * eps)."""
    n = _ideal_norm(A)
    if n == 1:
        return True
    eps = F.fundamental_unit.approx()
    y_cap = int(2 * math.sqrt(n * eps / F.disc)) + 2
    if y_cap > _PRINCIPALITY_SEARCH_CAP:
        raise TooLargeDiscriminantError("principality search bound exceeded")
    t = F.t
    for y in range(0, y_cap + 1):
        base = F.disc * y * y
        for target in (4 * n, -4 * n):
            d2 = base + target
            if d2 < 0:
                continue
            z = math.isqrt(d2)
            if z * z != d2:
                continue
            for sign in (1, -1):
                num = -t * y + sign * z
                if num % 2:
                    continue
                x = num // 2
                if abs(x * x + t * x * y - F.s * y * y) == n and _ideal_contains(A, x, y):
                    return True
    return False


def _all_ideals_up_to(F: QuadField, bound: int) -> list[tuple[int, int, int]]:
    out = []
    for n in range(1, bound + 1):
        c = 1
        while c * c <= n:
            if n % (c * c) == 0:
                a = n // c
                for b in range(0, a, c):
                    # closure under multiplication by w
                    nb = b * b + F.t * b * c - F.s * c * c
                    if nb % (a * c) == 0:
                        out.append((a, b, c))
            c += 1
    return out


def _class_number(F: QuadField) -> int:
    bound = math.isqrt(F.disc) // 2
    if bound < 2:
        return 1
    reps: list[tuple[int, int, int]] = []
    for ideal in _all_ideals_up_to(F, bound):
        if _is_principal(F, ideal):
            continue
        if not any(
            _is_principal(F, _ideal_mul(F, ideal, _ideal_conj(F, rep)))
            for rep in reps
        ):
            reps.append(ideal)
    return 1 + len(reps)


def make_field(d: int, class_number_override: int | None = None) -> QuadField:
    """Build Q(sqrt(d)) with discriminant, fundamental unit, and class number."""
    if d < 2:
        raise ValueError("d must be >= 2 for a real quadratic field")
    if not _squarefree(d):
        raise NotSquarefreeError(f"d = {d} is not squarefree")
    omega_half = d % 4 == 1
    disc = d if omega_half else 4 * d
    F = QuadField(d, disc, omega_half, _fundamental_unit(d, omega_half))
    if class_number_override is not None:
        if class_number_override < 1:
            raise ValueError("class number must be positive")
        F.class_number = class_number_override
    elif disc > _CLASS_NUMBER_DISC_CAP:
        raise TooLargeDiscriminantError(
            f"disc = {disc} exceeds the certified class-number bound; "
            "pass the class number explicitly"
        )
    else:
        F.class_number = _class_number(F)
    return F


def minpoly_of(u: QuadInt) -> IntPoly:
    """Minimal polynomial over Q (monic; degree 2 unless u is rational)."""
    if u.y == 0:
        return IntPoly.of(-u.x, 1)
    return IntPoly.of(u.norm(), -u.trace(), 1)


def kronecker_odd_prime(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _sqrt_mod_p(a: int, p: int) -> int:
    """Tonelli-Shanks square root mod an odd prime; a must be a QR."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker_odd_prime(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _omega_roots_mod_p(F: QuadField, p: int) -> list[int]:
    """Roots of w's minimal polynomial modulo an unramified split prime."""
    if p == 2:
        f = F.omega_minpoly()
        return sorted(r for r in (0, 1) if f.evaluate(r) % 2 == 0)
    s = _sqrt_mod_p(F.d, p)
    if F.omega_half:
        inv2 = pow(2, -1, p)
        roots = {(1 + s) * inv2 % p, (1 - s) * inv2 % p}
    else:
        roots = {s % p, (-s) % p}
    return sorted(roots)


def split_prime(F: QuadField, p: int) -> list[PrimeIdealAboveP]:
    """Classify p in O_K; split primes carry Hensel-lifted residue roots mod p**2."""
    if p < 2:
        raise ValueError("p must be a prime")
    if F.disc % p == 0:
        return [PrimeIdealAboveP(p, Splitting.RAMIFIED, 1, p, None)]
    if p == 2:
        split = F.omega_half and F.d % 8 == 1
    else:
        split = kronecker_odd_prime(F.disc, p) == 1
    if not split:
        return [PrimeIdealAboveP(p, Splitting.INERT, 2, p * p, None)]
    f = F.omega_minpoly()
    ideals = [
        PrimeIdealAboveP(p, Splitting.SPLIT, 1, p, hensel_lift(f, r, p, 2))
        for r in _omega_roots_mod_p(F, p)
    ]
    return sorted(ideals, key=lambda P: P.hensel_root)


def _pair_mul(x1, y1, x2, y2, t, s, mod):
    yy = y1 * y2
    return (x1 * x2 + s * yy) % mod, (x1 * y2 + y1 * x2 + t * yy) % mod


def _pair_pow(x, y, e, t, s, mod):
    rx, ry = 1 % mod, 0
    bx, by = x % mod, y % mod
    while e:
        if e & 1:
            rx, ry = _pair_mul(rx, ry, bx, by, t, s, mod)
        bx, by = _pair_mul(bx, by, bx, by, t, s, mod)
        e >>= 1
    return rx, ry


def unit_pow_mod_p2(F: QuadField, u: QuadInt, e: int, P: PrimeIdealAboveP):
    """u**e modulo P**2.

    Split P: an integer class mod p**2 through the Hensel embedding
    w -> hensel_root.  Inert P: P**2 = p**2 O_K, so the coordinate pair
    (x, y) mod p**2.
    """
    if P.splitting is Splitting.RAMIFIED:
        raise RamifiedUnsupportedError("mod-P^2 arithmetic at ramified primes is not supported")
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    p2 = P.p * P.p
    if P.splitting is Splitting.SPLIT:
        img = (u.x + u.y * P.hensel_root) % p2
        return pow(img, e, p2)
    return _pair_pow(u.x, u.y, e, F.t, F.s, p2)


def residue_is_one(res, P: PrimeIdealAboveP) -> bool:
    """Whether a unit_pow_mod_p2 result equals 1 mod P**2."""
    if P.splitting is Splitting.SPLIT:
        return res == 1
    return res == (1, 0)


def multiplicative_order(F: QuadField, u: QuadInt, P: PrimeIdealAboveP) -> int:
    """Order of u in (O/P)^x, by factoring the group order and descending
    through its prime divisors."""
    from .factorint import factor

    if P.splitting is Splitting.RAMIFIED:
        raise RamifiedUnsupportedError("ramified primes are excluded")
    if not u.is_unit():
        raise ValueError("u must be a unit")
    p = P.p
    if P.splitting is Splitting.SPLIT:
        base = (u.x + u.y * P.root_mod_p()) % p
        power = lambda e: pow(base, e, p)
        identity = 1
        group_factors = _merge_factors([factor(p - 1)])
    else:
        bx, by = u.x % p, u.y % p
        power = lambda e: _pair_pow(bx, by, e, F.t, F.s, p)
        identity = (1 % p, 0)
        group_factors = _merge_factors([factor(p - 1), factor(p + 1)])
    order = 1
    for q, e in group_factors:
        order *= q ** e
    for q, _ in group_factors:
        while order % q == 0 and power(order // q) == identity:
            order //= q
    return order


def _merge_factors(facts) -> list[tuple[int, int]]:
    merged: dict[int, int] = {}
    for f in facts:
        for p, e in f.complete_factors():
            merged[p] = merged.get(p, 0) + e
    return sorted(merged.items())


def excluded_prime_bound(F: QuadField) -> int:
    """Largest prime that must be discarded before the congruence criterion
    applies: max(3, largest prime dividing 2 * disc * h)."""
    from .factorint import factor

    f = factor(2 * F.disc * F.class_number)
    return max(3, max(p for p, _ in f.complete_factors()))
