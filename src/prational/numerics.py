"""Certified numeric embeddings of algebraic units.

Roots of a unit's minimal polynomial are enclosed in pairwise-disjoint
complex disks, at increasing working precision.  The centers of the two
real roots of a quadratic come from an integer square root, and all
others from ``rootfind``, a Weierstrass (Durand-Kerner) iteration in
fixed-point Gaussian integers.  Every certificate is then checked with
exact rational arithmetic, whichever gave its centers: for
a dyadic center z, all the roots of f lie within deg(f) * |f(z)/f'(z)|
of z, so disjoint disks of that radius isolate the roots.
``certify_roots`` also proves the polynomial irreducible, and every
AlgebraicUnit comes from it.  ``growth_constants`` alone decides, once,
whether a unit has a conjugate on the unit circle.  Such a conjugate's
inverse is its complex conjugate, so f shares a root with its reciprocal
f*, and f being irreducible, f* = +-f.  A reciprocal f that is cyclotomic
is on the circle, exactly.  For any other f, a disk that meets the circle
holds a root r with ||r| - 1| < 2 * _RADIUS, whose powers |r|**k reach 2
or 1/2 only beyond _MAX_POWER: no smaller disk could admit the unit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .polyarith import IntPoly, cyclotomic, discriminant, iroot, prem, sqrt_bounds

PRECISION_CAP_BITS = 2 ** 14
_RADIUS = Fraction(1e-12)   # every certified disk has a radius below this
_SQRT_BITS = 48   # precision of the rational square-root bounds on moduli and radii


class RootDisk(NamedTuple):
    """Closed disk |z - (re + im*i)| <= radius certified to contain exactly
    one root of the minimal polynomial."""

    re: Fraction
    im: Fraction
    radius: Fraction

    def mod_lb(self) -> Fraction:
        center, _ = sqrt_bounds(self.re * self.re + self.im * self.im, _SQRT_BITS)
        return max(Fraction(0), center - self.radius)

    def mod_ub(self) -> Fraction:
        _, center = sqrt_bounds(self.re * self.re + self.im * self.im, _SQRT_BITS)
        return center + self.radius

    def overlaps(self, other: "RootDisk") -> bool:
        d2 = (self.re - other.re) ** 2 + (self.im - other.im) ** 2
        return d2 <= (self.radius + other.radius) ** 2


class AlgebraicUnit(NamedTuple):
    """An algebraic unit given by its (irreducible, monic) minimal polynomial
    together with certified enclosures of all its conjugates."""

    minpoly: IntPoly
    degree: int
    roots: tuple[RootDisk, ...]


def _ceval(coeffs: tuple[int, ...], re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    """Exact Horner evaluation at re + im*i."""
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


def _real_quadratic_centers(b: int, disc: int, prec: int) -> list[tuple[Fraction, Fraction]]:
    """floor(z * 2**prec) / 2**prec for the roots z = (-b -+ sqrt(disc)) / 2 of
    x**2 + b*x + c, disc = b**2 - 4c > 0, in increasing order (as
    rootfind.root_centers sorts them), each with imaginary part 0.

    With sqrt(disc) * 2**prec = s + t, s an integer and 0 <= t < 1, and
    a = -b * 2**prec: floor((a + s + t) / 2) = (a + s) >> 1, and
    floor((a - s - t) / 2) = (a - s - [t > 0]) >> 1.
    """
    scaled = disc << 2 * prec
    s = math.isqrt(scaled)
    a = -b << prec
    lo = (a - s - (s * s != scaled)) >> 1
    return [(Fraction(lo, 1 << prec), Fraction(0)), (Fraction((a + s) >> 1, 1 << prec), Fraction(0))]


def _certify_at_precision(f: IntPoly, prec: int) -> tuple[RootDisk, ...] | None:
    deg = f.degree()
    fp = f.derivative()
    c, b = f.coeffs[:2]
    disc = b * b - 4 * c
    if deg == 2 and disc > 0:
        centers = _real_quadratic_centers(b, disc, prec)
    else:
        from .rootfind import root_centers   # here, not at the top: only these roots need it

        centers = root_centers(f, prec)
        if centers is None:
            return None
    disks = []
    for re, im in centers:
        num_re, num_im = _ceval(f.coeffs, re, im)
        den_re, den_im = _ceval(fp.coeffs, re, im)
        den2 = den_re * den_re + den_im * den_im
        if den2 == 0:
            return None
        r2 = Fraction(deg * deg) * (num_re * num_re + num_im * num_im) / den2
        _, radius = sqrt_bounds(r2, _SQRT_BITS)
        if radius >= _RADIUS:
            return None
        disks.append(RootDisk(re, im, radius))
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            if disks[i].overlaps(disks[j]):
                return None
    return tuple(disks)


def certify_roots(minpoly: IntPoly, precision_cap: int = PRECISION_CAP_BITS) -> AlgebraicUnit:
    """Enclose all roots of a unit's minimal polynomial in disjoint certified
    disks of radius below 1e-12.

    Raises ValueError on bad input (also when f has a cyclotomic factor of
    lower degree or is reducible) and ArithmeticError if disks cannot be
    separated below ``precision_cap`` bits.
    """
    f = minpoly
    if f.is_zero() or f.degree() < 1:
        raise ValueError("minimal polynomial must have positive degree")
    if f.lead() == -1:
        f = -f
    if not f.is_monic():
        raise ValueError("an algebraic integer needs a monic minimal polynomial")
    if abs(f.constant()) != 1:
        raise ValueError(f"constant term {f.constant()} has absolute value != 1")
    if discriminant(f) == 0:
        raise ValueError("minimal polynomial has a repeated factor")
    m = f.degree()
    # a cyclotomic factor of lower degree makes f reducible, so f is no minimal
    # polynomial; deg Phi_k = phi(k) >= sqrt(k/2) and phi(k) < m give k <= 2(m-1)^2
    for k in range(1, 2 * (m - 1) ** 2 + 1):
        if cyclotomic(k).degree() < m and prem(f, cyclotomic(k)).is_zero():
            raise ValueError(f"{f.pretty()} has a cyclotomic factor of lower degree")
    if m == 1:
        root = -f.constant()
        return AlgebraicUnit(f, 1, (RootDisk(Fraction(root), Fraction(0), Fraction(0)),))
    disks = _enclose(f, precision_cap)
    h = _factor_from_roots(f, disks)
    if h is not None:
        raise ValueError(f"{f.pretty()} is reducible: {h.pretty()} divides it")
    return AlgebraicUnit(f, m, disks)


def _enclose(f: IntPoly, precision_cap: int) -> tuple[RootDisk, ...]:
    """Disjoint certified disks of radius below _RADIUS around the roots of a
    monic squarefree f of degree >= 2, at the first of 64, 128, 256, ... bits
    that gives them.  Raises ArithmeticError beyond ``precision_cap``."""
    prec = 64
    while prec <= precision_cap:
        disks = _certify_at_precision(f, prec)
        if disks is not None:
            return disks
        prec *= 2
    raise ArithmeticError(f"could not separate the roots of {f.pretty()} below {precision_cap} bits")


def _factor_from_roots(f: IntPoly, disks: tuple[RootDisk, ...]) -> IntPoly | None:
    """A monic factor of f over Z of degree 2..deg(f)/2, or None when f has
    none; f is monic with constant term +-1, and each disk holds one of its
    roots.  (A factor of degree 1 is x -+ 1, a cyclotomic factor, which
    certify_roots rules out before; so f of degree below 4 needs no search.)

    A factor h is the product of x - z over a set S of roots closed under
    complex conjugation, and its constant term is +-1, so the product of |z|
    over S is 1.  The disks give each root's conjugate: the mirror image of
    the disk of z meets only the disk of conj(z).  For each such S whose
    modulus product can be 1, the coefficients of prod (x - c) over the disk
    centers c are within err = prod(1 + |c| + r) - prod(1 + |c|) of those
    of h (r: the radii); with err < 1/2, rounding them gives the only
    candidate for h, and a zero pseudo-remainder decides it.
    """
    m = len(disks)
    if m < 4:
        return None
    classes = []
    for i, disk in enumerate(disks):
        mirror = RootDisk(disk.re, -disk.im, disk.radius)
        meets = [j for j, other in enumerate(disks) if mirror.overlaps(other)]
        if len(meets) != 1:
            raise ArithmeticError(f"could not pair the roots of {f.pretty()} with their conjugates")
        if meets[0] >= i:
            classes.append((i,) if meets[0] == i else (i, meets[0]))
    ubs = [d.mod_ub() for d in disks]
    log_lo = [ln(lb) if lb > 0 else -math.inf for lb in (d.mod_lb() for d in disks)]
    log_hi = [ln(ub) for ub in ubs]
    slack = 1e-12 * m
    for r in range(1, len(classes) + 1):
        for combo in itertools.combinations(classes, r):
            S = [i for cls in combo for i in cls]
            if not 2 <= len(S) <= m // 2 or sum(log_lo[i] for i in S) > slack or sum(log_hi[i] for i in S) < -slack:
                continue
            err = math.prod(1 + ubs[i] + disks[i].radius for i in S) - math.prod(1 + ubs[i] for i in S)
            if err >= Fraction(1, 2):
                raise ArithmeticError(f"could not decide whether {f.pretty()} is irreducible")
            coeffs = [(Fraction(1), Fraction(0))]   # prod (x - c), highest degree first
            for i in S:
                c_re, c_im = disks[i].re, disks[i].im
                coeffs = [
                    (a_re - c_re * b_re + c_im * b_im, a_im - c_re * b_im - c_im * b_re)
                    for (a_re, a_im), (b_re, b_im) in zip(coeffs + [(0, 0)], [(0, 0)] + coeffs)
                ]
            rounded = [round(re) for re, _ in coeffs]
            if all(abs(re - a) <= err and abs(im) <= err for (re, im), a in zip(coeffs, rounded)):
                h = IntPoly.of(*reversed(rounded))
                if prem(f, h).is_zero():
                    return h
    return None


class GrowthConstants(NamedTuple):
    """Certified constants controlling the exponential growth of
    |N(cyclotomic value)| along the scan.

    For the unit v = u**power and every n with 2*phi(n) >= n one has
    |N(Phi_n(v))| >= exp(rate * n); qualifying prime ideals at level n have
    norm at most norm_base**n once n >= n_start.
    """

    degree: int               # [K:Q], the number of conjugates
    power: int                # exponent applied to the unit before scanning
    peak_lb: Fraction         # certified lower bound on the largest conjugate modulus of u
    conj_ub: Fraction         # certified upper bound on every conjugate modulus of u
    conj_pow_ub: Fraction     # same bound for u**power
    rate: float               # exponential rate for the norm lower bound
    eps_max: float            # rate / (2 * degree * log(conj_pow_ub))
    norm_base: Fraction       # N(P) <= norm_base**n for qualifying ideals, n >= n_start
    n_start: int              # smallest n from which exp(rate*n/2) > n**degree stays true


def ln(x: int | Fraction) -> float:
    """The natural logarithm of a positive rational x, also beyond the double
    range; equal to math.log(float(x)) within it."""
    try:
        return math.log(float(x))
    except (OverflowError, ValueError):   # float(x) overflows, or underflows to 0
        return math.log(x.numerator) - math.log(x.denominator)


def compare_with_power(a: int, gamma: Fraction, n: int) -> int:
    """The sign of a - gamma**n (-1, 0 or 1), for a >= 1 and gamma > 1.

    Decided by logarithms; gamma**n is built exactly only where the two
    logarithms are too close for the floating-point error (about 1e-16
    times log a + n) to be ruled out.  gamma can have a numerator and a
    denominator of thousands of bits, and a can have thousands of digits.
    """
    log_a = math.log(a)
    diff = log_a - n * ln(gamma)
    if abs(diff) > 1e-9 * (abs(log_a) + n + 1):
        return 1 if diff > 0 else -1
    power = gamma ** n
    return (a > power) - (a < power)


def _pow2_upper(num: int, den: int, bits: int = 32) -> Fraction:
    """Rational upper bound for 2**(num/den)."""
    target = 1 << (num + den * bits)  # t^den >= 2^(num + den*bits)
    t = iroot(target, den)
    if t ** den < target:
        t += 1
    return Fraction(t, 1 << bits)


_MAX_POWER = 10 ** 6


def _least_power(base: Fraction, target: int, strict: bool = False) -> int:
    """The least k >= 1 with base**k > target (strict) or base**k >= target,
    for base > 1 and target >= 1.  k*ln(base) = ln(target) estimates it in
    floating point; compare_with_power then moves it until k holds and
    k - 1 does not.  Raises ArithmeticError when k exceeds _MAX_POWER."""
    log_base, log_target = ln(base), math.log(target)
    if log_base * (_MAX_POWER + 1) < log_target:
        raise ArithmeticError("no admissible power below 10^6")

    def holds(k: int) -> bool:
        sign = compare_with_power(target, base, k)
        return sign < 0 if strict else sign <= 0

    k = max(1, math.ceil(log_target / log_base))
    while not holds(k):
        k += 1
    while k > 1 and holds(k - 1):
        k -= 1
    if k > _MAX_POWER:
        raise ArithmeticError("no admissible power below 10^6")
    return k


def growth_constants(unit: AlgebraicUnit) -> GrowthConstants:
    """Pick the power k and the certified growth/cap constants for a unit with
    no conjugate on the unit circle.

    k is the smallest positive integer such that every conjugate inside the
    circle has modulus**k <= 1/2, every conjugate outside has modulus**k >= 2,
    and (peak**k - 1) * 2**(1-m) > 1, which makes the rate positive.  It
    decides the unit circle (module docstring): ValueError for a cyclotomic
    f, ArithmeticError when one of the unit's disks meets the circle.
    """
    f = unit.minpoly
    m = unit.degree
    reciprocal = f.reciprocal() in (f, -f)
    # deg Phi_k = phi(k) >= sqrt(k/2), so Phi_k of degree m has k <= 2m^2 + 1
    if reciprocal and any(cyclotomic(k) == f for k in range(1, 2 * m * m + 2)):
        raise ValueError(f"{f.pretty()} has a root on the unit circle")
    lbs = [d.mod_lb() for d in unit.roots]
    ubs = [d.mod_ub() for d in unit.roots]
    if any(lb <= 1 <= ub for lb, ub in zip(lbs, ubs)):
        raise ArithmeticError(
            f"could not decide whether {f.pretty()} has a root on the unit circle"
            if reciprocal else "no admissible power below 10^6"
        )
    peak = max(lbs)   # > 1: the moduli multiply to 1 and no disk meets the circle
    conj_ub = max(ubs)
    threshold = 2 ** (m - 1) + 1
    # peak**k > threshold, lb**k >= 2 outside the circle and (1/ub)**k >= 2
    # inside it: each holds from its own least k on
    k = max(
        _least_power(peak, threshold, strict=True),
        *(_least_power(lb if lb > 1 else 1 / ub, 2) for lb, ub in zip(lbs, ubs)),
    )
    excess = peak ** k - 1
    try:
        rate = 0.5 * math.log(float(excess) * 2.0 ** (1 - m))
    except OverflowError:   # a unit beyond the double range
        rate = 0.5 * (ln(excess) + (1 - m) * math.log(2))
    conj_pow_ub = conj_ub ** k   # the largest ub**k, as every ub > 0
    eps_max = rate / (2 * m * ln(conj_pow_ub))
    # threshold index: exp(rate*n/2) > n**m for all n >= n_start
    half_rate = rate / 2
    turn = max(1, math.ceil(2 * m / rate))
    last_fail = 0
    n = 1
    while True:
        if half_rate * n <= m * math.log(n):
            last_fail = n
        elif n > turn:
            break
        n += 1
    n_start = last_fail + 1
    norm_base = _pow2_upper(m, n_start) * conj_pow_ub ** m
    return GrowthConstants(
        degree=m,
        power=k,
        peak_lb=peak,
        conj_ub=conj_ub,
        conj_pow_ub=conj_pow_ub,
        rate=rate,
        eps_max=eps_max,
        norm_base=norm_base,
        n_start=n_start,
    )
