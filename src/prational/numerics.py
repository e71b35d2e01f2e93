"""Certified numeric embeddings of algebraic units.

Roots of a unit's minimal polynomial are enclosed in pairwise-disjoint
complex disks.  Approximations come from mpmath at increasing working
precision; every certificate is then checked with exact rational
arithmetic: for a dyadic center z, all the roots of f lie within
deg(f) * |f(z)/f'(z)| of z, so disjoint disks of that radius isolate the
roots.  Circle membership is decided exactly when the reciprocal gcd is
cyclotomic, numerically (with an Undecided escape hatch at the precision
cap) otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import NonConvergenceError, NotAUnitError, NotSquarefreeError
from .polyarith import IntPoly, cyclotomic, euler_phi, iroot, poly_gcd, sqrt_bounds

PRECISION_CAP_BITS = 2 ** 14
_SQRT_BITS = 48   # precision of the rational square-root bounds on moduli and radii


class CircleTest(enum.Enum):
    CLEAR = "clear"            # no conjugate on the unit circle
    ON_CIRCLE = "on_circle"    # some conjugate provably on the unit circle
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class RootDisk:
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


@dataclass(frozen=True)
class AlgebraicUnit:
    """An algebraic unit given by its (irreducible, monic) minimal polynomial
    together with certified enclosures of all its conjugates."""

    minpoly: IntPoly
    degree: int
    roots: tuple[RootDisk, ...]
    label: str


def _ceval(coeffs: tuple[int, ...], re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    """Exact Horner evaluation at re + im*i."""
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


def _to_fraction(x, bits: int) -> Fraction:
    scaled = mpmath.floor(x * (1 << bits))
    return Fraction(int(scaled), 1 << bits)


def _certify_at_precision(f: IntPoly, prec: int, tol: Fraction) -> tuple[RootDisk, ...] | None:
    deg = f.degree()
    fp = f.derivative()
    with mpmath.workprec(prec + 64):
        try:
            approx = mpmath.polyroots(
                [mpmath.mpf(c) for c in reversed(f.coeffs)],
                maxsteps=200,
                extraprec=prec,
            )
        except mpmath.libmp.NoConvergence:
            return None
        centers = [
            (_to_fraction(mpmath.mpc(z).real, prec), _to_fraction(mpmath.mpc(z).imag, prec))
            for z in approx
        ]
    disks = []
    for re, im in centers:
        num_re, num_im = _ceval(f.coeffs, re, im)
        den_re, den_im = _ceval(fp.coeffs, re, im)
        den2 = den_re * den_re + den_im * den_im
        if den2 == 0:
            return None
        r2 = Fraction(deg * deg) * (num_re * num_re + num_im * num_im) / den2
        _, radius = sqrt_bounds(r2, _SQRT_BITS)
        if radius >= tol:
            return None
        disks.append(RootDisk(re, im, radius))
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            if disks[i].overlaps(disks[j]):
                return None
    return tuple(disks)


def certify_roots(
    minpoly: IntPoly,
    tol: float = 1e-12,
    precision_cap: int = PRECISION_CAP_BITS,
    label: str | None = None,
) -> AlgebraicUnit:
    """Enclose all roots of a unit's minimal polynomial in disjoint certified disks.

    Raises NotSquarefreeError / NotAUnitError on bad input and
    NonConvergenceError if disks cannot be separated below ``precision_cap`` bits.
    """
    f = minpoly
    if f.is_zero() or f.degree() < 1:
        raise ValueError("minimal polynomial must have positive degree")
    if f.lead() == -1:
        f = -f
    if not f.is_monic():
        raise NotAUnitError("an algebraic integer needs a monic minimal polynomial")
    if abs(f.constant()) != 1:
        raise NotAUnitError(f"constant term {f.constant()} has absolute value != 1")
    if poly_gcd(f, f.derivative()).degree() > 0:
        raise NotSquarefreeError("minimal polynomial has a repeated factor")
    name = label if label is not None else f.pretty()
    if tol <= 0:
        raise ValueError("tol must be positive")
    tol_frac = Fraction(tol)
    if f.degree() == 1:
        root = -f.constant()
        return AlgebraicUnit(f, 1, (RootDisk(Fraction(root), Fraction(0), Fraction(0)),), name)
    prec = 64
    while prec <= precision_cap:
        disks = _certify_at_precision(f, prec, tol_frac)
        if disks is not None:
            return AlgebraicUnit(f, f.degree(), disks, name)
        prec *= 2
    raise NonConvergenceError(
        f"could not separate the roots of {f.pretty()} below {precision_cap} bits"
    )


def refine(unit: AlgebraicUnit, tol: float, precision_cap: int = PRECISION_CAP_BITS) -> AlgebraicUnit:
    """Re-certify with a smaller disk tolerance."""
    return certify_roots(unit.minpoly, tol, precision_cap, label=unit.label)


def _cyclotomic_match(g: IntPoly) -> int | None:
    """The index n with g = cyclotomic(n), if any (g primitive, positive lead)."""
    k = g.degree()
    if k < 1:
        return None
    bound = max(2, 2 * k * k + 1)
    for n in range(1, bound + 1):
        if euler_phi(n) == k and cyclotomic(n) == g:
            return n
    return None


def _sides(unit: AlgebraicUnit, precision_cap: int = PRECISION_CAP_BITS) -> tuple[AlgebraicUnit, list[int]]:
    """Certify each disk entirely inside (-1) or outside (+1) the unit circle,
    refining as needed.  Raises NonConvergenceError at the precision cap."""
    current = unit
    tol = float(min((d.radius for d in unit.roots if d.radius > 0), default=Fraction(1, 10 ** 12)))
    for _ in range(64):
        sides = []
        ok = True
        for disk in current.roots:
            if disk.mod_lb() > 1:
                sides.append(+1)
            elif disk.mod_ub() < 1:
                sides.append(-1)
            else:
                ok = False
                break
        if ok:
            return current, sides
        tol /= 2 ** 8
        if tol <= 0.0:
            break
        try:
            current = refine(current, tol, precision_cap)
        except NonConvergenceError:
            break
    raise NonConvergenceError("a root enclosure keeps straddling the unit circle")


def circle_test(unit: AlgebraicUnit, precision_cap: int = PRECISION_CAP_BITS) -> CircleTest:
    """Decide whether any conjugate lies on the unit circle.

    A conjugate on the circle forces its inverse (= its complex conjugate) to
    be a conjugate too, so f and its reciprocal share a factor; a trivial gcd
    settles the question exactly.  A nontrivial gcd equal to a cyclotomic
    polynomial settles it the other way.  Anything else falls back to disk
    refinement and may come back UNDECIDED.
    """
    f = unit.minpoly
    g = poly_gcd(f, f.reciprocal())
    if g.degree() == 0:
        return CircleTest.CLEAR
    if _cyclotomic_match(g) is not None:
        return CircleTest.ON_CIRCLE
    try:
        _sides(unit, precision_cap)
        return CircleTest.CLEAR
    except NonConvergenceError:
        return CircleTest.UNDECIDED


@dataclass(frozen=True)
class GrowthConstants:
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


def _pow2_upper(num: int, den: int, bits: int = 32) -> Fraction:
    """Rational upper bound for 2**(num/den)."""
    target = 1 << (num + den * bits)  # t^den >= 2^(num + den*bits)
    t = iroot(target, den)
    if t ** den < target:
        t += 1
    return Fraction(t, 1 << bits)


def growth_constants(unit: AlgebraicUnit, precision_cap: int = PRECISION_CAP_BITS) -> GrowthConstants:
    """Pick the power k and the certified growth/cap constants for a unit with
    no conjugate on the unit circle.

    k is the smallest positive integer such that every conjugate inside the
    circle has modulus**k <= 1/2, every conjugate outside has modulus**k >= 2,
    and (peak**k - 1) * 2**(1-m) > 1, which makes the rate positive.
    """
    if circle_test(unit, precision_cap) is not CircleTest.CLEAR:
        raise ValueError("growth constants need a unit with no conjugate on the unit circle")
    refined, sides = _sides(unit, precision_cap)
    m = refined.degree
    lbs = [d.mod_lb() for d in refined.roots]
    ubs = [d.mod_ub() for d in refined.roots]
    peak = max(lb for lb, side in zip(lbs, sides) if side == +1)
    conj_ub = max(ubs)
    half = Fraction(1, 2)
    threshold = Fraction(2 ** (m - 1) + 1)
    k = 1
    while True:
        ok = peak ** k > threshold
        for lb, ub, side in zip(lbs, ubs, sides):
            if side == -1 and ub ** k > half:
                ok = False
            if side == +1 and lb ** k < 2:
                ok = False
        if ok:
            break
        k += 1
        if k > 10 ** 6:
            raise NonConvergenceError("no admissible power below 10^6")
    rate = 0.5 * math.log(float(peak ** k - 1) * 2.0 ** (1 - m))
    conj_pow_ub = max(ub ** k for ub in ubs)
    eps_max = rate / (2 * m * math.log(float(conj_pow_ub)))
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
