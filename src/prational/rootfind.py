"""Approximate roots of a monic integer polynomial, as dyadic disk centers.

``root_centers`` gives what mpmath's polyroots gave ``numerics`` before,
without a third-party module: the Weierstrass (Durand-Kerner) iteration
in fixed-point Gaussian integers, started from points on the circles of
the Newton polygon (Bini, Numer. Algorithms 13, 1996).  A poor center
costs only a retry at more bits: ``numerics`` certifies each one with
exact arithmetic.  Only the commands that certify roots of degree >= 3
or non-real roots import this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polyarith import IntPoly


def _fixed(x: float, e: float) -> int:
    """About x * 2**e, also where 2**e is beyond the double range."""
    k = math.floor(e)
    m = int(math.ldexp(x * 2.0 ** (e - k), 60))
    return m << k - 60 if k >= 60 else m >> 60 - k


def _newton_polygon(coeffs: tuple[int, ...]) -> list[tuple[int, int, float]]:
    """(k1, k2, log2 r) for each edge, from k1 to k2, of the upper convex
    hull of the points (k, log2|c_k|): about k2 - k1 roots of the polynomial
    lie near the circle of radius r = (|c_k1| / |c_k2|)**(1/(k2 - k1))."""
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(coeffs):
        if c:
            pt = (k, math.log2(abs(c)))
            while len(hull) > 1 and (
                (hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])
            ):
                hull.pop()
            hull.append(pt)
    return [(k1, k2, (l1 - l2) / (k2 - k1)) for (k1, l1), (k2, l2) in zip(hull, hull[1:])]


def _weierstrass_sweep(coeffs: tuple[int, ...], zs: list[tuple[int, int]], w: int) -> list[int] | None:
    """One sweep of z_i -= f(z_i) / prod_{j != i} (z_i - z_j) over the points
    zs of the monic f, in place and in turn, all in units of 2**-w; the
    squared modulus of each correction, or None where a product vanishes."""
    one = 1 << w
    steps = []
    for i, (x, y) in enumerate(zs):
        ar, ai = one, 0
        for c in reversed(coeffs[:-1]):
            ar, ai = ((ar * x - ai * y) >> w) + (c << w), (ar * y + ai * x) >> w
        br, bi = one, 0
        for j, (u, v) in enumerate(zs):
            if j != i:
                br, bi = (br * (x - u) - bi * (y - v)) >> w, (br * (y - v) + bi * (x - u)) >> w
        den = br * br + bi * bi
        if not den:
            return None
        dr = ((ar * br + ai * bi) << w) // den
        di = ((ai * br - ar * bi) << w) // den
        zs[i] = (x - dr, y - di)
        steps.append(dr * dr + di * di)
    return steps


def _floor_part(v: int, w: int, prec: int) -> Fraction:
    """floor(x * 2**prec) / 2**prec for x = v / 2**w rounded to prec + 64
    significant bits, ties to even."""
    drop = abs(v).bit_length() - (prec + 64)
    if drop > 0:
        q, r = divmod(v, 1 << drop)
        if 2 * r > 1 << drop or (2 * r == 1 << drop and q & 1):
            q += 1
        v = q << drop
    return Fraction(v >> w - prec, 1 << prec)


_MAX_SWEEPS = 200


def root_centers(f: IntPoly, prec: int) -> list[tuple[Fraction, Fraction]] | None:
    """floor(z * 2**prec) / 2**prec, real and imaginary part, for the roots z
    of the monic squarefree f, sorted by (|im|, re); None when the iteration
    does not converge.  As in mpmath's polyroots at prec + 64 bits, each z
    is rounded to prec + 64 significant bits, and with tol = 2**-(prec + 63)
    it is 0 if |z| < tol, else a part below tol is 0.

    The Weierstrass (Durand-Kerner) iteration starts from Bini's points on
    the circles of the Newton polygon and runs in fixed point: at w = 128
    bits (more where a circle is small) until each correction is below
    2**(-w/2) * max(1, |z|), then at twice the bits, and so on up to
    w = 2*prec + 64 bits, where it stops once every correction is below tol.
    """
    coeffs = f.coeffs
    n = len(coeffs) - 1
    final = 2 * prec + 64
    edges = _newton_polygon(coeffs)
    w = min(final, 128 + max(0, -math.floor(min(e for _, _, e in edges))))
    zs = []
    for k1, k2, e in edges:
        for j in range(k2 - k1):
            theta = 2 * math.pi * (j / (k2 - k1) + k1 / n) + 0.7
            zs.append((_fixed(math.cos(theta), e + w), _fixed(math.sin(theta), e + w)))
    tol = 1 << final - prec - 63
    for _ in range(_MAX_SWEEPS):
        steps = _weierstrass_sweep(coeffs, zs, w)
        if steps is None:
            return None
        if w == final:
            if max(steps) < tol * tol:
                break
        elif all(s << w <= max(x * x + y * y, 1 << 2 * w) for s, (x, y) in zip(steps, zs)):
            shift = min(2 * w, final) - w
            zs = [(x << shift, y << shift) for x, y in zs]
            w += shift
    else:
        return None
    cleaned = []
    for x, y in zs:
        if x * x + y * y < tol * tol:
            x = y = 0
        elif abs(y) < tol:
            y = 0
        elif abs(x) < tol:
            x = 0
        cleaned.append((x, y))
    cleaned.sort(key=lambda z: (abs(z[1]), z[0]))
    return [(_floor_part(x, w, prec), _floor_part(y, w, prec)) for x, y in cleaned]
