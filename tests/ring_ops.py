"""Test helpers: the ring operations on IntPoly and QuadInt that no command
computes, so the package leaves them out."""

from prational.polyarith import IntPoly
from prational.quadfield import QuadInt


def poly_add(f: IntPoly, g: IntPoly) -> IntPoly:
    n = max(len(f.coeffs), len(g.coeffs))
    a = f.coeffs + (0,) * (n - len(f.coeffs))
    b = g.coeffs + (0,) * (n - len(g.coeffs))
    return IntPoly.of(*(x + y for x, y in zip(a, b)))


def poly_mul(*factors: IntPoly | int) -> IntPoly:
    """The product of ``factors``, integers among them; 1 when there are none."""
    out = [1]
    for f in factors:
        coeffs = (f,) if isinstance(f, int) else f.coeffs
        prod = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coeffs):
                prod[i + j] += a * b
        out = prod
    return IntPoly.of(*out)


def add(a: QuadInt, b: QuadInt) -> QuadInt:
    """The sum of two elements of one field."""
    return QuadInt(a.field, a.x + b.x, a.y + b.y)


def conj(a: QuadInt) -> QuadInt:
    """The Galois conjugate of a: w -> t - w."""
    F = a.field
    return QuadInt(F, a.x + F.t * a.y, -a.y)
