"""Test oracle: the archimedean height of a triple from exact Fraction bounds
on sqrt(d) and numerics.ln, the route abcaudit.height took before its bounds
became integers over a power of two."""

from fractions import Fraction

from prational.abcaudit import Height
from prational.numerics import ln
from prational.polyarith import sqrt_bounds
from prational.quadfield import QuadInt


def fraction_embedding_bounds(x: QuadInt, bits: int):
    """Exact rational (lower, upper) bounds on |sigma(x)| at both real places."""
    F = x.field
    lo, hi = sqrt_bounds(F.d, bits)
    if F.omega_half:
        wlo, whi = (1 + lo) / 2, (1 + hi) / 2
    else:
        wlo, whi = lo, hi
    out = []
    for a, b in ((wlo, whi), (F.t - whi, F.t - wlo)):
        v_lo = x.x + (x.y * a if x.y >= 0 else x.y * b)
        v_hi = x.x + (x.y * b if x.y >= 0 else x.y * a)
        if v_lo >= 0:
            out.append((v_lo, v_hi))
        elif v_hi <= 0:
            out.append((-v_hi, -v_lo))
        else:
            out.append((Fraction(0), max(-v_lo, v_hi)))
    return out[0], out[1]


def archimedean_height(a: QuadInt, b: QuadInt, c: QuadInt) -> Height:
    """The height of a triple whose norms are coprime, so that no finite
    place counts, with the working precision abcaudit.height uses."""
    bits = 96 + 2 * max(t.bit_length() for x in (a, b, c) for t in (x.x, x.y))
    bounds = [fraction_embedding_bounds(x, bits) for x in (a, b, c)]
    lo = sum(ln(max(b_[place][0] for b_ in bounds)) for place in (0, 1))
    hi = sum(ln(max(b_[place][1] for b_ in bounds)) for place in (0, 1))
    return Height(value=(lo + hi) / 2, width=hi - lo)
