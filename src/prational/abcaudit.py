"""Heights, radicals and quality exponents of unit triples a + b = c.

The absolute values are normalized so the product formula holds with both
real embeddings carrying weight 1 and |x|_P = N(P)**(-v_P(x)) at finite
places.  Heights are returned with an interval width since the archimedean
parts go through certified rational bounds on sqrt(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PartialFactorizationError
from .factorint import IdealSplit, Status, ideal_valuations, radical_of_ideal, split_unit_power
from .quadfield import QuadField, QuadInt


@dataclass(frozen=True)
class Height:
    value: float
    width: float


@dataclass(frozen=True)
class AbcTriple:
    a: QuadInt
    b: QuadInt
    c: QuadInt
    height: float
    radical: int
    quality: float | None
    n: int | None = None


@dataclass(frozen=True)
class SquarefullRow:
    n: int
    squarefree_norm: int
    squarefull_norm: int
    norm_total: int
    log_share: float | None      # log(squarefull) / log |N(u^n - 1)|; None on partial rows
    quality: float | None        # of the triple (u^n - 1) + 1 = u^n; None on partial rows
    status: Status


def height(F: QuadField, a: QuadInt, b: QuadInt, c: QuadInt) -> Height:
    """log of prod_v max(|a|_v, |b|_v, |c|_v) over all places.

    A finite place counts only where P divides all of a, b and c, so the
    finite part is 0, with nothing factored, when their norms are coprime;
    that holds for every unit triple (u**n - 1) + 1 = u**n."""
    for x in (a, b, c):
        if x.is_zero():
            raise ValueError("height needs nonzero arguments")
    lo = hi = 0.0
    bounds = [x.embedding_bounds() for x in (a, b, c)]
    for place in (0, 1):
        best_lo = max(float(b_[place][0]) for b_ in bounds)
        best_hi = max(float(b_[place][1]) for b_ in bounds)
        lo += math.log(best_lo)
        hi += math.log(best_hi)
    finite = 0.0
    if math.gcd(a.norm(), b.norm(), c.norm()) > 1:
        splits = [ideal_valuations(F, x) for x in (a, b, c)]
        if any(s.status is not Status.COMPLETE for s in splits):
            raise PartialFactorizationError("height needs complete ideal valuations")
        vals = [dict(s.entries) for s in splits]
        for P in set().union(*vals):
            vmin = min(v.get(P, 0) for v in vals)
            if vmin > 0:
                finite -= vmin * math.log(P.norm)
    return Height(value=(lo + hi) / 2 + finite, width=hi - lo)


def _unit_triple_of(F: QuadField, split: IdealSplit, n: int) -> AbcTriple:
    """The triple a + 1 = c for the complete split of a = u**n - 1; units
    contribute nothing to the radical, so Rad((abc)) is the radical of (a)."""
    a = split.element
    b = F.one()
    c = a + 1
    rad = radical_of_ideal(split)
    h = height(F, a, b, c)
    quality = h.value / math.log(rad) if rad > 1 else None
    return AbcTriple(a=a, b=b, c=c, height=h.value, radical=rad, quality=quality, n=n)


def unit_triple(F: QuadField, u: QuadInt, n: int, **factor_opts) -> AbcTriple:
    """The triple (u**n - 1) + 1 = u**n."""
    return _unit_triple_of(F, split_unit_power(F, u, n, **factor_opts), n)


def squarefull_report(F: QuadField, u: QuadInt, n_max: int, **factor_opts) -> list[SquarefullRow]:
    """Table of squarefree/squarefull norm splits of (u**n - 1) for n <= n_max,
    with the quality of the triple (u**n - 1) + 1 = u**n from the same split.

    The log_share column is the empirical exponent of the squarefull part;
    no bound is asserted on it (the abc inequality is an input, not a fact).
    Partial factorizations are flagged rather than dropped.
    """
    rows = []
    for n in range(1, n_max + 1):
        split = split_unit_power(F, u, n, **factor_opts)
        total = abs(split.element.norm())
        nj = split.squarefull_norm
        if split.status is Status.COMPLETE:
            share = 0.0 if nj == 1 else math.log(nj) / math.log(total)
            quality = _unit_triple_of(F, split, n).quality
        else:
            share = quality = None
        rows.append(
            SquarefullRow(
                n=n,
                squarefree_norm=split.squarefree_norm,
                squarefull_norm=nj,
                norm_total=total,
                log_share=share,
                quality=quality,
                status=split.status,
            )
        )
    return rows
