"""Heights, radicals and quality exponents of unit triples a + b = c.

The absolute values are normalized so the product formula holds with both
real embeddings carrying weight 1 and |x|_P = N(P)**(-v_P(x)) at finite
places.  Heights are returned with an interval width since the archimedean
parts go through certified bounds on sqrt(d), integers over 2**(bits+1).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import NamedTuple

from .factorint import (
    FactorCache,
    Factorization,
    IdealSplit,
    Status,
    factor,
    ideal_split,
    ideal_valuations,
    merge_factorizations,
    radical_of_ideal,
)
from .numerics import ln
from .quadfield import QuadField, QuadInt


class Height(NamedTuple):
    value: float
    width: float


class AbcTriple(NamedTuple):
    a: QuadInt
    b: QuadInt
    c: QuadInt
    height: float
    radical: int
    quality: float | None
    n: int | None = None


class SquarefullRow(NamedTuple):
    n: int
    squarefree_norm: int
    squarefull_norm: int
    norm_total: int
    log_share: float | None      # log(squarefull) / log |N(u^n - 1)|; None on partial rows
    quality: float | None        # of the triple (u^n - 1) + 1 = u^n; None on partial rows
    status: Status


def _ln_dyadic(num: int, shift: int) -> float:
    """ln(num / 2**shift), equal to numerics.ln of that rational: int / int
    rounds correctly, as float(Fraction) does, and only beyond the double
    range does the Fraction route run."""
    try:
        return math.log(num / (1 << shift))
    except (OverflowError, ValueError):
        return ln(Fraction(num, 1 << shift))


def height(F: QuadField, a: QuadInt, b: QuadInt, c: QuadInt) -> Height:
    """log of prod_v max(|a|_v, |b|_v, |c|_v) over all places.

    A finite place counts only where P divides all of a, b and c, so the
    finite part is 0, with nothing factored, when their norms are coprime;
    that holds for every unit triple (u**n - 1) + 1 = u**n."""
    for x in (a, b, c):
        if x.is_zero():
            raise ValueError("height needs nonzero arguments")
    # sqrt(d) to 2 bits per bit of the coordinates beyond 96, so that a
    # conjugate near 1/|y| is bounded as tightly as one near |y|
    bits = 96 + 2 * max(t.bit_length() for x in (a, b, c) for t in (x.x, x.y))
    bounds = [x.embedding_bounds(bits) for x in (a, b, c)]   # over 2**(bits + 1)
    lo = sum(_ln_dyadic(max(b_[place][0] for b_ in bounds), bits + 1) for place in (0, 1))
    hi = sum(_ln_dyadic(max(b_[place][1] for b_ in bounds), bits + 1) for place in (0, 1))
    finite = 0.0
    if math.gcd(a.norm(), b.norm(), c.norm()) > 1:
        splits = [ideal_valuations(F, x) for x in (a, b, c)]
        if any(s.status is not Status.COMPLETE for s in splits):
            raise ArithmeticError("height needs complete ideal valuations")
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


def unit_triple(F: QuadField, u: QuadInt, n: int, table: FactorCache) -> AbcTriple:
    """The triple (u**n - 1) + 1 = u**n, factored as squarefull_report does,
    through the Phi_m(u) with m | n only."""
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    *_, (_, alpha, fact) = unit_power_factorizations(u, divisors, table)
    return _unit_triple_of(F, ideal_split(F, alpha, fact), n)


_UNIT_NORM = Factorization(1, (), 1, Status.COMPLETE)


def unit_power_factorizations(
    u: QuadInt, levels: Iterable[int], table: FactorCache
) -> Iterator[tuple[int, QuadInt, Factorization]]:
    """(n, u**n - 1, the factorization of |N(u**n - 1)|) for each n of
    ``levels``, increasing positive integers that hold every divisor of each.

    u**n - 1 is the product of Phi_m(u) over the divisors m of n, so
    |N(Phi_n(u))| is |N(u**n - 1)| divided by |N(Phi_m(u))| over the divisors
    m < n.  Each of these norms is factored once, in ``table``, and the
    factorization of |N(u**n - 1)| is merged from those of its divisors'
    norms; ``table.counts["factored"]`` counts the norms
    factored (a norm of 1 is not).  A prime of Phi_m(u) is found
    once, not again in every row that m divides, and the search never meets
    a composite that holds the large primes of several Phi_m(u) together.
    """
    if not u.is_unit():
        raise ValueError("u must be a unit")
    pieces: dict[int, Factorization] = {}   # pieces[m] factors |N(Phi_m(u))|
    power, level = u.field.one(), 0   # power = u**level
    for n in levels:
        power, level = power * u ** (n - level), n
        alpha = power - 1
        below = [pieces[m] for m in range(1, n // 2 + 1) if n % m == 0]
        norm = abs(alpha.norm()) // math.prod(piece.value for piece in below)
        if norm == 1:
            pieces[n] = _UNIT_NORM
        else:
            pieces[n] = factor(norm, table, order=n, degree=2)
            table.counts["factored"] += 1
        yield n, alpha, merge_factorizations([*below, pieces[n]])


def squarefull_report(
    F: QuadField, u: QuadInt, n_max: int, table: FactorCache
) -> list[SquarefullRow]:
    """Table of squarefree/squarefull norm splits of (u**n - 1) for n <= n_max,
    with the quality of the triple (u**n - 1) + 1 = u**n from the same split.

    Each row's split comes from the factorization that
    unit_power_factorizations merges from the norms of the Phi_m(u), m | n,
    in ``table``.
    The log_share column is the empirical exponent of the squarefull part;
    no bound is asserted on it (the abc inequality is an input, not a fact).
    Partial factorizations are flagged rather than dropped.
    """
    rows = []
    for n, alpha, fact in unit_power_factorizations(u, range(1, n_max + 1), table):
        split = ideal_split(F, alpha, fact)
        total = fact.value
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
