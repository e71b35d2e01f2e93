"""Heights, radicals and quality exponents of the unit triples
(u**n - 1) + 1 = u**n.

The absolute values at both real embeddings carry weight 1.  A triple that
contains 1 has no finite place where all three terms have positive
valuation, so its height is archimedean only.  Heights are returned with an
interval width since they go through certified bounds on sqrt(d), integers
over 2**(bits+1).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import NamedTuple

from .factorint import (
    FactorCache,
    Factorization,
    Status,
    factor,
    ideal_split,
    merge_factorizations,
)
from .numerics import ln
from .quadfield import QuadInt


class Height(NamedTuple):
    value: float
    width: float


class SquarefullRow(NamedTuple):
    """One abc-quality row; the fields are the payload's columns."""

    n: int
    squarefree_norm: int
    squarefull_norm: int
    norm_total: int
    squarefull_log_share: float | None   # log(squarefull) / log |N(u^n - 1)|; None on partial rows
    quality: float | None        # of the triple (u^n - 1) + 1 = u^n; None on partial rows and radical 1
    factor_status: str           # a Status value


def _ln_dyadic(num: int, shift: int) -> float:
    """ln(num / 2**shift), equal to numerics.ln of that rational: int / int
    rounds correctly, as float(Fraction) does, and only beyond the double
    range does the Fraction route run."""
    try:
        return math.log(num / (1 << shift))
    except (OverflowError, ValueError):
        return ln(Fraction(num, 1 << shift))


def height(a: QuadInt) -> Height:
    """The height of the triple (a, 1, a + 1): log of prod_v max(|a|_v, 1,
    |a + 1|_v) over the real places v, since with 1 in the triple no finite
    place counts."""
    c = a + 1
    if a.is_zero() or c.is_zero():
        raise ValueError("height needs nonzero arguments")
    # sqrt(d) to 2 bits per bit of the coordinates beyond 96, so that a
    # conjugate near 1/|y| is bounded as tightly as one near |y|
    bits = 96 + 2 * max(t.bit_length() for x in (a, c) for t in (x.x, x.y))
    one = 1 << (bits + 1)
    bounds = [x.embedding_bounds(bits) for x in (a, c)]   # over 2**(bits + 1)
    lo = sum(_ln_dyadic(max(one, *(b[place][0] for b in bounds)), bits + 1) for place in (0, 1))
    hi = sum(_ln_dyadic(max(one, *(b[place][1] for b in bounds)), bits + 1) for place in (0, 1))
    return Height(value=(lo + hi) / 2, width=hi - lo)


def _row(n: int, alpha: QuadInt, fact: Factorization) -> SquarefullRow:
    """The row of level n from alpha = u**n - 1 and ``fact``, the
    factorization of |N(alpha)|.  Units contribute nothing to the radical,
    so Rad((alpha * 1 * (alpha + 1))) is the radical of (alpha)."""
    split = ideal_split(alpha, fact)
    squarefree = squarefull = radical = 1
    for P, v in split.entries:
        radical *= P.norm
        if v == 1:
            squarefree *= P.norm
        else:
            squarefull *= P.norm ** v
    share = quality = None
    if split.status is Status.COMPLETE:
        share = 0.0 if squarefull == 1 else math.log(squarefull) / math.log(fact.value)
        if radical > 1:
            quality = height(alpha).value / math.log(radical)
    return SquarefullRow(n, squarefree, squarefull, fact.value, share, quality, split.status.value)


def unit_triple(u: QuadInt, n: int, table: FactorCache) -> SquarefullRow:
    """The row of level n of squarefull_report, for the triple
    (u**n - 1) + 1 = u**n, factored through the Phi_m(u) with m | n only."""
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    *_, (_, alpha, fact) = unit_power_factorizations(u, divisors, table)
    return _row(n, alpha, fact)


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
            pieces[n] = factor(norm, table, order=n, degree=2, sign=u.norm(), disc=u.field.disc)
            table.counts["factored"] += 1
        yield n, alpha, merge_factorizations([*below, pieces[n]])


def squarefull_report(u: QuadInt, n_max: int, table: FactorCache) -> list[SquarefullRow]:
    """Table of squarefree/squarefull norm splits of (u**n - 1) for n <= n_max,
    with the quality of the triple (u**n - 1) + 1 = u**n from the same split.

    Each row's split comes from the factorization that
    unit_power_factorizations merges from the norms of the Phi_m(u), m | n,
    in ``table``.
    The squarefull_log_share column is the empirical exponent of the squarefull part;
    no bound is asserted on it (the abc inequality is an input, not a fact).
    Partial factorizations are flagged rather than dropped.
    """
    return [_row(*level) for level in unit_power_factorizations(u, range(1, n_max + 1), table)]
