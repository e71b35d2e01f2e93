"""Test oracles: the multiplicative order of a unit in a residue field O/P,
and whether a residue mod P**2 is 1."""

from prational.factorint import factor
from prational.quadfield import Splitting, pair_pow


def residue_is_one(res, P) -> bool:
    """Whether a quadfield.unit_pow_mod_p2 result equals 1 mod P**2."""
    if P.splitting is Splitting.SPLIT:
        return res == 1
    return res == (1, 0)


def multiplicative_order(u, P):
    """Order of u in (O/P)^x, by factoring the group order and descending
    through its prime divisors."""
    if P.splitting is Splitting.RAMIFIED:
        raise ValueError("ramified primes are excluded")
    if not u.is_unit():
        raise ValueError("u must be a unit")
    p = P.p
    if P.splitting is Splitting.SPLIT:
        base = (u.x + u.y * P.hensel_root) % p
        power = lambda e: pow(base, e, p)
        identity = 1
        group_factors = _merge_factors([factor(p - 1)])
    else:
        power = lambda e: pair_pow(u.x, u.y, e, u.field.t, u.field.s, p)
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
