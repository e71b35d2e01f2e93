"""Test oracle: the classes of the primes that can divide the norm of
Phi_order(v), by testing every residue prime to order, and every class of
it, against the conditions one at a time."""

import functools
import math

from sympy import jacobi_symbol


@functools.cache
def _residues(order: int, degree: int, sign: int) -> tuple[tuple[int, bool, bool], ...]:
    """(r, split, inert) for the residues r prime to order that either admits."""
    out = []
    for r in range(order):
        if math.gcd(r, order) > 1:
            continue
        rf = [pow(r, f, order) for f in range(degree)]   # r**f mod order, f < degree
        s = sum(rf) % order
        split = 1 % order in rf[1:]
        inert = 2 * s % order == 0 and (sign == 0 or (s == 0) == (sign > 0))
        if split or inert:
            out.append((r, split, inert))
    return tuple(out)


def admitted_classes(order: int, degree: int, sign: int = 0, disc: int = 0) -> tuple[int, tuple[int, ...]]:
    """(m, the sorted classes c mod m, prime to m, of the primes p that can
    divide the norm of Phi_order(v), v a unit of degree ``degree`` and norm
    ``sign`` (0: unknown) in a field of discriminant ``disc`` (0: unknown)).

    r = c mod order is admitted as split when r**f = 1 for some f < degree,
    and as inert when s = 1 + r + ... + r**(degree-1) has 2*s = 0 (mod
    order) and, by the sign, s = 0 (sign 1) or s != 0 (sign -1).  At degree
    2 with disc dividing lcm(24, order), m takes disc in, and a class is
    kept as split only where (disc|c) = 1 and as inert only where
    (disc|c) = -1."""
    character = degree == 2 and disc != 0 and math.lcm(24, order) % disc == 0
    m = math.lcm(6, order, disc) if character else math.lcm(6, order)
    out = []
    for r, split, inert in _residues(order, degree, sign):
        for c in range(r, m, order):
            if math.gcd(c, m) > 1:
                continue
            chi = jacobi_symbol(disc, c) if character else None
            if (split and chi in (None, 1)) or (inert and chi in (None, -1)):
                out.append(c)
    return m, tuple(sorted(out))
