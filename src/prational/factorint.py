"""Primes, integer primality/factorization and the prime-ideal valuations
of principal ideals.

Every list of primes comes from one sieve of the odd numbers, and none is
kept: ``primes(limit)`` yields the odd primes a segment at a time, and trial
division and ECM read the sieve's flags up to 10**6.

Factoring runs in two phases.  The trial phase is everything before the
first rho iteration: trial division by the primes up to 10**6, then the
primality test and the perfect-power check on what is left.  It lists every
prime up to the bound with its exact exponent; when what is left has two or
more distinct primes, all above the bound, it stays an open cofactor (status
TRIAL).  The search then runs on that cofactor: Brent-cycle Pollard rho
capped at _RHO_CAP iterations per composite (enough for factors up to about
30 bits), then elliptic-curve (ECM) curves.  For the norm of Phi_n(v), v a
unit, trial division tries only the primes that can divide it: 2, 3, those
of n and those of the few classes that the residue degrees, the sign of N(v)
and, in a quadratic field, the character of its discriminant allow (see
_admitted_classes).  So it lists what one ``%`` per prime in increasing
order would, and the search gets the composite that loop would leave.  One budget, ``rho_budget``, counted in rho iterations, covers the search: each curve is
charged _ECM_CURVE_COST, about its time in rho iterations, and runs only
while that much budget is left, so ``rho_budget=0`` means the trial phase
only; a caller that needs only the small primes (the Wieferich scans) asks
that first (``trial=True``).  The trial phase depends on the integer alone.
The random starts of the search come from one generator seeded with ``seed``
when the search starts, so a searched result is the same whether or not its
trial phase ran in an earlier call.  A perfect power r**k is factored through r,
once.  Giving up is a first-class outcome: the composite leftover is
reported as a ``cofactor`` with status ``PARTIAL`` instead of being
mislabeled, and the listed primes keep exact exponents (none of them
divides the cofactor).  A run's FactorCache carries its budget, seed,
counters and factor table, so no integer is factored twice in one run;
``factor`` alone decides which entry answers which call.
Primality is certified deterministically below 3.3e24 (fixed Miller-Rabin
witness sets) and probabilistically above, by 64 rounds whose bases come
from a generator seeded with the integer's low 32 bits.

The ideal layer splits a principal ideal of a real quadratic field into
prime-ideal powers: it returns the valuations, and its callers combine them.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import random
from collections import Counter
from collections.abc import Iterator
from typing import NamedTuple

from .quadfield import PrimeIdealAboveP, QuadInt, Splitting, split_prime
from .polyarith import iroot, jacobi

_TRIAL_BOUND = 10 ** 6
_RHO_BUDGET = 4_000_000
_RHO_CAP = 1 << 16   # rho iterations per composite before ECM takes over

# ECM bounds: a curve finds p when the order of its group mod p is B1-smooth
# apart from one prime below B2.  These bounds suit factors of 30-60 bits;
# one curve costs about as much time as _ECM_CURVE_COST rho iterations.
_ECM_B1 = 2000
_ECM_B2 = 100 * _ECM_B1
_ECM_D = 210   # giant-step width of stage 2
_ECM_CURVE_COST = 30_000

# deterministic Miller-Rabin below this bound with the first 13 prime bases
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


_SEGMENT = 1 << 17   # odd numbers per segment of primes()
_SIEVE_CAP = 1 << 27   # bytes of primes()'s base sieve: limits below 4 * _SIEVE_CAP**2 = 2**56


def _cross_off(flags: bytearray, lo: int, base) -> bytearray:
    """The one sieve core: flags[i] stands for the odd number 2*(lo + i) + 1;
    cross off the odd multiples >= p*p of each odd prime p of ``base``, taken
    in increasing order, and the number 1.  Every prime up to the square root
    of the top of the range must be in ``base``."""
    hi = lo + len(flags)
    for p in base:
        if p * p // 2 >= hi:
            break
        # odd multiples of p have indices = p // 2 (mod p); p*p's is p*p // 2
        start = max(p * p // 2, lo + (p // 2 - lo) % p)
        flags[start - lo :: p] = bytes(len(range(start, hi, p)))
    if lo == 0 and flags:
        flags[0] = 0
    return flags


def _odd_flags(limit: int) -> bytearray:
    """Eratosthenes' sieve of the odd numbers up to limit: flags[i] is 1
    exactly when 2*i + 1 is prime.  The base primes are read from the flags
    themselves, each after every smaller prime has crossed off its
    multiples, so each flag is final when it is read."""
    flags = bytearray([1]) * ((limit + 1) // 2)
    base = itertools.compress(itertools.count(3, 2), itertools.islice(flags, 1, None))
    return _cross_off(flags, 0, base)


def _flagged(flags: bytearray, lo: int = 0) -> Iterator[int]:
    """The primes that flags mark, flags[i] standing for 2*(lo + i) + 1."""
    return itertools.compress(range(2 * lo + 1, 2 * (lo + len(flags)), 2), flags)


def _segment(lo: int, hi: int, base: list[int]) -> Iterator[int]:
    """The primes among the odd numbers 2*lo + 1 .. 2*hi - 1."""
    return _flagged(_cross_off(bytearray([1]) * (hi - lo), lo, base), lo)


def primes(limit: int) -> Iterator[int]:
    """The odd primes <= limit, in increasing order, sieved one segment of
    _SEGMENT odd numbers at a time by the odd primes up to sqrt(limit)
    (Bays and Hudson, BIT 17, 1977), so memory stays flat in limit.  Those
    base primes are sieved before the first prime is asked for, so a limit
    whose base sieve does not fit in memory fails here; one whose sieve would
    pass _SIEVE_CAP bytes, 2**56 (about 7.2e16) or more, which would take
    centuries to classify at about 120,000 primes a second (scan-prational
    --d 2 --X 10**7 on one core of a 2-core x86_64 host, Python 3.11), is
    refused before it."""
    if limit >= 4 * _SIEVE_CAP ** 2:
        raise ArithmeticError("primes up to 2^56 or more are refused: their base sieve would take 2^27 bytes or more")
    base_flags = _odd_flags(math.isqrt(max(limit, 0)))
    base = list(_flagged(base_flags))
    end = (limit + 1) // 2   # the index of the first odd number above limit
    return itertools.chain.from_iterable(
        _segment(lo, min(lo + _SEGMENT, end), base) for lo in range(0, end, _SEGMENT)
    )


def sieve(limit: int) -> list[int]:
    """The primes <= limit, in increasing order."""
    return [2, *primes(limit)] if limit >= 2 else []


# The primes below 1000 settle every integer below 10**6, such as d, n and
# 2*disc*h of a small field; the flags up to _TRIAL_BOUND, which also give
# ECM its stage-2 primes, are sieved on the first larger integer.
_SMALL_FLAGS = _odd_flags(1000)
_SMALL_PRODUCT = 2 * math.prod(_flagged(_SMALL_FLAGS))   # the primes below 1000


def may_be_prime(n: int) -> bool:
    """False when the primes below 1000 show that n is not prime: exactly
    the primes below 1000 pass, and above it every n with no prime factor
    below 1000 that is not a square (composites of larger primes pass).

    >>> [n for n in (-7, 1, 2, 9, 997, 1681, 8119, 1009, 1018081) if may_be_prime(n)]
    [2, 997, 1009]
    """
    if n < 1000:
        return n == 2 or n > 2 and n % 2 == 1 and _SMALL_FLAGS[n // 2] == 1
    return math.gcd(n, _SMALL_PRODUCT) == 1 and math.isqrt(n) ** 2 != n


@functools.cache
def _large_flags() -> bytearray:
    """The flags of the odd numbers up to _TRIAL_BOUND, sieved on the first call."""
    return _odd_flags(_TRIAL_BOUND)


@functools.cache
def _admitted_classes(order: int, degree: int, sign: int = 0, disc: int = 0) -> tuple[int, tuple[int, ...]]:
    """(m, the classes mod m, prime to m, of the primes p that can divide the
    norm of Phi_order(v), v a unit of degree ``degree`` and norm ``sign``
    (0: unknown), apart from 2, 3 and those of ``order``).  Such a p has a
    prime P | Phi_order(v) of some residue degree f, and v has order
    ``order`` mod P, so r = p mod ``order`` has r**f = 1 when f < degree.
    When f = degree, p is inert and v**s = N(v) mod P for s = 1 + p + ... +
    p**(f-1), so s = 1 + r + ... + r**(f-1) has s = 0 (mod order) when N(v)
    = 1, and 2*s = 0 != s when N(v) = -1.  At degree 2 these residues are 1
    (p split or ramified) and -1 or order/2 - 1 (p inert); and when the field
    discriminant ``disc`` divides lcm(24, order), m = lcm(6, order, disc)
    and a class c keeps a split residue only where (disc|c) = 1 and an inert
    one only where (disc|c) = -1 (Carmichael, Ann. of Math. 15, 1913).  The
    ramified primes then divide 6*order, and are tried apart.  Order 1 and
    sign 0 admit every prime."""
    m, pairs = math.lcm(6, order), None
    if degree == 2:
        inert = {-1 % order} if sign >= 0 else set()
        if sign <= 0 and order % 2 == 0:
            inert.add(order // 2 - 1)
        residues = [r for r in sorted({1 % order, *inert}) if math.gcd(r, order) == 1]
        if disc and math.lcm(24, order) % disc == 0:
            m = math.lcm(m, disc)
            pairs = {(1 % order, 1), *((r, -1) for r in inert)}   # (r, (disc|p)) of p split, p inert
    else:
        residues = []
        for r in range(order):
            if math.gcd(r, order) > 1:
                continue
            rf = [pow(r, f, order) for f in range(degree)]   # r**f mod order, f < degree
            s = sum(rf) % order
            if 1 % order in rf[1:] or 2 * s % order == 0 and (sign == 0 or (s == 0) == (sign > 0)):
                residues.append(r)
    classes = [
        c
        for r in residues
        for c in range(r, m, order)
        if c % 2 and c % 3 and (pairs is None or (r, jacobi(disc, c)) in pairs)
    ]
    return m, tuple(classes)


def _trial_divide(
    a: int, found: dict[int, int], order: int = 1, degree: int = 1, sign: int = 0, disc: int = 0
) -> int:
    """Divide out of a, into ``found``, the primes up to _TRIAL_BOUND (up to
    1000 when a < _TRIAL_BOUND) that can divide the norm of Phi_order(v), v a
    unit of degree ``degree``, norm ``sign`` and field discriminant ``disc``
    (every prime at order 1 and sign 0): 2, 3, those of ``order`` and those
    of _admitted_classes, each class up to the square
    root of what is left.  That then has at most one prime of the flags,
    once, and only when it is that prime, so below the square of the largest
    of them it is 1 or prime, as one ``%`` per prime in increasing order
    finds.  Return what is left, or 1 when that is prime (and then in
    ``found``)."""
    flags = _SMALL_FLAGS if a < _TRIAL_BOUND else _large_flags()
    top = 2 * flags.rindex(1) + 1   # the largest prime of the flags
    for p in {2, 3, *(q for q in _flagged(flags[: (order + 1) // 2]) if order % q == 0)}:
        while a % p == 0:
            a //= p
            found[p] = found.get(p, 0) + 1
    m, classes = _admitted_classes(order, degree, sign, disc)
    for c in classes:
        i = c // 2   # flags[i] stands for the next number of the class to try
        while (limit := min(top, math.isqrt(a))) > 2 * i:
            walk = itertools.compress(range(2 * i + 1, limit + 1, m), flags[i : (limit + 1) // 2 : m // 2])
            p = next(itertools.filterfalse(a.__mod__, walk), 0)   # the next prime of the class dividing a
            if p == 0:
                break
            while a % p == 0:
                a //= p
                found[p] = found.get(p, 0) + 1
            i = (p + m) // 2
    if 1 < a < top * top:
        found[a] = found.get(a, 0) + 1
        a = 1
    return a


def _prime_power_product(bound: int) -> int:
    """The product of the largest power of each prime that is <= bound."""
    out = 1
    for p in sieve(bound):
        q = p
        while q * p <= bound:
            q *= p
        out *= q
    return out


_ECM_K = _prime_power_product(_ECM_B1)   # the multiplier of ECM stage 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < _MR_DETERMINISTIC_BOUND:
        bases = _MR_BASES
    else:
        rng = random.Random(n & 0xFFFFFFFF)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(64))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Status(enum.Enum):
    COMPLETE = "complete"
    PARTIAL = "partial"   # the search ran out of budget
    TRIAL = "trial"       # only the trial phase ran; the cofactor is unsearched


class Factorization(NamedTuple):
    """value = cofactor * prod(p**e), value >= 1; cofactor 1 when complete."""

    value: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int
    status: Status

    def complete_factors(self) -> tuple[tuple[int, int], ...]:
        if self.status is not Status.COMPLETE:
            raise ArithmeticError(f"cannot completely factor {self.value}")
        return self.factors

    def product(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p ** e
        return out


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """One randomized Brent cycle attempt; returns (divisor or None, iterations used)."""
    y = rng.randrange(1, n - 1)
    c = rng.randrange(1, n - 1)
    m = 128
    g, r, q = 1, 1, 1
    used = 0
    x = ys = y
    while g == 1 and used < budget:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            used += min(m, r - k)
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # backtrack one step at a time
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
            if g > 1:
                break
    if 1 < g < n:
        return g, used
    return None, used


def _x_add(P, Q, diff, n):
    """x(P + Q) from x(P), x(Q) and x(P - Q) on a Montgomery curve."""
    u = (P[0] - P[1]) * (Q[0] + Q[1])
    v = (P[0] + P[1]) * (Q[0] - Q[1])
    s, t = u + v, u - v
    return diff[1] * s * s % n, diff[0] * t * t % n


def _x_dbl(P, a24, n):
    """x(2P), with a24 = (A + 2) / 4 for the curve By^2 = x^3 + Ax^2 + x."""
    s = (P[0] + P[1]) ** 2 % n
    t = (P[0] - P[1]) ** 2 % n
    c = s - t
    return s * t % n, c * (t + a24 * c) % n


def _x_mul(k: int, P, a24, n):
    """x(kP) for k >= 1 by the Montgomery ladder."""
    R0, R1 = P, _x_dbl(P, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            R0, R1 = _x_add(R1, R0, P, n), _x_dbl(R1, a24, n)
        else:
            R0, R1 = _x_dbl(R0, a24, n), _x_add(R1, R0, P, n)
    return R0


def _ecm(n: int, rng: random.Random) -> int | None:
    """One ECM curve on composite n; returns a proper divisor or None.

    The curve and its starting point come from Suyama's parametrization
    (group order divisible by 12).  Stage 1 multiplies the point by every
    prime power up to B1; stage 2 catches one more prime p in (B1, B2]
    by baby steps j*Q and giant steps m*D*Q with p = m*D +- j, since
    x(m*D*Q) = x(j*Q) mod a prime q exactly when (m*D -+ j)*Q = 0 mod q.
    """
    sigma = rng.randrange(6, 1 << 32)
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x0, z0 = pow(u, 3, n), pow(v, 3, n)
    den = 16 * x0 * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g if g < n else None
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    Q = _x_mul(_ECM_K, (x0, z0), a24, n)
    g = math.gcd(Q[1], n)
    if g != 1:
        return g if g < n else None
    # baby steps: x(j*Q) for odd j < D/2 (those coprime to D are used)
    half = _ECM_D // 2
    baby = {1: Q}
    Q2 = _x_dbl(Q, a24, n)
    prev, cur = Q, _x_add(Q2, Q, Q, n)
    for j in range(3, half, 2):
        baby[j] = cur
        prev, cur = cur, _x_add(cur, Q2, prev, n)
    # giant steps: x(m*D*Q) for m = 2, 3, ..., with one product per prime
    G = _x_mul(_ECM_D, Q, a24, n)
    prev, cur, mD = G, _x_dbl(G, a24, n), 2 * _ECM_D
    xm, zm = cur
    acc = 1
    lo = (_ECM_B1 + 1) // 2   # the index of the first odd number above B1
    for p in _flagged(_large_flags()[lo : (_ECM_B2 + 1) // 2], lo):   # the primes in (B1, B2]
        while mD + half < p:
            prev, cur, mD = cur, _x_add(cur, G, prev, n), mD + _ECM_D
            xm, zm = cur
        xj, zj = baby[abs(p - mD)]
        acc = acc * (xm * zj - xj * zm) % n
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


def _reduce(m: int, mult: int, found: dict[int, int]) -> tuple[int, int]:
    """Reduce the part m**mult of an integer, m having no prime below the trial
    bound: a prime m goes into ``found`` and gives (1, 0); a perfect power
    r**k is taken through r (once, which also spares rho the powers of one
    prime, where it cannot find a cycle).  What is left is (m, mult) with m
    composite and no perfect power.  Only prime k <= bits // 19 are tried: r
    above _TRIAL_BOUND > 2**19 gives r**k over 19*k bits, and a composite k
    is taken one prime factor at a time."""
    while m > 1:
        if is_prime(m):
            found[m] = found.get(m, 0) + mult
            return 1, 0
        for k in sieve(m.bit_length() // 19):
            r = iroot(m, k)
            if r > 1 and r ** k == m:
                m, mult = r, mult * k
                break
        else:
            return m, mult
    return 1, 0


def _search(m: int, mult: int, found: dict[int, int], rho_budget: int, seed: int) -> int:
    """Rho, then ECM, on the composite m**mult that _reduce left; the primes
    found go into ``found`` and the unsplit part is returned (1 when none)."""
    rng = random.Random(seed)
    budget = rho_budget
    cofactor = 1
    stack = [(m, mult)]   # composites that are no perfect powers, with multiplicity
    while stack:
        m, mult = stack.pop()
        divisor = None
        rho_left = min(budget, _RHO_CAP)
        while rho_left > 0 and divisor is None:
            divisor, used = _brent_rho(m, rng, rho_left)
            rho_left -= max(used, 1)
            budget -= max(used, 1)
        while budget >= _ECM_CURVE_COST and divisor is None:
            divisor = _ecm(m, rng)
            budget -= _ECM_CURVE_COST
        if divisor is None:
            cofactor *= m ** mult
            continue
        for part in (divisor, m // divisor):
            part, k = _reduce(part, mult, found)
            if part > 1:
                stack.append((part, k))
    # a prime split off one branch can still divide a branch the search gave up on
    return _divide_out(found, cofactor)


def _divide_out(found: dict[int, int], cofactor: int) -> int:
    """Divide the primes of ``found`` out of cofactor, adding to their
    exponents in ``found``; return what is left."""
    for p in found:
        while cofactor % p == 0:
            cofactor //= p
            found[p] += 1
    return cofactor


def _trial_view(fact: Factorization) -> Factorization:
    """What the trial phase alone gives on ``fact``, an entry of the table.

    The trial phase lists the primes up to _TRIAL_BOUND and is COMPLETE when
    at most one prime is left above it (trial division up to the square
    root, the primality test or the perfect-power check then finds it);
    otherwise everything above _TRIAL_BOUND is its open cofactor.  A TRIAL
    entry lists no prime above _TRIAL_BOUND, so it is its own view."""
    large = [(p, e) for p, e in fact.factors if p > _TRIAL_BOUND]
    if len(large) <= 1:
        return fact
    small = tuple((p, e) for p, e in fact.factors if p <= _TRIAL_BOUND)
    return Factorization(fact.value, small, math.prod(p ** e for p, e in large), Status.TRIAL)


class FactorCache:
    """The factoring context of one run: the ``rho_budget`` and ``seed`` of
    every search; the factor table ``entries``, keyed by value, whose entry
    is a proven fact (a COMPLETE factorization, or the TRIAL result of the
    trial phase; a search that ran out of budget is none); ``hits``, the
    calls ``factor`` answered from it; and ``counts``, which the scans keep."""

    def __init__(self, rho_budget: int = _RHO_BUDGET, seed: int = 0):
        self.rho_budget = rho_budget
        self.seed = seed
        self.entries: dict[int, Factorization] = {}
        self.new_keys: dict[int, None] = {}   # in insertion order
        self.hits = 0
        self.counts = Counter()

    def lookup(self, value: int):
        """The entry of value, or None."""
        return self.entries.get(value)

    def record(self, fact: Factorization) -> None:
        """Store ``fact``, in place of the entry of its value if there is one."""
        self.entries[fact.value] = fact
        self.new_keys[fact.value] = None


def factor(
    n: int,
    table: FactorCache | None = None,
    trial: bool = False,
    order: int = 1,
    degree: int = 1,
    sign: int = 0,
    disc: int = 0,
) -> Factorization:
    """Factor n >= 1 under the budget and seed of ``table`` (a fresh
    FactorCache when None); the composite leftover (if the budget runs out)
    lands in ``cofactor`` with status PARTIAL.

    The trial phase is everything before the first rho iteration: trial
    division up to 10**6, then the primality test and the perfect-power
    check on what is left; it depends on n alone.  For n the norm of
    Phi_order(v), v a unit of degree ``degree`` and norm ``sign`` in a field
    of discriminant ``disc`` (0 where unknown), trial division tries only the
    primes that can divide n, with the same result (see _trial_divide).
    With ``trial=True`` (or a budget of 0) only it runs, and the result is
    COMPLETE or TRIAL: a TRIAL cofactor is unsearched, its primes all exceed
    10**6, and the listed exponents are exact.  The search (rho, then ECM) starts from the
    same state either way, so a searched result does not depend on whether
    the trial phase ran in an earlier call.

    The table holds COMPLETE and TRIAL results only.  Any entry answers a
    trial-phase call, by what the trial phase alone would give; a COMPLETE
    entry answers every other call too, and a TRIAL entry none.  Each call
    an entry answers adds 1 to ``table.hits``.  A call that searches on a
    TRIAL entry resumes the search on its cofactor, without trial division.
    A call that finds no entry records its trial phase, and a search that
    ends COMPLETE records that in its place; a PARTIAL search records
    nothing, so the TRIAL entry stays."""
    if n < 1:
        raise ValueError(f"cannot factor {n}; factor takes n >= 1")
    table = FactorCache() if table is None else table
    budget = 0 if trial else table.rho_budget
    fact = table.lookup(n)
    if fact is None:
        found: dict[int, int] = {}
        m, mult = _reduce(_trial_divide(n, found, order, degree, sign, disc), 1, found)
        status = Status.TRIAL if m > 1 else Status.COMPLETE
        fact = Factorization(n, tuple(sorted(found.items())), m ** mult, status)
        table.record(fact)
        if status is Status.COMPLETE or budget == 0:
            return fact
    elif fact.status is Status.COMPLETE or budget == 0:
        table.hits += 1
        return fact if budget else _trial_view(fact)
    else:
        found = dict(fact.factors)
        m, mult = _reduce(fact.cofactor, 1, found)
    cofactor = _search(m, mult, found, budget, table.seed) if m > 1 else 1
    status = Status.COMPLETE if cofactor == 1 else Status.PARTIAL
    fact = Factorization(n, tuple(sorted(found.items())), cofactor, status)
    if status is Status.COMPLETE:
        table.record(fact)
    return fact


def merge_factorizations(pieces: list[Factorization]) -> Factorization:
    """The factorization of the product of the positive integers that the
    searched factorizations ``pieces`` factor.  Exponents add.  A prime that
    one piece lists can divide another piece's cofactor, so the listed primes
    are divided out of the product of the cofactors, as at the end of the
    search, and every listed exponent stays exact.  The product is COMPLETE
    only when every piece is, and PARTIAL otherwise."""
    found: dict[int, int] = {}
    value = cofactor = 1
    for piece in pieces:
        value *= piece.value
        cofactor *= piece.cofactor
        for p, e in piece.factors:
            found[p] = found.get(p, 0) + e
    cofactor = _divide_out(found, cofactor)
    complete = all(piece.status is Status.COMPLETE for piece in pieces)
    status = Status.COMPLETE if complete else Status.PARTIAL
    return Factorization(value, tuple(sorted(found.items())), cofactor, status)


# --- ideal splits -----------------------------------------------------------

class IdealSplit(NamedTuple):
    """Prime-ideal valuations of a principal ideal, with the status of the
    norm factorization they come from."""

    entries: tuple[tuple[PrimeIdealAboveP, int], ...]
    status: Status


def ideal_valuations(
    alpha: QuadInt,
    table: FactorCache | None = None,
    trial: bool = False,
    order: int = 1,
    sign: int = 0,
) -> IdealSplit:
    """Factor (alpha) into prime-ideal powers via the norm factorization,
    ``factor(|N(alpha)|, table, trial, order, 2, sign, disc)``, disc that of
    the field of alpha: when alpha is Phi_order(v) for a unit v of norm
    ``sign``, trial division tries only the primes that can divide its norm."""
    if alpha.is_zero():
        raise ValueError("alpha must be nonzero")
    n = alpha.norm()
    if abs(n) == 1:
        return IdealSplit((), Status.COMPLETE)
    return ideal_split(alpha, factor(abs(n), table, trial, order, 2, sign, alpha.field.disc))


def ideal_split(alpha: QuadInt, fact: Factorization) -> IdealSplit:
    """The prime-ideal powers of (alpha) above the primes that ``fact``, a
    factorization of |N(alpha)|, lists, with the status of ``fact``.

    Inert p: valuation is half the norm exponent.  Ramified p: the norm
    exponent itself.  Split p: after the common power p**g of the two
    coordinates, the rest of the exponent goes to the one prime whose
    residue map mod p sends the cofactor to 0.
    """
    entries: list[tuple[PrimeIdealAboveP, int]] = []
    for p, e in fact.factors:
        for P, v in _valuations_above(alpha, p, e):
            if v > 0:
                entries.append((P, v))
    return IdealSplit(tuple(entries), fact.status)


def _valuations_above(alpha: QuadInt, p: int, e: int):
    ideals = split_prime(alpha.field, p)
    if ideals[0].splitting is Splitting.RAMIFIED:
        return [(ideals[0], e)]
    if ideals[0].splitting is Splitting.INERT:
        if e % 2:
            raise ArithmeticError(f"odd norm exponent at inert prime {p}")
        return [(ideals[0], e // 2)]
    # split: alpha = p**g * beta with p not dividing both coordinates of beta.
    # beta lies in at most one of P, P' (their product is pO), and there it
    # has valuation e - 2g; beta is in P when it vanishes under w -> root mod p
    x, y, g = alpha.x, alpha.y, 0
    while x % p == 0 and y % p == 0:
        x, y, g = x // p, y // p, g + 1
    return [(P, g + (e - 2 * g if (x + y * P.hensel_root) % p == 0 else 0)) for P in ideals]
