"""Integer primality/factorization and squarefree/squarefull ideal splits.

Factoring runs three stages: trial division by the primes of a sieve,
skipping each chunk of consecutive primes whose product has gcd 1 with the
integer (after Bernstein, "How to find smooth parts of integers", 2004); on
each composite left over, Brent-cycle Pollard rho capped at _RHO_CAP
iterations (enough for factors up to about 30 bits); then elliptic-curve
(ECM) curves.  Trial division still divides the primes out in increasing
order and stops where one ``%`` per prime would, so rho and ECM get the
composite that loop would leave, and every result is unchanged.
One budget, ``rho_budget``, counted in rho iterations, covers both searches:
each curve is charged _ECM_CURVE_COST, about its time in rho iterations, and
runs only while that much budget is left, so ``rho_budget=0`` means trial
division only.  The random starts come from one generator seeded with
``seed``.  A perfect power r**k is factored through r, once.  Giving up is a
first-class outcome: the composite leftover is reported as a ``cofactor``
with status ``PARTIAL`` instead of being mislabeled, and the listed primes
keep exact exponents (none of them divides the cofactor).  A caller that
factors many integers passes one factor table (see cli.FactorCache) as
``cache``, so no integer is factored twice in one run.  Primality is
certified deterministically below 3.3e24 (fixed Miller-Rabin witness sets)
and probabilistically (64 seeded rounds) above.

The ideal layer splits a principal ideal of a real quadratic field into
prime-ideal powers and separates the squarefree part (valuation exactly 1)
from the squarefull part (valuation >= 2).
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import random
from dataclasses import dataclass

from .errors import PartialFactorizationError
from .quadfield import (
    PrimeIdealAboveP,
    QuadField,
    QuadInt,
    Splitting,
    split_prime,
)
from .polyarith import iroot

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


def sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * len(range(start, limit + 1, p))
    return list(itertools.compress(range(limit + 1), flags))


# Trial division by the primes below 1000 settles every integer below 1000**2,
# such as d, n and 2*disc*h of a small field, so a run that factors nothing
# larger never builds the sieve up to _TRIAL_BOUND and its chunk table (about
# 0.05 s together); both are built on the first larger integer, once per
# process, and the sieve also gives ECM its stage-2 primes.  Trial division of
# the 331 integers >= 10^6 that the abc-quality and scan-wieferich benchmark
# commands factor, with the table's build, took 0.38 s at 128 primes per
# chunk, 0.26 s at 256, 0.27 s at 512 and 0.33 s at 1024, against 2.0 s for
# one `%` per prime (2-core x86_64 host).
_SMALL_BOUND = 1000
_TRIAL_CHUNK = 256
_SMALL_PRIMES = sieve(_SMALL_BOUND)
_SMALL_CHUNKS = [(_SMALL_PRIMES, math.prod(_SMALL_PRIMES))]
_sieve_primes: list[int] | None = None
_large_chunks: list[tuple[list[int], int]] = []


def _large_sieve() -> list[int]:
    global _sieve_primes, _large_chunks
    if _sieve_primes is None:
        _sieve_primes = sieve(_TRIAL_BOUND)
        starts = range(0, len(_sieve_primes), _TRIAL_CHUNK)
        runs = (_sieve_primes[i : i + _TRIAL_CHUNK] for i in starts)
        _large_chunks = [(run, math.prod(run)) for run in runs]
    return _sieve_primes


def _trial_divide(a: int, trial_bound: int, found: dict[int, int]) -> int:
    """Divide the primes p <= trial_bound out of a, in increasing order, into
    ``found``, stopping at the first p with p*p above what is left; return
    what is left, or 1 when that is prime (and then in ``found``)."""
    if a < _SMALL_BOUND ** 2:
        chunks = _SMALL_CHUNKS
    else:
        _large_sieve()
        chunks = _large_chunks
    p = 2
    for primes, product in chunks:
        # no stop falls inside a chunk whose last prime is within both bounds
        last = primes[-1]
        if last <= trial_bound and last * last <= a and math.gcd(product, a) == 1:
            continue
        for p in primes:
            if p > trial_bound or p * p > a:
                break
            while a % p == 0:
                a //= p
                found[p] = found.get(p, 0) + 1
        else:
            continue
        break
    if a > 1 and p * p > a:
        # trial division reached sqrt(a), so the leftover is prime
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


def is_prime(n: int, seed: int = 0) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < _MR_DETERMINISTIC_BOUND:
        bases = _MR_BASES
    else:
        rng = random.Random((seed << 16) ^ (n & 0xFFFFFFFF))
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
    PARTIAL = "partial"


@dataclass(frozen=True)
class Factorization:
    """value = sign * cofactor * prod(p**e); cofactor 1 when complete."""

    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int
    status: Status

    def complete_factors(self) -> tuple[tuple[int, int], ...]:
        if self.status is not Status.COMPLETE:
            raise PartialFactorizationError(f"cannot completely factor {self.value}")
        return self.factors

    def product(self) -> int:
        out = self.sign * self.cofactor
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
                q = q * abs(x - y) % n
            used += min(m, r - k)
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # backtrack one step at a time
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
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
    primes = _large_sieve()
    lo = bisect.bisect_right(primes, _ECM_B1)
    hi = bisect.bisect_right(primes, _ECM_B2)
    for p in itertools.islice(primes, lo, hi):
        while mD + half < p:
            prev, cur, mD = cur, _x_add(cur, G, prev, n), mD + _ECM_D
            xm, zm = cur
        xj, zj = baby[abs(p - mD)]
        acc = acc * (xm * zj - xj * zm) % n
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


def factor(
    n: int,
    trial_bound: int = _TRIAL_BOUND,
    rho_budget: int = _RHO_BUDGET,
    seed: int = 0,
    cache=None,
) -> Factorization:
    """Factor n; sign is tracked separately and the composite leftover (if the
    budget runs out) lands in ``cofactor`` with status PARTIAL.

    ``cache`` is a factor table with ``lookup`` and ``record`` (see
    cli.FactorCache): answered from it when it holds |n|, recorded in it
    otherwise."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    a = abs(n)
    if cache is not None:
        hit = cache.lookup(a)
        if hit is not None:
            factors, cofactor = hit
            status = Status.COMPLETE if cofactor == 1 else Status.PARTIAL
            return Factorization(n, sign, factors, cofactor, status)
    found: dict[int, int] = {}
    a = _trial_divide(a, trial_bound, found)
    cofactor = 1
    if a > 1:
        rng = random.Random(seed)
        budget = rho_budget
        stack = [(a, 1)]   # (composite or prime, multiplicity in a)
        while stack:
            m, mult = stack.pop()
            if is_prime(m, seed=seed):
                found[m] = found.get(m, 0) + mult
                continue
            # a perfect power r**k is factored through r, once; this also
            # spares rho the powers of one prime, where it cannot find a cycle
            reduced = False
            for k in range(2, m.bit_length() + 1):
                r = iroot(m, k)
                if r > 1 and r ** k == m:
                    stack.append((r, mult * k))
                    reduced = True
                    break
            if reduced:
                continue
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
            stack.append((divisor, mult))
            stack.append((m // divisor, mult))
    # a prime split off one branch can still divide a branch the search gave up on
    for p in found:
        while cofactor % p == 0:
            cofactor //= p
            found[p] += 1
    factors = tuple(sorted(found.items()))
    status = Status.COMPLETE if cofactor == 1 else Status.PARTIAL
    result = Factorization(n, sign, factors, cofactor, status)
    if cache is not None:
        cache.record(abs(n), factors, cofactor)
    return result


# --- ideal splits -----------------------------------------------------------

@dataclass(frozen=True)
class IdealSplit:
    """Prime-ideal valuations of a principal ideal (element), with the norms of
    its squarefree (valuation 1) and squarefull (valuation >= 2) parts."""

    element: QuadInt
    entries: tuple[tuple[PrimeIdealAboveP, int], ...]
    squarefree_norm: int
    squarefull_norm: int
    status: Status


def ideal_valuations(F: QuadField, alpha: QuadInt, **factor_opts) -> IdealSplit:
    """Factor (alpha) into prime-ideal powers via the norm factorization.

    Inert p: valuation is half the norm exponent.  Ramified p: the norm
    exponent itself.  Split p: after the common power p**g of the two
    coordinates, the rest of the exponent goes to the one prime whose
    residue map mod p sends the cofactor to 0.
    """
    if alpha.is_zero():
        raise ValueError("alpha must be nonzero")
    n = alpha.norm()
    if abs(n) == 1:
        return IdealSplit(alpha, (), 1, 1, Status.COMPLETE)
    fact = factor(abs(n), **factor_opts)
    entries: list[tuple[PrimeIdealAboveP, int]] = []
    for p, e in fact.factors:
        for P, v in _valuations_above(F, alpha, p, e):
            if v > 0:
                entries.append((P, v))
    squarefree = 1
    squarefull = 1
    for P, v in entries:
        if v == 1:
            squarefree *= P.norm
        else:
            squarefull *= P.norm ** v
    return IdealSplit(alpha, tuple(entries), squarefree, squarefull, fact.status)


def _valuations_above(F: QuadField, alpha: QuadInt, p: int, e: int):
    ideals = split_prime(F, p)
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
    return [(P, g + (e - 2 * g if (x + y * P.root_mod_p()) % p == 0 else 0)) for P in ideals]


def radical_of_ideal(split: IdealSplit) -> int:
    """Product of N(P) over the distinct prime ideals dividing the element."""
    if split.status is not Status.COMPLETE:
        raise PartialFactorizationError("radical needs a complete factorization")
    out = 1
    for P, _ in split.entries:
        out *= P.norm
    return out


def split_unit_power(F: QuadField, u: QuadInt, n: int, **factor_opts) -> IdealSplit:
    """Squarefree/squarefull split of (u**n - 1) for a unit u."""
    if not u.is_unit():
        raise ValueError("u must be a unit")
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = u ** n - 1
    if alpha.is_zero():
        raise ValueError("u**n = 1; the split is undefined")
    return ideal_valuations(F, alpha, **factor_opts)
