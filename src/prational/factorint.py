"""Integer primality/factorization and squarefree/squarefull ideal splits.

Factoring runs trial division against a sieve, then Brent-cycle Pollard rho
with a fixed seed and an iteration budget.  Giving up is a first-class
outcome: the composite leftover is reported as a ``cofactor`` with status
``PARTIAL`` instead of being mislabeled, and the listed primes keep exact
exponents (none of them divides the cofactor).  A caller that factors many
integers passes one factor table (see cli.FactorCache) as ``cache``, so no
integer is factored twice in one run.  Primality is certified
deterministically below 3.3e24 (fixed Miller-Rabin witness sets) and
probabilistically (64 seeded rounds) above.

The ideal layer splits a principal ideal of a real quadratic field into
prime-ideal powers and separates the squarefree part (valuation exactly 1)
from the squarefull part (valuation >= 2).
"""

from __future__ import annotations

import enum
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
from .polyarith import cyclotomic, hensel_lift, iroot

_TRIAL_BOUND = 10 ** 6
_RHO_BUDGET = 4_000_000

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
    return [i for i, v in enumerate(flags) if v]


# Trial division by the primes below 1000 settles every integer below 1000**2,
# such as d, n and 2*disc*h of a small field, so a run that factors nothing
# larger never builds the sieve up to _TRIAL_BOUND (about 0.09 s); that one is
# built on the first larger integer, once per process.
_SMALL_BOUND = 1000
_SMALL_PRIMES = sieve(_SMALL_BOUND)
_sieve_primes: list[int] | None = None


def _trial_primes(a: int) -> list[int]:
    global _sieve_primes
    if a < _SMALL_BOUND ** 2:
        return _SMALL_PRIMES
    if _sieve_primes is None:
        _sieve_primes = sieve(_TRIAL_BOUND)
    return _sieve_primes


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
    p = 2
    for p in _trial_primes(a):
        if p > trial_bound or p * p > a:
            break
        while a % p == 0:
            a //= p
            found[p] = found.get(p, 0) + 1
    if a > 1 and p * p > a:
        # trial division reached sqrt(a), so the leftover is prime
        found[a] = found.get(a, 0) + 1
        a = 1
    cofactor = 1
    if a > 1:
        rng = random.Random(seed)
        budget = rho_budget
        stack = [a]
        while stack:
            m = stack.pop()
            if is_prime(m, seed=seed):
                found[m] = found.get(m, 0) + 1
                continue
            # powers of a single prime defeat rho's cycle detection cheaply
            reduced = False
            for k in range(2, m.bit_length() + 1):
                r = iroot(m, k)
                if r > 1 and r ** k == m:
                    stack.extend([r] * k)
                    reduced = True
                    break
            if reduced:
                continue
            divisor = None
            while budget > 0 and divisor is None:
                divisor, used = _brent_rho(m, rng, budget)
                budget -= max(used, 1)
            if divisor is None:
                cofactor *= m
                continue
            stack.append(divisor)
            stack.append(m // divisor)
    # a prime split off one branch can still divide a branch rho gave up on
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
    exponent itself.  Split p: the exponent is distributed between the
    two primes by divisibility tests through the Hensel embedding at
    increasing p-power precision.
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
    # split: lift each root to precision p**e and read off the valuation
    out = []
    total = 0
    for P in ideals:
        r = hensel_lift(F.omega_minpoly(), P.root_mod_p(), p, e)
        val_num = (alpha.x + alpha.y * r) % (p ** e)
        if val_num == 0:
            v = e
        else:
            v = 0
            while val_num % p == 0:
                val_num //= p
                v += 1
        v = min(v, e)
        total += v
        out.append((P, v))
    if total != e:
        raise ArithmeticError(f"split valuations at {p} do not add up")
    return out


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


def split_cyclotomic_value(F: QuadField, u: QuadInt, n: int, **factor_opts) -> IdealSplit:
    """Squarefree/squarefull split of the n-th cyclotomic value of u."""
    if not u.is_unit():
        raise ValueError("u must be a unit")
    if n < 1:
        raise ValueError("n must be >= 1")
    value = cyclotomic(n).evaluate(u)
    if isinstance(value, int):
        value = F.element(value, 0)
    if value.is_zero():
        raise ValueError("cyclotomic value vanishes; u is a root of unity")
    return ideal_valuations(F, value, **factor_opts)
