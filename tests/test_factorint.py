import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from prational import factorint
from prational.errors import PartialFactorizationError
from prational.factorint import (
    Status,
    factor,
    ideal_valuations,
    is_prime,
    radical_of_ideal,
    sieve,
    split_unit_power,
)
from prational.polyarith import IntPoly, cyclotomic, divisors, hensel_lift
from prational.quadfield import Splitting, make_field, split_prime
from trial_division import PRIMES, trial_divide as trial_divide_by_remainders


def next_prime_from(n):
    while not is_prime(n):
        n += 1
    return n


class TestIsPrime:
    def test_small_table(self):
        primes_100 = set(sieve(100))
        for n in range(2, 100):
            assert is_prime(n) == (n in primes_100)

    def test_carmichael(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(n)

    def test_large(self):
        assert is_prime(2 ** 89 - 1)                # Mersenne prime
        assert not is_prime(2 ** 67 - 1)            # 193707721 * 761838257287
        assert is_prime(10 ** 18 + 9)


class TestFactor:
    def test_prime(self):
        f = factor(7)
        assert f.factors == ((7, 1),) and f.status is Status.COMPLETE

    def test_negative(self):
        f = factor(-14)
        assert f.sign == -1
        assert f.factors == ((2, 1), (7, 1))
        assert f.product() == -14

    def test_roundtrip_construction(self):
        n = 2 ** 12 * 3 ** 5 * 1000003
        f = factor(n)
        assert f.factors == ((2, 12), (3, 5), (1000003, 1))
        assert f.status is Status.COMPLETE

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_partial_when_budget_exhausted(self):
        p = next_prime_from(10 ** 9 + 7)
        q = next_prime_from(10 ** 10 + 19)
        f = factor(4 * p * q, rho_budget=0)
        assert f.status is Status.PARTIAL
        assert f.cofactor == p * q
        assert f.factors == ((2, 2),)
        assert f.product() == 4 * p * q

    def test_deterministic(self):
        n = next_prime_from(10 ** 8 + 37) * next_prime_from(10 ** 9 + 7) * 6
        assert factor(n, seed=3) == factor(n, seed=3)

    def test_perfect_power(self):
        p = next_prime_from(10 ** 7 + 9)
        f = factor(p ** 3)
        assert f.factors == ((p, 3),)

    @given(
        st.lists(st.sampled_from(sieve(20000)[1000:]), min_size=2, max_size=7),
        st.integers(min_value=0, max_value=300),
    )
    def test_partial_exponents_are_exact(self, primes, budget):
        n = math.prod(primes)
        f = factor(n, trial_bound=10, rho_budget=budget)
        assert f.product() == n
        for p, e in f.factors:
            assert e == primes.count(p)
            assert math.gcd(f.cofactor, p) == 1

    @given(st.integers(min_value=2, max_value=10 ** 12))
    def test_roundtrip_property(self, n):
        f = factor(n)
        assert f.status is Status.COMPLETE
        assert f.product() == n
        for p, _ in f.factors:
            assert is_prime(p)


# primes on both sides of each boundary between trial chunks, the primes just
# under 10**6 (the last chunk), and primes above 10**6 that trial division
# cannot remove
_CHUNK = factorint._TRIAL_CHUNK
_EDGE_PRIMES = [PRIMES[i] for k in range(_CHUNK, len(PRIMES), _CHUNK) for i in (k - 1, k)]
_TOP_PRIMES = PRIMES[-8:]
_BIG_PRIMES = [sympy.nextprime(10 ** 6 + 7919 * i) for i in range(12)]
_TRIAL_BOUNDS = [10, 1000, PRIMES[_CHUNK - 1], PRIMES[_CHUNK], 10 ** 6]


class TestTrialDivision:
    def check(self, n, bound):
        want, got = {}, {}
        assert factorint._trial_divide(n, bound, got) == trial_divide_by_remainders(n, bound, want)
        assert got == want
        f = factor(n, trial_bound=bound)
        assert f.status is Status.COMPLETE
        assert dict(f.factors) == sympy.factorint(n)

    @given(
        st.lists(
            st.tuples(st.sampled_from([2, 3, 997, *_EDGE_PRIMES, *_TOP_PRIMES]), st.integers(1, 3)),
            max_size=4,
        ),
        st.lists(st.sampled_from(_BIG_PRIMES), min_size=1, max_size=3),
        st.sampled_from(_TRIAL_BOUNDS),
    )
    def test_matches_one_remainder_per_prime(self, powers, big, bound):
        self.check(math.prod(p ** e for p, e in powers) * math.prod(big), bound)

    @pytest.mark.parametrize("bound", _TRIAL_BOUNDS)
    @pytest.mark.parametrize("k", [_CHUNK, 40 * _CHUNK, len(PRIMES) - 1])
    def test_stops_at_the_square_root_across_a_boundary(self, k, bound):
        # the leftover turns prime at the last prime of one chunk, at the
        # first of the next, or at the end of the sieve
        q, r = PRIMES[k - 1], PRIMES[k]
        for n in (q * r, q * q, r ** 3, 2 * q * r, q * r * _BIG_PRIMES[0]):
            self.check(n, bound)


def count_searches(monkeypatch):
    """Record the integer of each rho attempt and each ECM curve."""
    searched = []
    real_rho, real_ecm = factorint._brent_rho, factorint._ecm

    def rho(n, *args):
        searched.append(("rho", n))
        return real_rho(n, *args)

    def ecm(n, *args):
        searched.append(("ecm", n))
        return real_ecm(n, *args)

    monkeypatch.setattr(factorint, "_brent_rho", rho)
    monkeypatch.setattr(factorint, "_ecm", ecm)
    return searched


# a semiprime whose smaller prime (48 bits) is beyond a capped rho but found
# by ECM; it is the hard part of the norm of Phi_97(v), v = (1+sqrt(2))**2
HARD_P, HARD_Q = 195418370547079, 7720033903045593593


class TestSearch:
    def test_wieferich_norm_at_97_completes(self, field2, eps2, constants2):
        v = eps2 ** constants2.power
        norm = abs(cyclotomic(97).evaluate(v).norm())
        f = factor(norm)
        assert f.status is Status.COMPLETE
        assert dict(f.factors) == sympy.factorint(norm)
        assert dict(f.factors) == {4463: 2, HARD_P: 2, HARD_Q: 2}

    @settings(max_examples=8)
    @given(st.lists(st.integers(2 ** 30, 2 ** 50), min_size=2, max_size=3))
    def test_products_of_large_primes(self, starts):
        primes = [sympy.nextprime(a) for a in starts]
        n = math.prod(primes)
        f = factor(n, trial_bound=10)
        assert f.product() == n
        if f.status is Status.COMPLETE:
            assert dict(f.factors) == sympy.factorint(n)
        for p, e in f.factors:
            assert e == primes.count(p)
            assert math.gcd(f.cofactor, p) == 1

    def test_square_base_is_searched_once(self, monkeypatch):
        r = HARD_P * HARD_Q
        searched = count_searches(monkeypatch)
        assert factor(r).factors == ((HARD_P, 1), (HARD_Q, 1))
        once = list(searched)
        searched.clear()
        assert factor(4463 ** 2 * r ** 2).factors == ((4463, 2), (HARD_P, 2), (HARD_Q, 2))
        assert searched == once
        assert {n for _, n in once} == {r}
        assert {kind for kind, _ in once} == {"rho", "ecm"}

    @pytest.mark.parametrize("budget", [0, 1, 5000, factorint._ECM_CURVE_COST - 1])
    def test_small_budget_runs_no_curve(self, budget, monkeypatch):
        searched = count_searches(monkeypatch)
        f = factor(4 * HARD_P * HARD_Q, rho_budget=budget)
        assert f.status is Status.PARTIAL
        assert f.factors == ((2, 2),) and f.cofactor == HARD_P * HARD_Q
        assert all(kind == "rho" for kind, _ in searched)
        assert (budget == 0) == (searched == [])


class TestIdealValuations:
    def test_cube_minus_one(self, field2, eps2):
        alpha = eps2 ** 3 - 1
        assert (alpha.x, alpha.y) == (6, 5)
        split = ideal_valuations(field2, alpha)
        assert split.status is Status.COMPLETE
        kinds = sorted((P.p, P.splitting.value, v) for P, v in split.entries)
        assert kinds == [(2, "ramified", 1), (7, "split", 1)]
        assert split.squarefree_norm == 14 and split.squarefull_norm == 1

    def test_split_rational_prime(self, field2):
        split = ideal_valuations(field2, field2.element(7, 0))
        assert sorted(v for _, v in split.entries) == [1, 1]
        assert split.squarefree_norm == 49

    def test_unit_input(self, field2, eps2):
        split = ideal_valuations(field2, eps2)
        assert split.entries == ()
        assert (split.squarefree_norm, split.squarefull_norm) == (1, 1)

    def test_rejects_zero(self, field2):
        with pytest.raises(ValueError):
            ideal_valuations(field2, field2.element(0, 0))

    @pytest.mark.parametrize("d", [2, 5, 17])
    def test_split_valuations_match_membership_in_prime_powers(self, d):
        # oracle: alpha is in P**k exactly when x + y*r_k = 0 mod p**k, where
        # r_k lifts the root of P to p**k; alpha = p**j * (x + y*w) puts p into
        # the content, x = -y*r_k mod p**k puts the cofactor into P**k, and
        # d = 17 splits p = 2
        F = make_field(d)
        f = IntPoly.of(-F.s, -F.t, 1)
        rng = random.Random(d)
        split_ps = [p for p in sieve(40) if split_prime(F, p)[0].splitting is Splitting.SPLIT]
        seen_content = seen_high = 0
        for _ in range(200):
            p = rng.choice(split_ps)
            j, k = rng.randrange(3), rng.randrange(4)
            P = rng.choice(split_prime(F, p))
            y = rng.choice([-1, 1]) * rng.randrange(1, 200)
            if k:
                x = -y * hensel_lift(f, P.root_mod_p(), p, k) + p ** k * rng.randrange(-50, 51)
            else:
                x = rng.randrange(-200, 201)
            alpha = F.element(p ** j * x, p ** j * y)
            got = {Q.hensel_root: v for Q, v in ideal_valuations(F, alpha).entries if Q.p == p}
            e = sympy.multiplicity(p, abs(alpha.norm()))
            for Q in split_prime(F, p):
                v = 0
                while v < e and (alpha.x + alpha.y * hensel_lift(f, Q.root_mod_p(), p, v + 1)) % p ** (v + 1) == 0:
                    v += 1
                assert got.get(Q.hensel_root, 0) == v, (alpha, Q, v)
                seen_high += v >= 2
            seen_content += j > 0
        assert seen_content >= 100 and seen_high >= 100

    @given(st.integers(-60, 60), st.integers(-60, 60))
    def test_valuation_consistency(self, x, y):
        F = make_field(2)
        alpha = F.element(x, y)
        if alpha.is_zero():
            return
        split = ideal_valuations(F, alpha)
        if split.status is not Status.COMPLETE:
            return
        per_prime = {}
        for P, v in split.entries:
            per_prime[P.p] = per_prime.get(P.p, 0) + P.residue_degree * v
        n = abs(alpha.norm())
        for p, e in per_prime.items():
            count = 0
            while n % p == 0:
                n //= p
                count += 1
            assert count == e
        assert n == 1
        assert split.squarefree_norm * split.squarefull_norm == abs(alpha.norm())


class TestRadical:
    def test_squared_prime_ideal(self, field2):
        # (w - 3)^2 generates the square of one prime above 7
        w = field2.element(0, 1)
        alpha = (w - 3) ** 2
        split = ideal_valuations(field2, alpha)
        assert [v for _, v in split.entries] == [2]
        assert radical_of_ideal(split) == 7

    def test_example(self, field2, eps2):
        split = ideal_valuations(field2, eps2 ** 3 - 1)
        assert radical_of_ideal(split) == 14

    def test_partial_raises(self, field2):
        p = next_prime_from(10 ** 9 + 7)
        q = next_prime_from(10 ** 10 + 19)
        alpha = field2.element(p * q, 0)
        split = ideal_valuations(field2, alpha, rho_budget=0)
        assert split.status is Status.PARTIAL
        with pytest.raises(PartialFactorizationError):
            radical_of_ideal(split)

    @given(st.integers(-40, 40), st.integers(-40, 40))
    def test_radical_divides_norm(self, x, y):
        F = make_field(2)
        alpha = F.element(x, y)
        if alpha.is_zero() or abs(alpha.norm()) == 1:
            return
        split = ideal_valuations(F, alpha)
        if split.status is Status.COMPLETE:
            assert abs(alpha.norm()) % radical_of_ideal(split) == 0


class TestUnitPowerSplits:
    def test_n3(self, field2, eps2):
        split = split_unit_power(field2, eps2, 3)
        assert (split.squarefree_norm, split.squarefull_norm) == (14, 1)

    def test_n1(self, field2, eps2):
        split = split_unit_power(field2, eps2, 1)
        assert (split.squarefree_norm, split.squarefull_norm) == (2, 1)

    def test_conservation(self, field2, eps2):
        for n in range(1, 16):
            split = split_unit_power(field2, eps2, n)
            assert split.status is Status.COMPLETE
            norm = abs((eps2 ** n - 1).norm())
            assert split.squarefree_norm * split.squarefull_norm == norm

    def test_norm_product_over_divisors(self, field2, eps2):
        for n in range(1, 61):
            total = abs((eps2 ** n - 1).norm())
            prod = 1
            for d in divisors(n):
                value = cyclotomic(d).evaluate(eps2)
                prod *= abs(value.norm())
            assert prod == total

    def test_rejects_bad_input(self, field2, eps2):
        with pytest.raises(ValueError):
            split_unit_power(field2, field2.element(2, 0), 3)
        with pytest.raises(ValueError):
            split_unit_power(field2, field2.one(), 3)


class TestCyclotomicValueSplits:
    def test_n3(self, field2, eps2):
        split = ideal_valuations(field2, cyclotomic(3).evaluate(eps2))
        value = split.element
        assert (value.x, value.y) == (5, 3)
        assert (split.squarefree_norm, split.squarefull_norm) == (7, 1)

    def test_squarefull_part_divides(self, field2, eps2):
        # valuation-wise: wherever the cyclotomic value is squarefull, the
        # unit-power split is at least as squarefull
        def key(P):
            return (P.p, P.splitting.value, P.hensel_root)

        for n in range(1, 25):
            top = {key(P): v for P, v in split_unit_power(field2, eps2, n).entries}
            for P, v in ideal_valuations(field2, cyclotomic(n).evaluate(eps2)).entries:
                if v >= 2:
                    assert top.get(key(P), 0) >= v

    def test_norm_bound_from_constants(self, field2, eps2, constants2):
        v = eps2 ** constants2.power
        m = constants2.degree
        for n in range(1, 41):
            norm = abs((v ** n - 1).norm())
            assert norm <= float(2 ** m * constants2.conj_pow_ub ** (m * n))
