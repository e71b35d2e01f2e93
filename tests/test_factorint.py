import math

import pytest
from hypothesis import given, strategies as st

from prational.errors import PartialFactorizationError
from prational.factorint import (
    Status,
    factor,
    ideal_valuations,
    is_prime,
    radical_of_ideal,
    sieve,
    split_cyclotomic_value,
    split_unit_power,
)
from prational.polyarith import cyclotomic, divisors
from prational.quadfield import Splitting, make_field


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
        split = split_cyclotomic_value(field2, eps2, 3)
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
            for P, v in split_cyclotomic_value(field2, eps2, n).entries:
                if v >= 2:
                    assert top.get(key(P), 0) >= v

    def test_norm_bound_from_constants(self, field2, eps2, constants2):
        v = eps2 ** constants2.power
        m = constants2.degree
        for n in range(1, 41):
            norm = abs((v ** n - 1).norm())
            assert norm <= float(2 ** m * constants2.conj_pow_ub ** (m * n))
