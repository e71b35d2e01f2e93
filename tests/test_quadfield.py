import math
import random

import pytest
from hypothesis import given, strategies as st

from prational.errors import NotSquarefreeError, RamifiedUnsupportedError
from prational.factorint import sieve
from prational.quadfield import (
    PrimeIdealAboveP,
    Splitting,
    _ideal_mul,
    excluded_prime_bound,
    make_field,
    minpoly_of,
    multiplicative_order,
    residue_is_one,
    split_prime,
    unit_pow_mod_p2,
)

# discriminant -> class number, standard table values
KNOWN_CLASS_NUMBERS = {2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 10: 2, 13: 1, 15: 2, 26: 2, 79: 3, 82: 4, 85: 2, 229: 3}


def squarefree_ds(limit):
    out = []
    for d in range(2, limit + 1):
        if all(d % (p * p) for p in range(2, int(math.isqrt(d)) + 1)):
            out.append(d)
    return out


class TestMakeField:
    def test_d2(self):
        F = make_field(2)
        assert F.disc == 8
        assert (F.fundamental_unit.x, F.fundamental_unit.y) == (1, 1)
        assert F.unit_norm == -1
        assert F.class_number == 1

    def test_d5(self):
        F = make_field(5)
        assert F.disc == 5
        assert F.omega_half
        assert (F.fundamental_unit.x, F.fundamental_unit.y) == (0, 1)  # (1+sqrt 5)/2
        assert F.unit_norm == -1
        assert F.class_number == 1

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefreeError):
            make_field(4)

    @pytest.mark.parametrize("d,h", sorted(KNOWN_CLASS_NUMBERS.items()))
    def test_known_class_numbers(self, d, h):
        assert make_field(d).class_number == h

    def test_class_number_override(self):
        F = make_field(2, class_number_override=7)
        assert F.class_number == 7

    def test_fundamental_unit_minimality_brute_force(self):
        # no unit 1 < v < eps exists with coordinates up to 1000
        for d in squarefree_ds(100):
            F = make_field(d)
            eps_val = F.fundamental_unit.approx()
            assert eps_val > 1
            best = None
            for y in range(0, 1001):
                base = F.disc * y * y
                for target in (4, -4):
                    d2 = base + target
                    if d2 < 0:
                        continue
                    z = math.isqrt(d2)
                    if z * z != d2:
                        continue
                    for sign in (1, -1):
                        num = -F.t * y + sign * z
                        if num % 2:
                            continue
                        x = num // 2
                        if abs(x) > 1000:
                            continue
                        v = F.element(x, y)
                        if not v.is_unit():
                            continue
                        val = v.approx()
                        if 1 + 1e-9 < val and (best is None or val < best):
                            best = val
            if best is not None:
                assert best > eps_val - 1e-6, (d, best, eps_val)


class TestArithmetic:
    def test_square(self, field2):
        u = field2.fundamental_unit
        assert (u * u).x == 3 and (u * u).y == 2

    def test_norm_example(self, field2):
        assert field2.element(5, 3).norm() == 7

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_norm_multiplicative(self, x1, y1, x2, y2):
        F = make_field(5)
        a, b = F.element(x1, y1), F.element(x2, y2)
        assert (a * b).norm() == a.norm() * b.norm()

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_conj_and_trace(self, x, y):
        F = make_field(13)
        a = F.element(x, y)
        assert (a * a.conj()).y == 0
        assert (a * a.conj()).x == a.norm()
        assert (a + a.conj()).x == a.trace()

    def test_minpoly(self, field2):
        u = field2.fundamental_unit
        f = minpoly_of(u)
        assert f.coeffs == (-1, -2, 1)
        assert minpoly_of(u ** 2).coeffs == (1, -6, 1)


class TestSplitPrime:
    def test_split_7(self, field2):
        ideals = split_prime(field2, 7)
        assert [P.splitting for P in ideals] == [Splitting.SPLIT, Splitting.SPLIT]
        assert sorted(P.hensel_root for P in ideals) == [10, 39]
        for P in ideals:
            assert (P.hensel_root ** 2 - 2) % 49 == 0

    def test_inert_5(self, field2):
        (P,) = split_prime(field2, 5)
        assert P.splitting is Splitting.INERT and P.norm == 25

    def test_ramified_2(self, field2):
        (P,) = split_prime(field2, 2)
        assert P.splitting is Splitting.RAMIFIED

    @pytest.mark.parametrize("d", [2, 5, 13, 17])
    def test_hensel_relation_many_primes(self, d):
        F = make_field(d)
        f = F.omega_minpoly()
        for p in sieve(200):
            for P in split_prime(F, p):
                if P.splitting is Splitting.SPLIT:
                    assert f.evaluate(P.hensel_root) % (p * p) == 0

    def test_p2_split_for_d_1_mod_8(self):
        F = make_field(17)
        ideals = split_prime(F, 2)
        assert [P.splitting for P in ideals] == [Splitting.SPLIT, Splitting.SPLIT]
        f = F.omega_minpoly()
        for P in ideals:
            assert f.evaluate(P.hensel_root) % 4 == 0


class TestUnitPowModP2:
    def test_inert_witness(self, field2, eps2):
        (P,) = split_prime(field2, 5)
        assert unit_pow_mod_p2(field2, eps2, 24, P) == (1, 20)

    def test_exponent_zero(self, field2, eps2):
        (P,) = split_prime(field2, 5)
        assert unit_pow_mod_p2(field2, eps2, 0, P) == (1, 0)

    def test_fermat_for_unramified(self, field2, eps2):
        for p in sieve(1000):
            for P in split_prime(field2, p):
                if P.splitting is Splitting.RAMIFIED:
                    continue
                res = unit_pow_mod_p2(field2, eps2, P.norm - 1, P)
                if P.splitting is Splitting.SPLIT:
                    assert res % P.p == 1
                else:
                    assert res[0] % P.p == 1 and res[1] % P.p == 0

    def test_ramified_rejected(self, field2, eps2):
        (P,) = split_prime(field2, 2)
        with pytest.raises(RamifiedUnsupportedError):
            unit_pow_mod_p2(field2, eps2, 3, P)

    def test_split_agrees_with_quotient_ring_reduction(self, field2):
        # oracle: compute u^e in the full ring O/p^2 O, then reduce modulo the
        # lattice of P^2 computed by ideal multiplication
        rng = random.Random(7)
        F = field2
        split_ps = [p for p in sieve(500) if p > 2 and split_prime(F, p)[0].splitting is Splitting.SPLIT]
        for _ in range(100):
            p = rng.choice(split_ps)
            P = rng.choice(split_prime(F, p))
            u = F.element(rng.randrange(1, 50), rng.randrange(1, 50))
            while math.gcd(u.norm(), p) != 1:
                u = F.element(rng.randrange(1, 50), rng.randrange(1, 50))
            e = rng.randrange(0, 5000)
            p2 = p * p
            # pair arithmetic in O/p^2 O
            full = u ** e
            pair = (full.x % p2, full.y % p2)
            # P^2 lattice via ideal multiplication of (p, w - r)
            r = P.root_mod_p()
            prime_lattice = (p, (-r) % p, 1)
            a, b, c = _ideal_mul(F, prime_lattice, prime_lattice)
            assert a * c == p2

            def reduce_mod_lattice(x, y):
                q = y // c
                return ((x - q * b) % a, y % c)

            via_ring = reduce_mod_lattice(*pair)
            via_embedding = reduce_mod_lattice(unit_pow_mod_p2(F, u, e, P), 0)
            assert via_ring == via_embedding

    def test_split_roots_give_conjugate_answers(self, field2, eps2):
        for p in (7, 17, 23, 31):
            P, Pbar = split_prime(field2, p)
            for e in (3, 10, p - 1):
                lhs = unit_pow_mod_p2(field2, eps2, e, Pbar)
                rhs = unit_pow_mod_p2(field2, eps2.conj(), e, P)
                assert lhs == rhs


class TestMultiplicativeOrder:
    def test_example(self, field2, eps2):
        P = split_prime(field2, 7)[0]
        assert P.root_mod_p() == 3
        assert multiplicative_order(field2, eps2, P) == 3

    def test_identity(self, field2):
        P = split_prime(field2, 7)[0]
        assert multiplicative_order(field2, field2.one(), P) == 1

    def test_order_divides_group_order(self, field2, eps2):
        for p in sieve(300):
            for P in split_prime(field2, p):
                if P.splitting is Splitting.RAMIFIED:
                    continue
                assert (P.norm - 1) % multiplicative_order(field2, eps2, P) == 0

    def test_order_invariances(self, field2, eps2):
        inv = eps2.conj() * field2.unit_norm  # eps^-1
        assert (eps2 * inv).x == 1 and (eps2 * inv).y == 0
        for p in (7, 11, 17, 29, 5, 13):
            for P in split_prime(field2, p):
                if P.splitting is Splitting.RAMIFIED:
                    continue
                o = multiplicative_order(field2, eps2, P)
                assert multiplicative_order(field2, inv, P) == o
                assert multiplicative_order(field2, eps2.conj(), P.conjugate(field2)) == o


class TestExcludedPrimeBound:
    def test_values(self):
        assert excluded_prime_bound(make_field(2)) == 3
        assert excluded_prime_bound(make_field(5)) == 5
        assert excluded_prime_bound(make_field(10)) == 5
