import math
import random

import pytest
import sympy
from hypothesis import given, strategies as st

from prational.factorint import sieve
from prational.quadfield import (
    QuadInt,
    Splitting,
    excluded_prime_bound,
    make_field,
    minpoly_of,
    pair_pow,
    split_prime,
    sqrt_mod_p,
    unit_pow_mod_p2,
)
from residue_order import multiplicative_order
from ring_ops import add, conj
from unit_search import fundamental_unit_by_norms

# primes p = 1 (mod 2**k) for large k: p - 1 = 2**k * q, the case in which
# Tonelli-Shanks takes up to k steps
TWO_ADIC_PRIMES = [7681, 12289, 40961, 65537, 786433, 167772161, 469762049, 998244353]


def random_primes_below_2_64(count, seed):
    rng = random.Random(seed)
    return [sympy.prevprime(rng.randrange(5, 2 ** 64)) for _ in range(count)]


# discriminant -> class number, standard table values
KNOWN_CLASS_NUMBERS = {2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 10: 2, 13: 1, 15: 2, 26: 2, 79: 3, 82: 4, 85: 2, 229: 3}


def squarefree_ds(limit):
    out = []
    for d in range(2, limit + 1):
        if all(d % (p * p) for p in range(2, int(math.isqrt(d)) + 1)):
            out.append(d)
    return out


def smallest_prime_factors(limit):
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def kronecker_table(D, spf):
    """chi_D(a) = (D/a) for 0 <= a < D, by complete multiplicativity from
    Euler's criterion at odd primes; at 2 an odd D is 1 mod 4, and (D/2) is
    1 when D = 1 mod 8 and -1 when D = 5 mod 8."""
    chi = [0] * D
    chi[1] = 1
    at_prime = {}
    for a in range(2, D):
        p = spf[a]
        if p not in at_prime:
            if D % p == 0:
                at_prime[p] = 0
            elif p == 2:
                at_prime[p] = 1 if D % 8 == 1 else -1
            else:
                at_prime[p] = 1 if pow(D, (p - 1) // 2, p) == 1 else -1
        chi[a] = at_prime[p] * chi[a // p]
    return chi


# --- ideal lattices for the oracle below: (a, b, c) is Z*a + Z*(b + c*w) ---

def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_from_generators(gens):
    """Basis (a, b, c) of the Z-span of the given (x, y) pairs."""
    c, b = 0, 0
    for gx, gy in gens:
        if gy == 0:
            continue
        if c == 0:
            c, b = abs(gy), (gx if gy > 0 else -gx)
        else:
            g, u, v = _xgcd(c, gy)
            b = u * b + v * gx
            c = g
    if c == 0:
        raise ValueError("generators span a rank-1 module")
    a = 0
    for gx, gy in gens:
        a = math.gcd(a, abs(gx - (gy // c) * b))
    if a == 0:
        raise ValueError("degenerate ideal generators")
    return a, b % a, c


def _ideal_mul(F, A, B):
    a1, b1, c1 = A
    a2, b2, c2 = B
    gens = []
    for x1, y1 in ((a1, 0), (b1, c1)):
        for x2, y2 in ((a2, 0), (b2, c2)):
            yy = y1 * y2
            gens.append((x1 * x2 + F.s * yy, x1 * y2 + y1 * x2 + F.t * yy))
    return _hnf_from_generators(gens)


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
        with pytest.raises(ValueError, match="^d = 4 is not squarefree$"):
            make_field(4)

    @pytest.mark.parametrize("d,h", sorted(KNOWN_CLASS_NUMBERS.items()))
    def test_known_class_numbers(self, d, h):
        assert make_field(d).class_number == h

    def test_class_number_matches_the_analytic_formula(self):
        # h * log(eps) = -1/2 * sum_{0<a<D} chi_D(a) * log(sin(pi*a/D)) for
        # every real quadratic field; 331 and 454 are among the fields that
        # a bounded principality search used to refuse
        spf = smallest_prime_factors(4000)
        checked = 0
        for d in squarefree_ds(999):
            F = make_field(d)
            D = F.disc
            chi = kronecker_table(D, spf)
            total = sum(c * math.log(math.sin(math.pi * a / D)) for a, c in enumerate(chi) if c)
            h = -0.5 * total / math.log(F.fundamental_unit.approx())
            assert abs(h - F.class_number) < 1e-6, (d, h, F.class_number)
            checked += 1
        assert checked == 607

    def test_class_number_override(self):
        # up to disc = 10**6 a given h is checked against the computed one
        assert make_field(2, class_number_override=1).class_number == 1
        F = make_field(2, class_number_override=7)
        for _ in range(2):   # an error is not cached: each read raises again
            with pytest.raises(ValueError, match=r"^the class number of Q\(sqrt\(2\)\) is 1, not 7$"):
                F.class_number
        assert make_field(79, class_number_override=3).class_number == 3

    def test_class_number_is_computed_when_first_read(self):
        F = make_field(1000003)   # disc = 4000012, beyond the certified bound
        assert repr(F) == "QuadField(d=1000003, disc=4000012)"
        for _ in range(2):   # an error is not cached: each read raises again
            with pytest.raises(ArithmeticError, match="^disc = 4000012 exceeds the certified class-number bound; "):
                F.class_number
        assert make_field(1000003, class_number_override=3).class_number == 3

    def test_fundamental_unit_matches_a_search_by_norms(self):
        for d in squarefree_ds(1999):
            F = make_field(d, class_number_override=1)
            assert (F.fundamental_unit.x, F.fundamental_unit.y) == fundamental_unit_by_norms(d), d

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
                        v = QuadInt(F, x, y)
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
        assert QuadInt(field2, 5, 3).norm() == 7

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_norm_multiplicative(self, x1, y1, x2, y2):
        F = make_field(5)
        a, b = QuadInt(F, x1, y1), QuadInt(F, x2, y2)
        assert (a * b).norm() == a.norm() * b.norm()

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_conj_and_trace(self, x, y):
        F = make_field(13)
        a = QuadInt(F, x, y)
        assert (a * conj(a)).y == 0
        assert (a * conj(a)).x == a.norm()
        assert add(a, conj(a)).x == a.trace()

    def test_ints_act_on_either_side_of_times_and_the_right_of_plus(self, field2):
        # QuadInt is a tuple: int * u and u + int must not repeat or concatenate
        # it, and an int left of + or -, an element right of them, or a
        # negation, is a TypeError
        u = QuadInt(field2, 1, 1)
        assert 3 * u == u * 3 == QuadInt(field2, 3, 3)
        assert u + 2 == QuadInt(field2, 3, 1) and u - 2 == QuadInt(field2, -1, 1)
        for op in (lambda: 2 + u, lambda: 2 - u, lambda: u + u, lambda: u - u, lambda: -u):
            with pytest.raises(TypeError):
                op()

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

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 17, 41])
    def test_hensel_relation_many_primes(self, d):
        # the split ideals carry exactly the roots of w's minimal polynomial
        # mod p**2, found by brute force; d = 17 and 41 split 2
        F = make_field(d)
        for p in sieve(200):
            if F.disc % p == 0:
                continue
            p2 = p * p
            roots = {r for r in range(p2) if (r * r - F.t * r - F.s) % p2 == 0}
            lifted = {P.hensel_root for P in split_prime(F, p) if P.splitting is Splitting.SPLIT}
            assert lifted == roots

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 94, 101])
    def test_splitting_matches_eulers_criterion(self, d):
        """(disc|p) by Euler's criterion at odd p, and d mod 8 at p = 2,
        decide the kind of every p below 10**4 as split_prime does with the
        Jacobi symbol; the split ideals carry r and t - r mod p**2, in
        increasing order."""
        F = make_field(d)
        for p in sieve(10 ** 4):
            if F.disc % p == 0:
                kind = Splitting.RAMIFIED
            elif p == 2:
                kind = Splitting.SPLIT if d % 8 == 1 else Splitting.INERT
            else:
                kind = Splitting.SPLIT if pow(F.disc, (p - 1) // 2, p) == 1 else Splitting.INERT
            ideals = split_prime(F, p)
            assert [P.splitting for P in ideals] == [kind] * (2 if kind is Splitting.SPLIT else 1), (d, p)
            if kind is Splitting.SPLIT:
                r, r_bar = (P.hensel_root for P in ideals)
                assert r < r_bar and (r + r_bar - F.t) % (p * p) == 0

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 17, 94])
    def test_roots_at_large_primes(self, d):
        """At the primes of TestSqrtModP where p splits, the two ideals carry
        distinct roots r, t - r of w's minimal polynomial mod p**2."""
        F = make_field(d)
        split = 0
        for p in [*TWO_ADIC_PRIMES, *random_primes_below_2_64(200, 64)]:
            ideals = split_prime(F, p)
            if ideals[0].splitting is not Splitting.SPLIT:
                continue
            p2 = p * p
            r, r_bar = (P.hensel_root for P in ideals)
            assert r < r_bar and (r + r_bar - F.t) % p2 == 0
            assert (r * r - F.t * r - F.s) % p2 == 0 and (r - r_bar) % p != 0
            split += 1
        assert split >= 50

    def test_p2_split_for_d_1_mod_8(self):
        F = make_field(17)
        ideals = split_prime(F, 2)
        assert [P.splitting for P in ideals] == [Splitting.SPLIT, Splitting.SPLIT]
        for P in ideals:
            r = P.hensel_root
            assert (r * r - F.t * r - F.s) % 4 == 0


class TestSqrtModP:
    def test_every_residue_of_every_odd_prime_below_2000(self):
        for p in sieve(2000)[1:]:
            for a in {x * x % p for x in range(p)}:
                r = sqrt_mod_p(a, p)
                assert 0 <= r < p and r * r % p == a, (a, p)

    def test_zero_and_negative_arguments(self):
        assert sqrt_mod_p(13 * 4 + 13, 13) == 0
        assert sqrt_mod_p(-4, 13) ** 2 % 13 == 9

    @pytest.mark.parametrize("p", TWO_ADIC_PRIMES)
    def test_primes_with_a_large_power_of_two_in_p_minus_1(self, p):
        rng = random.Random(p)
        for a in [1, p - 1, *(pow(rng.randrange(1, p), 2, p) for _ in range(100))]:
            r = sqrt_mod_p(a, p)
            assert {r, p - r} == set(sympy.sqrt_mod(a, p, all_roots=True)), (a, p)

    def test_random_primes_below_2_64(self):
        rng = random.Random(64)
        for p in random_primes_below_2_64(200, 64):
            a = pow(rng.randrange(1, p), 2, p)
            r = sqrt_mod_p(a, p)
            assert {r, p - r} == set(sympy.sqrt_mod(a, p, all_roots=True)), (a, p)


class TestUnitPowModP2:
    def test_inert_witness(self, field2, eps2):
        (P,) = split_prime(field2, 5)
        assert unit_pow_mod_p2(eps2, 24, P) == (1, 20)

    def test_exponent_zero(self, field2, eps2):
        (P,) = split_prime(field2, 5)
        assert unit_pow_mod_p2(eps2, 0, P) == (1, 0)

    def test_fermat_for_unramified(self, field2, eps2):
        for p in sieve(1000):
            for P in split_prime(field2, p):
                if P.splitting is Splitting.RAMIFIED:
                    continue
                res = unit_pow_mod_p2(eps2, P.norm - 1, P)
                if P.splitting is Splitting.SPLIT:
                    assert res % P.p == 1
                else:
                    assert res[0] % P.p == 1 and res[1] % P.p == 0

    @pytest.mark.parametrize("d", [2, 13])
    def test_pair_pow_matches_quadint_power(self, d):
        F = make_field(d)
        for p in sieve(60):
            if split_prime(F, p)[0].splitting is not Splitting.INERT:
                continue
            p2 = p * p
            for u in (F.fundamental_unit, QuadInt(F, 3, -5)):
                for e in [*range(65), p - 1, p + 1, p2 - 1]:
                    power = u ** e
                    assert pair_pow(u.x, u.y, e, F.t, F.s, p2) == (power.x % p2, power.y % p2)

    def test_ramified_rejected(self, field2, eps2):
        (P,) = split_prime(field2, 2)
        with pytest.raises(ValueError, match="^mod-P\\^2 arithmetic at ramified primes is not supported$"):
            unit_pow_mod_p2(eps2, 3, P)

    def test_split_agrees_with_quotient_ring_reduction(self, field2):
        # oracle: compute u^e in the full ring O/p^2 O, then reduce modulo the
        # lattice of P^2 computed by ideal multiplication
        rng = random.Random(7)
        F = field2
        split_ps = [p for p in sieve(500) if p > 2 and split_prime(F, p)[0].splitting is Splitting.SPLIT]
        for _ in range(100):
            p = rng.choice(split_ps)
            P = rng.choice(split_prime(F, p))
            u = QuadInt(F, rng.randrange(1, 50), rng.randrange(1, 50))
            while math.gcd(u.norm(), p) != 1:
                u = QuadInt(F, rng.randrange(1, 50), rng.randrange(1, 50))
            e = rng.randrange(0, 5000)
            p2 = p * p
            # pair arithmetic in O/p^2 O
            full = u ** e
            pair = (full.x % p2, full.y % p2)
            # P^2 lattice via ideal multiplication of (p, w - r)
            r = P.hensel_root % P.p
            prime_lattice = (p, (-r) % p, 1)
            a, b, c = _ideal_mul(F, prime_lattice, prime_lattice)
            assert a * c == p2

            def reduce_mod_lattice(x, y):
                q = y // c
                return ((x - q * b) % a, y % c)

            via_ring = reduce_mod_lattice(*pair)
            via_embedding = reduce_mod_lattice(unit_pow_mod_p2(u, e, P), 0)
            assert via_ring == via_embedding

    def test_split_roots_give_conjugate_answers(self, field2, eps2):
        for p in (7, 17, 23, 31):
            P, Pbar = split_prime(field2, p)
            for e in (3, 10, p - 1):
                lhs = unit_pow_mod_p2(eps2, e, Pbar)
                rhs = unit_pow_mod_p2(conj(eps2), e, P)
                assert lhs == rhs


class TestMultiplicativeOrder:
    def test_example(self, field2, eps2):
        P = split_prime(field2, 7)[0]
        assert P.hensel_root % P.p == 3
        assert multiplicative_order(eps2, P) == 3

    def test_identity(self, field2):
        P = split_prime(field2, 7)[0]
        assert multiplicative_order(field2.one(), P) == 1

    def test_order_divides_group_order(self, field2, eps2):
        for p in sieve(300):
            for P in split_prime(field2, p):
                if P.splitting is Splitting.RAMIFIED:
                    continue
                assert (P.norm - 1) % multiplicative_order(eps2, P) == 0

    def test_order_invariances(self, field2, eps2):
        inv = conj(eps2) * field2.unit_norm  # eps^-1
        assert (eps2 * inv).x == 1 and (eps2 * inv).y == 0
        for p in (7, 11, 17, 29, 5, 13):
            ideals = split_prime(field2, p)
            for P, Pbar in zip(ideals, reversed(ideals)):   # an inert P is its own conjugate
                o = multiplicative_order(eps2, P)
                assert multiplicative_order(inv, P) == o
                assert multiplicative_order(conj(eps2), Pbar) == o


class TestExcludedPrimeBound:
    def test_values(self):
        assert excluded_prime_bound(make_field(2)) == 3
        assert excluded_prime_bound(make_field(5)) == 5
        assert excluded_prime_bound(make_field(10)) == 5
