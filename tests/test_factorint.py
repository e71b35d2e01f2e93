import bisect
import functools
import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from prational import factorint
from prational.abcaudit import unit_triple
from prational.factorint import (
    FactorCache,
    Status,
    factor,
    ideal_valuations,
    is_prime,
    merge_factorizations,
    primes,
    sieve,
)
from prational.polyarith import IntPoly, cyclotomic, hensel_lift, power_poly, resultant
from prational.quadfield import QuadInt, Splitting, make_field, split_prime
from admitted_classes import admitted_classes
from trial_division import PRIMES, SMALL_PRIMES, trial_divide as trial_divide_by_remainders


def norm_parts(split):
    """The products of N(P)**v over the entries of valuation 1 and of
    valuation >= 2: the squarefree and squarefull norms."""
    return (
        math.prod(P.norm for P, v in split.entries if v == 1),
        math.prod(P.norm ** v for P, v in split.entries if v > 1),
    )


def radical(split):
    """Product of N(P) over the prime ideals of the split."""
    return math.prod(P.norm for P, _ in split.entries)


def next_prime_from(n):
    while not is_prime(n):
        n += 1
    return n


# primes above 10**6, which trial division cannot remove
_BIG_PRIMES = [sympy.nextprime(10 ** 6 + 7919 * i) for i in range(12)]


@pytest.mark.parametrize("limits", [range(3001), [3 * 10 ** 5, 10 ** 6]])
def test_sieve_lists_the_primes_up_to_the_limit(limits):
    for limit in limits:
        assert sieve(limit) == list(sympy.primerange(limit + 1)), limit


_SEGMENT = factorint._SEGMENT


@pytest.mark.parametrize(
    "limits",
    [range(3001), [2 * k * _SEGMENT + j for k in (1, 2, 3) for j in range(-2, 3)]],   # segment ends
)
def test_primes_are_the_odd_primes_up_to_the_limit(limits):
    odd = list(sympy.primerange(3, max(limits) + 1))
    for limit in limits:
        assert list(primes(limit)) == odd[: bisect.bisect_right(odd, limit)], limit


def test_primes_refuses_a_base_sieve_of_2_to_the_27_bytes_before_sieving(monkeypatch):
    def record(limit):
        sieved.append(limit)
        return bytearray()

    sieved = []
    monkeypatch.setattr(factorint, "_odd_flags", record)
    for limit in (2 ** 56, 10 ** 40):
        with pytest.raises(ArithmeticError, match=r"^primes up to 2\^56 or more are refused"):
            primes(limit)
    assert sieved == []
    primes(2 ** 56 - 1)
    assert sieved == [2 ** 28 - 1]   # (2**28 - 1 + 1) // 2 = 2**27 bytes


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

    def test_may_be_prime_is_what_the_primes_below_1000_show(self):
        """Below 1000 exactly the primes pass; above, every number with no
        prime factor below 1000 that is not a square, so every prime does."""
        small = sieve(999)
        for n in [*range(-3, 30000), *(q * q for q in sympy.primerange(1000, 3000)), *_BIG_PRIMES]:
            passes = n in small if n < 1000 else all(n % q for q in small) and math.isqrt(n) ** 2 != n
            assert factorint.may_be_prime(n) == passes, n


class TestFactor:
    def test_prime(self):
        f = factor(7)
        assert f.factors == ((7, 1),) and f.status is Status.COMPLETE

    def test_negative(self):
        with pytest.raises(ValueError, match="factor takes n >= 1"):
            factor(-14)

    def test_roundtrip_construction(self):
        n = 2 ** 12 * 3 ** 5 * 1000003
        f = factor(n)
        assert f.factors == ((2, 12), (3, 5), (1000003, 1))
        assert f.status is Status.COMPLETE

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_partial_when_budget_exhausted(self):
        # budget 0 runs the trial phase only, which leaves the cofactor open
        p = next_prime_from(10 ** 9 + 7)
        q = next_prime_from(10 ** 10 + 19)
        for budget, status in [(0, Status.TRIAL), (1, Status.PARTIAL)]:
            f = factor(4 * p * q, FactorCache(rho_budget=budget))
            assert f.status is status
            assert f.cofactor == p * q
            assert f.factors == ((2, 2),)
            assert f.product() == 4 * p * q

    def test_deterministic(self):
        n = next_prime_from(10 ** 8 + 37) * next_prime_from(10 ** 9 + 7) * 6
        assert factor(n, FactorCache(seed=3)) == factor(n, FactorCache(seed=3))

    def test_perfect_power(self):
        p = next_prime_from(10 ** 7 + 9)
        f = factor(p ** 3)
        assert f.factors == ((p, 3),)

    @pytest.mark.parametrize("n", [(1000003 * 1000033) ** 6, 1000003 ** 12])
    def test_composite_exponents_are_taken_a_prime_at_a_time(self, n):
        assert dict(factor(n).factors) == sympy.factorint(n)

    def test_perfect_power_check_tries_prime_exponents_up_to_a_nineteenth_of_the_bits(self, monkeypatch):
        """A wide integer with no prime below 10**6 that is no perfect power
        takes one iroot per prime k <= bits // 19, not one per k <= bits."""
        m = sympy.nextprime(2 ** 1000) * sympy.nextprime(2 ** 1001)
        exponents = []
        real = factorint.iroot
        monkeypatch.setattr(factorint, "iroot", lambda n, k: exponents.append(k) or real(n, k))
        f = factor(m, trial=True)
        assert (f.status, f.cofactor) == (Status.TRIAL, m)
        assert exponents == sieve(m.bit_length() // 19)

    @given(
        st.lists(st.sampled_from(_BIG_PRIMES), min_size=2, max_size=7),
        st.integers(min_value=0, max_value=3000),   # rho needs about sqrt(p) iterations
    )
    def test_partial_exponents_are_exact(self, primes, budget):
        n = math.prod(primes)
        f = factor(n, FactorCache(rho_budget=budget))
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


class TestMergeFactorizations:
    def test_a_listed_prime_is_divided_out_of_another_cofactor(self):
        p = next_prime_from(10 ** 9 + 7)
        q = next_prime_from(10 ** 10 + 19)
        listed = factor(2 * p)                       # p is listed here
        unsplit = factor(p * q, trial=True)          # and hides in this cofactor
        merged = merge_factorizations([listed, unsplit])
        assert merged.factors == ((2, 1), (p, 2))
        assert merged.cofactor == q
        assert merged.status is Status.PARTIAL
        assert merged.value == merged.product() == 2 * p * p * q

    def test_no_pieces_is_one(self):
        assert merge_factorizations([]) == factor(1)

    @given(
        st.lists(
            st.lists(st.sampled_from(_BIG_PRIMES), min_size=1, max_size=4), min_size=1, max_size=4
        ),
        st.integers(min_value=0, max_value=400),
    )
    def test_exponents_are_exact(self, piece_primes, budget):
        pieces = [factor(math.prod(primes), FactorCache(rho_budget=budget)) for primes in piece_primes]
        merged = merge_factorizations(pieces)
        every = [p for primes in piece_primes for p in primes]
        assert merged.value == merged.product() == math.prod(every)
        for p, e in merged.factors:
            assert e == every.count(p)
            assert math.gcd(merged.cofactor, p) == 1
        complete = all(piece.status is Status.COMPLETE for piece in pieces)
        assert merged.status is (Status.COMPLETE if complete else Status.PARTIAL)


# primes on both sides of 1000, where the flags of the integers below 10**6
# end, and the primes just under 10**6, where the sieve ends
_NEAR_1000 = [983, 991, 997, 1009, 1013]
_TOP_PRIMES = PRIMES[-8:]


def _classes(order):
    """The primes below 10**6 not dividing order that can divide the norm of
    Phi_order(v), v a quadratic unit: p = 1 mod order, or 2*(p + 1) = 0 mod
    order.  Keyed by their class mod lcm(6, order)."""
    classes = {}
    for p in PRIMES:
        if order % p and (p % order == 1 or 2 * (p + 1) % order == 0):
            classes.setdefault(p % math.lcm(6, order), []).append(p)
    return classes


_ORDERS = (7, 60, 110)
# the first two and the last two primes of each class, where its walk starts
# and where the sieve ends
_CLASS_EDGES = {n: sorted({p for ps in _classes(n).values() for p in (*ps[:2], *ps[-2:])}) for n in _ORDERS}


class TestTrialDivision:
    def check(self, n, order=1):
        want, got = {}, {}
        assert factorint._trial_divide(n, got, order, 2) == trial_divide_by_remainders(n, want)
        assert got == want
        f = factor(n, order=order, degree=2)
        assert f.status is Status.COMPLETE
        assert dict(f.factors) == sympy.factorint(n)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([2, 3, *_NEAR_1000, *_TOP_PRIMES, *_CLASS_EDGES[110]]), st.integers(1, 3)
            ),
            max_size=4,
        ),
        st.lists(st.sampled_from(_BIG_PRIMES), min_size=1, max_size=3),
    )
    def test_matches_one_remainder_per_prime(self, powers, big):
        self.check(math.prod(p ** e for p, e in powers) * math.prod(big))

    @given(st.data())
    def test_a_class_walk_matches_one_remainder_per_prime(self, data):
        """An integer whose primes below 10**6 all lie in the classes of its
        order, or divide it, gives what one remainder per prime gives."""
        order = data.draw(st.sampled_from(_ORDERS))
        small = st.sampled_from([*sympy.primefactors(order), *_CLASS_EDGES[order]])
        powers = data.draw(st.lists(st.tuples(small, st.integers(1, 3)), max_size=4))
        big = data.draw(st.lists(st.sampled_from(_BIG_PRIMES), min_size=1, max_size=3))
        self.check(math.prod(p ** e for p, e in powers) * math.prod(big), order)

    @pytest.mark.parametrize(
        "q, r, order",
        [(991, 997, 1), (997, 1009, 1), (*_classes(110)[1][500:502], 110), (*PRIMES[-2:], 1)],
        ids=["below-1000", "across-1000", "in-a-class", "top"],
    )
    def test_stops_at_the_square_root(self, q, r, order):
        # the leftover turns prime at q or at r, below 10**6 or above it
        for n in (q * r, q * q, r ** 3, 2 * q * r, q * r * _BIG_PRIMES[0]):
            self.check(n, order)


@functools.cache
def _primorial(top):
    """The product of the primes up to top, by a product tree."""
    xs = [p for p in PRIMES if p <= top]
    while len(xs) > 1:
        xs = [math.prod(xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return xs[0]


def trial_divide_by_gcd(a, found):
    """What trial_divide_by_remainders gives, from the gcd of a with the
    product of the primes it tries: each prime of the gcd with its exponent
    in a, then what is left, which has no prime up to the largest prime p
    tried, so that below p*p it is 1 or prime."""
    top = SMALL_PRIMES[-1] if a < 10 ** 6 else PRIMES[-1]
    for p in sympy.primefactors(math.gcd(a, _primorial(top))):
        found[p] = sympy.multiplicity(p, a)
        a //= p ** found[p]
    if 1 < a < top * top:
        found[a] = 1
        a = 1
    return a


@functools.cache
def _cyclotomic_norms():
    """(n, degree, sign, disc, a): a = |N(Phi_n(v))| for v = u**k, u the
    fundamental unit of Q(sqrt(d)) of discriminant disc, and a =
    |Res(Phi_n, g)| for g the minimal polynomial of v, a cubic unit or its
    square (disc 0), with sign = N(v); then two integers whose leftover is a
    prime in [999983**2, 10**12), which no prime up to 10**6 divides.  N(u)
    is -1 for d = 2, 5, 13, 101 and for x**3 - x + 1."""
    out = []
    for d in (2, 3, 5, 13, 94, 101):
        F = make_field(d)
        for k in (1, 2, 3):
            v = F.fundamental_unit ** k
            out += [(n, 2, v.norm(), F.disc, abs(cyclotomic(n).evaluate(v).norm())) for n in range(1, 121)]
    for f in (
        IntPoly.of(-1, -1, 0, 1),
        IntPoly.of(1, -1, 0, 1),
        IntPoly.of(-1, -2, 1, 1),
        IntPoly.of(-1, -3, 0, 1),
        IntPoly.of(-1, -4, 0, 1),
    ):
        for k in (1, 2):
            g = power_poly(f, k)
            out += [(n, 3, -g.coeffs[0], 0, abs(resultant(cyclotomic(n), g))) for n in range(1, 61)]
    return out + [(110, 2, 1, 8, 12 * sympy.prevprime(10 ** 12)), (7, 3, 1, 0, sympy.nextprime(PRIMES[-1] ** 2))]


class TestAdmittedClasses:
    """_admitted_classes builds the residues of degree 2 directly, and keeps
    the classes of a quadratic character; the oracle tests every residue."""

    def test_degree_2_matches_every_residue(self):
        for order in range(1, 2001):
            for sign in (1, -1):
                for disc in (5, 8, 12, 13, 24, 28, 376):
                    m, classes = factorint._admitted_classes(order, 2, sign, disc)
                    assert (m, tuple(sorted(classes))) == admitted_classes(order, 2, sign, disc), (order, sign, disc)

    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    def test_higher_degrees_match_every_residue(self, degree):
        for order in range(1, 301):
            for sign in (1, -1, 0):
                m, classes = factorint._admitted_classes(order, degree, sign)
                assert (m, tuple(sorted(classes))) == admitted_classes(order, degree, sign), (order, sign)

    def test_the_character_applies_where_disc_divides_lcm_24_n(self):
        assert factorint._admitted_classes(10, 2, -1, 5)[0] == 30
        assert factorint._admitted_classes(12, 2, -1, 5)[0] == 12   # 5 does not divide lcm(24, 12)
        assert factorint._admitted_classes(1, 2, -1, 8) == (24, (1, 7, 17, 23))   # split: p = +-1 mod 8
        assert factorint._admitted_classes(1, 2, 0, 0) == (6, (1, 5))   # every prime


class TestCyclotomicNorms:
    """A prime p not dividing n that divides the norm of Phi_n(v), v a unit
    of degree f, has p**e = 1 mod n for some residue degree e < f, or is
    inert with s = 1 + p + ... + p**(f-1) = 0 mod n when N(v) = 1, and 2*s =
    0 != s mod n when N(v) = -1; at degree 2 it is split, (disc|p) = 1, or
    inert, (disc|p) = -1.  So trial division tries only those primes, and
    those of n, 2 and 3."""

    def test_the_classes_miss_no_prime(self):
        norms = _cyclotomic_norms()
        assert any(a % p == 0 for n, *_, a in norms for p in sympy.primefactors(n) if p >= 5)
        assert {sign for _, _, sign, *_ in norms} == {1, -1}
        # at sign -1 the character applies with disc 8, and with disc 5, 13 and 101 where they divide n
        assert {disc for n, _, sign, disc, _ in norms if sign < 0 and disc and math.lcm(24, n) % disc == 0} == {
            5, 8, 13, 101
        }
        leftovers = []
        for n, degree, sign, disc, a in norms:
            want, got = {}, {}
            leftovers.append(factorint._trial_divide(a, got, n, degree, sign, disc))
            assert leftovers[-1] == trial_divide_by_gcd(a, want), (n, degree, a)
            assert got == want, (n, degree, a)
        assert any(PRIMES[-1] ** 2 <= r < 10 ** 12 for r in leftovers)

    def test_a_sample_matches_every_prime_and_one_remainder_per_prime(self):
        for n, degree, sign, disc, a in [*_cyclotomic_norms()[::31], *_cyclotomic_norms()[-2:]]:
            results = []
            for divide in (
                functools.partial(factorint._trial_divide, order=n, degree=degree, sign=sign, disc=disc),
                functools.partial(factorint._trial_divide, order=n, degree=degree),
                factorint._trial_divide,
                trial_divide_by_remainders,
                trial_divide_by_gcd,
            ):
                found = {}
                results.append((divide(a, found), found))
            assert results[1:] == results[:-1], (n, degree, a)

    def test_factor_matches_sympy_on_a_sample(self):
        sample = [norm for norm in _cyclotomic_norms() if norm[-1] < 10 ** 30][::5]
        for n, degree, sign, disc, a in sample:
            fact = factor(a, order=n, degree=degree, sign=sign, disc=disc)
            assert dict(fact.factors) == sympy.factorint(a), (n, degree, a)


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
        f = factor(n)
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
        f = factor(4 * HARD_P * HARD_Q, FactorCache(rho_budget=budget))
        assert f.status is (Status.TRIAL if budget == 0 else Status.PARTIAL)
        assert f.factors == ((2, 2),) and f.cofactor == HARD_P * HARD_Q
        assert all(kind == "rho" for kind, _ in searched)
        assert (budget == 0) == (searched == [])


class TestTrialPhase:
    """factor(..., trial=True) stops before the first rho iteration."""

    # open after trial division: two primes above the bound, a square of such a
    # product, and the 48-bit factor only ECM finds
    OPEN = [
        12 * 1000003 * 1000033,
        5 * (1000003 * 1000033) ** 3,
        4463 ** 2 * (HARD_P * HARD_Q) ** 2,
    ]

    @pytest.mark.parametrize("n", OPEN)
    def test_open_cofactor_has_only_primes_above_the_bound(self, n):
        f = factor(n, trial=True)
        assert f.status is Status.TRIAL and f.product() == n
        full = sympy.factorint(n)
        assert f.factors == tuple((p, e) for p, e in sorted(full.items()) if p <= factorint._TRIAL_BOUND)
        assert f.cofactor == math.prod(p ** e for p, e in full.items() if p > factorint._TRIAL_BOUND)

    @pytest.mark.parametrize("n", [97 * 1000003, 3 * 1000003 ** 5, 2 ** 40, 10 ** 6 + 3])
    def test_at_most_one_prime_above_the_bound_completes(self, n):
        f = factor(n, trial=True)
        assert f.status is Status.COMPLETE and dict(f.factors) == sympy.factorint(n)

    @pytest.mark.parametrize("n", OPEN)
    @pytest.mark.parametrize("budget", [0, 5000, factorint._RHO_BUDGET])
    def test_table_with_a_trial_entry_answers_like_a_cold_call(self, n, budget):
        table = FactorCache(rho_budget=budget)
        trial = factor(n, table, trial=True)
        assert trial.status is Status.TRIAL and table.entries == {n: trial}
        cold = factor(n, FactorCache(rho_budget=budget))
        assert factor(n, table) == cold
        # a partial search is no entry: the trial entry stays
        assert table.entries == {n: cold if cold.status is Status.COMPLETE else trial}
        # the entry answers the trial phase as the trial phase would
        assert factor(n, table, trial=True) == trial
        # a budget-0 call is answered by the entry; a resumed search is no hit
        assert table.hits == (2 if budget == 0 else 1)


class TestIdealValuations:
    def test_cube_minus_one(self, field2, eps2):
        alpha = eps2 ** 3 - 1
        assert (alpha.x, alpha.y) == (6, 5)
        split = ideal_valuations(alpha)
        assert split.status is Status.COMPLETE
        kinds = sorted((P.p, P.splitting.value, v) for P, v in split.entries)
        assert kinds == [(2, "ramified", 1), (7, "split", 1)]
        assert norm_parts(split) == (14, 1)

    def test_split_rational_prime(self, field2):
        split = ideal_valuations(QuadInt(field2, 7, 0))
        assert sorted(v for _, v in split.entries) == [1, 1]
        assert norm_parts(split) == (49, 1)
        # p and q above the trial bound: the trial phase lists neither, and the
        # split carries its status
        p = next_prime_from(10 ** 9 + 7)
        q = next_prime_from(10 ** 10 + 19)
        assert ideal_valuations(QuadInt(field2, p * q, 0), trial=True) == ((), Status.TRIAL)

    def test_unit_input(self, field2, eps2):
        split = ideal_valuations(eps2)
        assert split == ((), Status.COMPLETE)
        assert norm_parts(split) == (1, 1)

    def test_rejects_zero(self, field2):
        with pytest.raises(ValueError):
            ideal_valuations(QuadInt(field2, 0, 0))

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
                x = -y * hensel_lift(f, P.hensel_root % p, p, k) + p ** k * rng.randrange(-50, 51)
            else:
                x = rng.randrange(-200, 201)
            alpha = QuadInt(F, p ** j * x, p ** j * y)
            got = {Q.hensel_root: v for Q, v in ideal_valuations(alpha).entries if Q.p == p}
            e = sympy.multiplicity(p, abs(alpha.norm()))
            for Q in split_prime(F, p):
                v = 0
                while v < e and (alpha.x + alpha.y * hensel_lift(f, Q.hensel_root % p, p, v + 1)) % p ** (v + 1) == 0:
                    v += 1
                assert got.get(Q.hensel_root, 0) == v, (alpha, Q, v)
                seen_high += v >= 2
            seen_content += j > 0
        assert seen_content >= 100 and seen_high >= 100

    @given(st.integers(-60, 60), st.integers(-60, 60))
    def test_valuation_consistency(self, x, y):
        F = make_field(2)
        alpha = QuadInt(F, x, y)
        if alpha.is_zero():
            return
        split = ideal_valuations(alpha)
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
        assert math.prod(norm_parts(split)) == abs(alpha.norm())


class TestRadical:
    def test_squared_prime_ideal(self, field2):
        # (w - 3)^2 generates the square of one prime above 7
        w = QuadInt(field2, 0, 1)
        alpha = (w - 3) ** 2
        split = ideal_valuations(alpha)
        assert [v for _, v in split.entries] == [2]
        assert radical(split) == 7

    def test_example(self, field2, eps2):
        split = ideal_valuations(eps2 ** 3 - 1)
        assert radical(split) == 14

    @given(st.integers(-40, 40), st.integers(-40, 40))
    def test_radical_divides_norm(self, x, y):
        F = make_field(2)
        alpha = QuadInt(F, x, y)
        if alpha.is_zero() or abs(alpha.norm()) == 1:
            return
        split = ideal_valuations(alpha)
        if split.status is Status.COMPLETE:
            assert abs(alpha.norm()) % radical(split) == 0


class TestUnitPowerSplits:
    def test_n3(self, field2, eps2):
        row = unit_triple(eps2, 3, FactorCache())
        assert (row.squarefree_norm, row.squarefull_norm) == (14, 1)

    def test_n1(self, field2, eps2):
        row = unit_triple(eps2, 1, FactorCache())
        assert (row.squarefree_norm, row.squarefull_norm) == (2, 1)

    def test_conservation(self, field2, eps2):
        for n in range(1, 16):
            row = unit_triple(eps2, n, FactorCache())
            assert row.factor_status == Status.COMPLETE.value
            norm = abs((eps2 ** n - 1).norm())
            assert row.squarefree_norm * row.squarefull_norm == row.norm_total == norm

    def test_norm_product_over_divisors(self, field2, eps2):
        for n in range(1, 61):
            total = abs((eps2 ** n - 1).norm())
            prod = 1
            for d in (d for d in range(1, n + 1) if n % d == 0):
                value = cyclotomic(d).evaluate(eps2)
                prod *= abs(value.norm())
            assert prod == total

    def test_rejects_bad_input(self, field2):
        # u**n = 1 leaves no ideal to split
        with pytest.raises(ValueError):
            ideal_valuations(field2.one() ** 3 - 1)


class TestCyclotomicValueSplits:
    def test_n3(self, field2, eps2):
        value = cyclotomic(3).evaluate(eps2)
        assert (value.x, value.y) == (5, 3)
        assert norm_parts(ideal_valuations(value)) == (7, 1)

    def test_squarefull_part_divides(self, field2, eps2):
        # valuation-wise: wherever the cyclotomic value is squarefull, the
        # unit-power split is at least as squarefull
        def key(P):
            return (P.p, P.splitting.value, P.hensel_root)

        for n in range(1, 25):
            top = {key(P): v for P, v in ideal_valuations(eps2 ** n - 1).entries}
            for P, v in ideal_valuations(cyclotomic(n).evaluate(eps2)).entries:
                if v >= 2:
                    assert top.get(key(P), 0) >= v

    def test_norm_bound_from_constants(self, field2, eps2, constants2):
        v = eps2 ** constants2.power
        m = constants2.degree
        for n in range(1, 41):
            norm = abs((v ** n - 1).norm())
            assert norm <= float(2 ** m * constants2.conj_pow_ub ** (m * n))
