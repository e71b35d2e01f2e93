import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from prational import factorint, scans
from prational.factorint import FactorCache, Factorization, Status, factor, ideal_valuations, sieve
from prational.numerics import certify_roots, growth_constants
from prational.polyarith import (
    IntPoly,
    common_root_mod_p,
    cyclotomic,
    discriminant,
    euler_phi,
    hensel_lift,
    power_poly,
    resultant,
)
from prational.quadfield import (
    QuadInt,
    Splitting,
    excluded_prime_bound,
    make_field,
    minpoly_of,
    split_prime,
    unit_pow_mod_p2,
)
from prational.scans import (
    EXCLUDED,
    NON_P_RATIONAL,
    NO_QUALIFYING_PRIME,
    P_RATIONAL,
    REASON_BELOW_P0,
    REASON_CLASS_NUMBER,
    REASON_RAMIFIED,
    REASON_PHI,
    SKIPPED,
    SUCCESS,
    PRationalityVerdict,
    classify_prime,
    count_report,
    count_window,
    generic_unit_scan,
    prationality_scan,
    wieferich_scan,
)
from residue_order import multiplicative_order, residue_is_one
from ring_ops import conj


def residue_mod_p(F, value, P):
    if P.splitting is Splitting.SPLIT:
        return (value.x + value.y * P.hensel_root) % P.p
    return (value.x % P.p, value.y % P.p)


def brute_force_order(F, v, P, n_cap):
    """Order by naive repeated multiplication in the residue field."""
    p = P.p
    if P.splitting is Splitting.SPLIT:
        g = residue_mod_p(F, v, P)
        acc = 1
        for j in range(1, n_cap + 1):
            acc = acc * g % p
            if acc == 1:
                return j
    else:
        acc = F.one()
        for j in range(1, n_cap + 1):
            acc = acc * v
            acc = QuadInt(F, acc.x % p, acc.y % p)
            if (acc.x, acc.y) == (1, 0):
                return j
    return None


@pytest.fixture(scope="module")
def records(field2, eps2, constants2):
    return wieferich_scan(eps2, constants2, 16, FactorCache())


@pytest.fixture(scope="module")
def cubic():
    unit = certify_roots(IntPoly.of(-1, -1, 0, 1))
    return unit, growth_constants(unit)


class TestWieferichScan:

    def test_rows_cover_all_n(self, records):
        assert [r.n for r in records] == list(range(1, 17))

    def test_phi_rows_skipped(self, records):
        for r in records:
            skipped = r.status == SKIPPED and r.reason == REASON_PHI
            assert skipped == (2 * euler_phi(r.n) < r.n)

    def test_n3_success(self, records):
        r = records[2]
        assert r.status == SUCCESS
        assert (r.prime, r.residue_degree, r.ideal_norm, r.root) == (7, 1, 7, 10)
        assert r.cyclo_norm == 49

    def test_success_flags_and_norm_cap(self, records, constants2):
        for r in records:
            assert (r.status == SUCCESS) == (r.prime is not None)
            if r.status != SUCCESS:
                continue
            assert r.reason == ""
            assert r.n % r.prime != 0
            assert Fraction(r.ideal_norm) <= constants2.norm_base ** r.n

    def test_success_reverification(self, field2, eps2, constants2, records):
        v = eps2 ** constants2.power
        for r in records:
            if r.status != SUCCESS:
                continue
            P = _reconstruct_ideal(field2, r)
            # (i) P divides the cyclotomic value, and v^n != 1 mod P^2
            from prational.polyarith import cyclotomic

            value = cyclotomic(r.n).evaluate(v)
            assert _is_zero_mod_p(field2, value, P)
            w = v ** r.n
            assert not _is_one_mod_p2(field2, w, P)
            # (ii) exact order n by brute-force powering
            assert brute_force_order(field2, v, P, r.n) == r.n
            # (iii) the factored order matches
            assert multiplicative_order(v, P) == r.n

    def test_distinct_ideals(self, records):
        chosen = [(r.prime, r.root) for r in records if r.status == SUCCESS]
        assert len(chosen) == len(set(chosen))

    def test_no_qualifying_rows_have_complete_status(self, records):
        for r in records:
            if r.status == NO_QUALIFYING_PRIME:
                assert r.factor_status == "complete"
                assert r.prime is None

    def test_deterministic(self, field2, eps2, constants2, records):
        assert wieferich_scan(eps2, constants2, 16, FactorCache()) == records

    def test_partial_budget_rows_skipped(self, field2, eps2, constants2):
        records = wieferich_scan(eps2, constants2, 53, FactorCache(rho_budget=0))
        assert any(r.reason == "partial_factorization" for r in records)


@pytest.mark.parametrize("d", [2, 3, 5, 13, 94])
def test_cyclotomic_values_are_horners(d):
    """The scan's Phi_n(v), a remainder mod the minimal polynomial of v,
    is Horner's rule on QuadInt."""
    u = make_field(d).fundamental_unit
    for k in (1, 2, 3):
        v = u ** k
        for n in range(1, 121):
            assert scans._cyclotomic_value(n, v) == cyclotomic(n).evaluate(v), (k, n)


@pytest.mark.parametrize("d", [2, 3, 13])
def test_prime_ideals_of_cyclotomic_values_have_order_n(d):
    """The scans rely on this instead of checking it: for p not dividing n,
    x**n - 1 is separable mod p, so v has exact order n modulo every prime
    ideal P over p that divides Phi_n(v), and v mod P is a root of Phi_n
    only.  So v_P(v**n - 1) = v_P(Phi_n(v)), and an unramified P of
    valuation 1 has v**n != 1 mod P**2."""
    F = make_field(d)
    v = F.fundamental_unit ** growth_constants(certify_roots(minpoly_of(F.fundamental_unit))).power
    checked = wieferich_free = 0
    for n in range(1, 31):
        for P, val in ideal_valuations(cyclotomic(n).evaluate(v)).entries:
            if P.splitting is Splitting.RAMIFIED or n % P.p == 0:
                continue
            if val == 1:
                assert not residue_is_one(unit_pow_mod_p2(v, n, P), P)
                wieferich_free += 1
            if P.norm <= 10 ** 15:
                assert multiplicative_order(v, P) == n
                checked += 1
    assert checked >= 30 and wieferich_free >= 30


@pytest.mark.parametrize("coeffs", [(-1, -1, 0, 1), (-1, -1, 1)])
def test_generic_candidates_have_one_root_of_order_n(coeffs):
    """generic_unit_scan relies on this instead of checking it.  Let p divide
    Res(Phi_n, g) exactly once, with p not dividing n * disc(g).  Over Z_p, g
    splits into distinct unramified factors with
    sum_j f_j * v_p(Phi_n(beta_j)) = 1, so exactly one root r of g mod p has
    order n, gcd(g, Phi_n) mod p is x - r, and the lift r2 of r mod p**2 has
    r2**n != 1.  Other roots may have an order m | n, m < n, where p also
    divides Res(Phi_m, g); such p are counted.  The roots of g mod p and
    their orders come from sympy."""
    x = sympy.Symbol("x")
    unit = certify_roots(IntPoly.of(*coeffs))
    g = power_poly(unit.minpoly, growth_constants(unit).power)
    disc_g = discriminant(g)
    g_expr = sum(c * x ** i for i, c in enumerate(g.coeffs))
    checked = lower_order = 0
    for n in range(1, 61):
        for p, e in factor(abs(resultant(cyclotomic(n), g))).complete_factors():
            if e != 1 or n % p == 0 or disc_g % p == 0:
                continue
            _, factors_mod_p = sympy.Poly(g_expr, x, modulus=p).factor_list()
            roots = [int(-f.TC()) % p for f, _ in factors_mod_p if f.degree() == 1]
            orders = [sympy.n_order(r, p) for r in roots]
            of_order_n = [r for r, m in zip(roots, orders) if m == n]
            assert len(of_order_n) == 1, (n, p)
            r = of_order_n[0]
            assert common_root_mod_p(g, cyclotomic(n), p) == r
            assert pow(hensel_lift(g, r, p, 2), n, p * p) != 1
            lower_order += any(m < n and n % m == 0 for m in orders)
            checked += 1
    assert checked >= 40 and lower_order >= 1


def test_cubic_successes_take_the_smallest_prime_the_rule_allows(cubic):
    """Each success row of x**3 - x - 1 for n <= 60 takes the smallest prime
    p with p | Res(Phi_n, g) exactly once, p not dividing n * disc(g) and
    p <= norm_base**n.  The resultant and its primes up to the row's prime,
    with their exact exponents, come from sympy; row 45 takes 271, which
    also divides Res(Phi_15, g)."""
    unit, constants = cubic
    x = sympy.Symbol("x")
    g = power_poly(unit.minpoly, constants.power)
    g_expr = sum(c * x ** i for i, c in enumerate(g.coeffs))
    disc_g = int(sympy.discriminant(g_expr, x))
    rows = {r.n: r for r in generic_unit_scan(unit, constants, 60, FactorCache())}
    successes = [r for r in rows.values() if r.status == SUCCESS]
    for r in successes:
        res = abs(int(sympy.resultant(sympy.cyclotomic_poly(r.n, x), g_expr, x)))
        assert r.cyclo_norm == res
        allowed = [
            p
            for p, e in sympy.factorint(res, limit=r.prime).items()
            if e == 1 and p <= r.prime and sympy.isprime(p) and r.n % p and disc_g % p
            and p <= constants.norm_base ** r.n
        ]
        assert min(allowed) == r.prime, r.n
    assert len(successes) >= 25
    assert (rows[45].prime, rows[45].factor_status) == (271, "sufficient")
    assert rows[15].prime == 271


def _reconstruct_ideal(F, record):
    from prational.quadfield import PrimeIdealAboveP

    if record.residue_degree == 1:
        return PrimeIdealAboveP(record.prime, Splitting.SPLIT, 1, record.prime, record.root)
    return PrimeIdealAboveP(record.prime, Splitting.INERT, 2, record.prime ** 2, None)


def _is_zero_mod_p(F, value, P):
    if P.splitting is Splitting.SPLIT:
        return (value.x + value.y * P.hensel_root) % P.p == 0
    return value.x % P.p == 0 and value.y % P.p == 0


def _is_one_mod_p2(F, value, P):
    p2 = P.p * P.p
    if P.splitting is Splitting.SPLIT:
        return (value.x + value.y * P.hensel_root) % p2 == 1
    return (value.x % p2, value.y % p2) == (1, 0)


class TestCountReport:
    def test_small_x_reports_zeros(self, constants2):
        records = []  # no records needed when the window is empty
        # gamma > 35, so X = 1000 caps the window below n_start
        report = count_report(
            wieferich_scan(make_field(2).fundamental_unit, constants2, 2, FactorCache()),
            constants2,
            1000,
            count_window(constants2, 1000, 2),
        )
        assert report["window_n_stop"] < report["window_n_start"] == constants2.n_start
        assert report["eligible_n"] == 0 and report["successes"] == 0
        assert report["prime_count_lower_bound"] == 0 and report["log_density"] == 0.0

    def test_insufficient_records(self, constants2):
        # refused from the constants alone, before any level is scanned
        X = int(float(constants2.norm_base) ** 10)
        with pytest.raises(ArithmeticError, match=r"^the scan covers n <= 5 but the window needs n <= \d+$"):
            count_window(constants2, X, 5)

    def test_window_edges_exact(self, field2, eps2, constants2):
        records = wieferich_scan(eps2, constants2, 8, FactorCache())
        gamma = constants2.norm_base
        X = int(gamma ** 7) + 1  # gamma**7 <= X < gamma**8
        report = count_report(records, constants2, X, count_window(constants2, X, 8))
        assert report["window_n_stop"] == 7
        assert gamma ** 7 <= X < gamma ** 8


    def test_window_end_matches_brute_force(self, field2, eps2, constants2):
        records = wieferich_scan(eps2, constants2, 40, FactorCache())
        # the field's gamma, and an integer one that X = gamma**k meets exactly
        for constants in (constants2, constants2._replace(norm_base=Fraction(36))):
            gamma = constants.norm_base
            bounds = [1, 2, 35, 36, 10 ** 29, 10 ** 60]
            for k in range(1, 41):
                power = gamma ** k
                bounds += [math.floor(power), math.floor(power) - 1, math.ceil(power), math.ceil(power) + 1]
            for X in bounds:
                n_stop = 0
                while gamma ** (n_stop + 1) <= X:
                    n_stop += 1
                assert count_report(records, constants, X, count_window(constants, X, 40))["window_n_stop"] == n_stop

    def test_huge_bound_is_answered_at_once(self, constants2):
        X = 10 ** 4299
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match=r"^the scan covers n <= 30 but the window needs n <= \d+$") as exc:
            count_window(constants2, X, 30)
        assert time.perf_counter() - start < 0.5
        n_stop = int(str(exc.value).rsplit(" ", 1)[1])
        gamma = constants2.norm_base
        assert gamma ** n_stop <= X < gamma ** (n_stop + 1)


# (d, p0): p0 None is the field's excluded-prime bound
_TWO_IDEAL_CASES = [(d, None) for d in (2, 3, 5, 6, 7, 13, 22, 46, 94, 10009)] + [(401, 3), (577, 3)]

# d -> the non-p-rational primes p < 2*10**4 of Q(sqrt(d)), for the squarefree
# d < 60 that have one
_TRIVIAL_QUOTIENTS = {
    2: [13, 31], 3: [103], 6: [7, 523], 10: [191, 643], 13: [241], 15: [181, 1039, 2917], 19: [79],
    22: [43, 73, 409], 23: [733], 26: [2683, 3967, 18587], 31: [157], 33: [29, 37], 34: [37, 547, 4733],
    35: [23, 577], 37: [89, 257, 631], 39: [37], 41: [53, 7211], 42: [43, 71], 43: [479], 51: [37, 4831],
    55: [571], 57: [59], 58: [4639], 59: [1559],
}


class TestClassifyPrime:
    def test_p5_rational_with_witness(self, field2):
        v = classify_prime(field2, 5)
        assert v.verdict == P_RATIONAL
        assert v.witnesses == ((25, True),)

    def test_p2_excluded(self):
        """2 is ramified when disc is even; otherwise h = 2 excludes it, and
        else the excluded-prime bound, which is at least 3."""
        for d, reason in [(2, REASON_RAMIFIED), (5, REASON_BELOW_P0), (65, REASON_CLASS_NUMBER)]:
            assert classify_prime(make_field(d), 2) == PRationalityVerdict(2, EXCLUDED, reason, ())

    def test_p3_below_bound(self, field2):
        v = classify_prime(field2, 3)
        assert v.verdict == EXCLUDED and v.reason == REASON_BELOW_P0

    def test_ramified_excluded(self):
        F = make_field(5)
        assert classify_prime(F, 5).reason == "ramified"

    @pytest.mark.parametrize("d, p0", _TWO_IDEAL_CASES, ids=[
        str(d) if p0 is None else f"{d}-p0={p0}" for d, p0 in _TWO_IDEAL_CASES
    ])
    def test_matches_the_two_ideal_path(self, d, p0):
        """The classifier run once over a window of primes, in groups, gives
        the verdicts and witnesses of classify_prime at each prime alone and
        of the test at both ideals, with exponent N(P) - 1, for units of both
        norms and for u = +-1, whose quotients are all trivial.  The window
        holds the primes below 2*10**4 and those whose ladder index h straddles
        2**16 and 2**17, where a group ends at the new bit length.  With
        p0 = 3, the excluded primes 5 | h (d = 401) or 7 | h (d = 577) and
        the ramified prime d fall between classified ones."""
        F = make_field(d)
        eps = F.fundamental_unit
        p0 = excluded_prime_bound(F) if p0 is None else p0
        for u in (eps, eps * -1, conj(eps), eps * eps, F.one(), F.one() * -1):
            grouped = list(scans._classifier(F, u, p0)(_WINDOW))
            assert grouped == [classify_prime(F, p, unit=u, p0=p0) for p in _WINDOW]
            assert grouped == [_two_ideal_verdict(F, u, p, p0) for p in _WINDOW]

    @pytest.mark.parametrize("d, primes", [(22, [197]), (46, [31, 157]), (94, [61, 151, 293])])
    def test_primes_dividing_y_of_the_squared_unit(self, d, primes):
        """At p | y(eps**2) the ladder works modulo p**(2+e); these are the
        only such primes in 2*10**4 that are not excluded, all inside the
        test above.  Each also takes every place in a group of four."""
        F = make_field(d)
        eps = F.fundamental_unit
        y = (eps ** 2).y
        p0 = excluded_prime_bound(F)
        window = sieve(2 * 10 ** 4)[1:]
        assert [p for p in window if y % p == 0 and p > p0] == primes
        for p in primes:
            assert classify_prime(F, p, p0=p0) == _two_ideal_verdict(F, eps, p, p0)
            i = window.index(p)
            for start in range(i - 3, i + 1):
                ps = window[start:start + 8]
                assert list(scans._classifier(F, None, p0)(ps)) == [_two_ideal_verdict(F, eps, q, p0) for q in ps]

    @pytest.mark.parametrize("d", sorted(_TRIVIAL_QUOTIENTS))
    def test_trivial_quotients_in_every_place_of_a_group(self, d):
        """Nearly every verdict is p_rational, whatever V_h a ladder reaches,
        so a wrong shared prefix shows at the primes whose quotients are
        trivial.  Each of those takes every place in a group of four, among
        its neighbours in increasing and in shuffled order."""
        F = make_field(d)
        eps = F.fundamental_unit
        p0 = excluded_prime_bound(F)
        window = sieve(2 * 10 ** 4)[1:]
        rng = random.Random(d)
        for p in _TRIVIAL_QUOTIENTS[d]:
            assert _two_ideal_verdict(F, eps, p, p0).verdict == NON_P_RATIONAL
            i = window.index(p)
            for start in range(max(i - 3, 0), i + 1):
                ps = window[start:start + 8]
                for order in (ps, rng.sample(ps, len(ps))):
                    assert list(scans._classifier(F, None, p0)(order)) == [
                        _two_ideal_verdict(F, eps, q, p0) for q in order
                    ]

    @pytest.mark.parametrize("d", [2, 13, 94, 1999])
    def test_large_primes_match_one_at_a_time(self, d):
        """2000 consecutive primes above 10**8 in groups give the verdicts of
        classify_prime one prime at a time, and a sample of 200 those of the
        test at both ideals."""
        F = make_field(d)
        eps = F.fundamental_unit
        p0 = excluded_prime_bound(F)
        window = list(itertools.islice(sympy.primerange(10 ** 8, 2 * 10 ** 8), 2000))
        grouped = list(scans._classifier(F, None, p0)(window))
        assert grouped == [classify_prime(F, p) for p in window]
        for i in random.Random(d).sample(range(len(window)), 200):
            assert grouped[i] == _two_ideal_verdict(F, eps, window[i], p0)

    def test_width_rule_closes_groups(self, monkeypatch):
        """The terms of d = 1999 grow by 266 bits an index, so near 10**8,
        where primes are about 18 apart, the width rule closes groups before
        they are full; the widest offset a group reads is the last whose V_t
        has at most _WIDTH bits, and the verdicts are those of classify_prime one prime at a
        time and of the test at both ideals."""
        F = make_field(1999)
        eps = F.fundamental_unit
        p0 = excluded_prime_bound(F)
        window = list(sympy.primerange(10 ** 8, 10 ** 8 + 20000))
        ladders, reads = 0, []
        lucas_steps, lucas_terms = scans._lucas_steps, scans._lucas_terms

        def counted_steps(*args):
            nonlocal ladders
            ladders += 1
            return lucas_steps(*args)

        def recorded_terms(terms, T, n):
            reads.append(n)
            return lucas_terms(terms, T, n)

        monkeypatch.setattr(scans, "_lucas_steps", counted_steps)
        monkeypatch.setattr(scans, "_lucas_terms", recorded_terms)
        grouped = list(scans._classifier(F, None, p0)(window))
        monkeypatch.undo()
        assert ladders > 1.1 * len(window) / scans._GROUP   # full groups would need 271 ladders
        T = (eps ** 2).trace()
        terms = scans._lucas_terms({0: (2, 0), -1: (T, 4 - T * T)}, T, max(reads) + 1)
        assert terms[max(reads)][0].bit_length() <= scans._WIDTH < terms[max(reads) + 1][0].bit_length()
        assert grouped == [classify_prime(F, p) for p in window]
        for i in random.Random(1999).sample(range(len(window)), 100):
            assert grouped[i] == _two_ideal_verdict(F, eps, window[i], p0)

    @pytest.mark.parametrize("d", [2, 13, 94, 1999])
    @pytest.mark.parametrize("width", [1, 300, 1000])
    def test_narrow_widths_give_the_same_verdicts(self, d, width, monkeypatch):
        """However narrow the table, down to groups of one index, the
        verdicts over the primes below 2*10**4 are those of the test at both
        ideals."""
        F = make_field(d)
        eps = F.fundamental_unit
        p0 = excluded_prime_bound(F)
        window = sieve(2 * 10 ** 4)[1:]
        monkeypatch.setattr(scans, "_WIDTH", width)
        assert list(scans._classifier(F, None, p0)(window)) == [_two_ideal_verdict(F, eps, p, p0) for p in window]

    @pytest.mark.parametrize("d, known", [(2, [13, 31, 1546463]), (5, [])])
    def test_non_p_rational_primes_to_two_million(self, d, known):
        """Q(sqrt(2)) is non-p-rational at 13, 31 and 1546463 alone below
        2*10**6; for Q(sqrt(5)) these would be Wall-Sun-Sun primes, of which
        none is known."""
        verdicts = prationality_scan(make_field(d), 2 * 10 ** 6)
        assert [v.p for v in verdicts if v.verdict == NON_P_RATIONAL] == known

    @pytest.mark.parametrize("d, power", [(2, 1), (13, 1), (10009, 1), (5, 0)])
    def test_verdicts_stream(self, d, power):
        """The classifier reads an endless iterator of primes and gives the
        k-th verdict once it has read at most k + 3 of them (a group holds
        four), through excluded primes, u = 1 and new bit lengths of h."""
        F = make_field(d)
        reads = 0

        def endless_primes():
            nonlocal reads
            for p in itertools.count(3, 2):
                if sympy.isprime(p):
                    reads += 1
                    yield p

        verdicts = scans._classifier(F, F.fundamental_unit ** power, None)(endless_primes())
        for k, p in enumerate(itertools.islice(sympy.primerange(3, 2 * 10 ** 4), 1500), 1):
            assert next(verdicts).p == p
            assert reads <= k + 3

    @pytest.mark.parametrize(
        "d, p, witnesses",
        [(2, 13, ((169, False),)), (2, 31, ((31, False), (31, False))), (13, 241, ((241 ** 2, False),)),
         (94, 73, ((73 ** 2, False),)), (3, 103, ((103 ** 2, False),))],
    )
    def test_known_non_p_rational_primes(self, d, p, witnesses):
        assert classify_prime(make_field(d), p) == PRationalityVerdict(p, NON_P_RATIONAL, "", witnesses)

    @given(
        st.integers(2, 499).filter(lambda d: all(e == 1 for e in sympy.factorint(d).values())),
        st.sampled_from(sieve(5000)[1:]),
        st.sampled_from([1, -1, 2, 3]),
    )
    def test_random_fields_match_the_two_ideal_path(self, d, p, power):
        F = make_field(d)
        u = F.fundamental_unit ** abs(power) * (1 if power > 0 else -1)
        p0 = excluded_prime_bound(F)
        assert classify_prime(F, p, unit=u, p0=p0) == _two_ideal_verdict(F, u, p, p0)


def _lucas_vw(T, n):
    """(V_n, W_n) of trace T, by the recurrence V_j+1 = T*V_j - V_j-1 run
    forward from (V_0, V_1) = (2, T), or backward for n < 0."""
    v0, v1 = 2, T   # (V_j, V_j+1)
    for _ in range(abs(n)):
        v0, v1 = (v1, T * v1 - v0) if n > 0 else (T * v0 - v1, v0)
    return v0, 2 * v1 - T * v0


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(-80, 80), st.integers(-80, 80))
def test_lucas_addition_law(T, m, n):
    """2*W_m+n = W_m*V_n + V_m*W_n exactly, for every trace T and indices of
    either sign, and the classifier's table holds (V_n, W_n) at n."""
    (vm, wm), (vn, wn) = _lucas_vw(T, m), _lucas_vw(T, n)
    assert 2 * _lucas_vw(T, m + n)[1] == wm * vn + vm * wn
    assert scans._lucas_terms({0: (2, 0), -1: (T, 4 - T * T)}, T, abs(n))[n] == (vn, wn)


# the primes below 2*10**4, and those whose ladder index (p -+ 1)/2 straddles
# 2**16 or 2**17
_WINDOW = [
    *sieve(2 * 10 ** 4)[1:],
    *sympy.primerange(2 ** 17 - 600, 2 ** 17 + 600),
    *sympy.primerange(2 ** 18 - 600, 2 ** 18 + 600),
]


def _two_ideal_verdict(F, u, p, p0):
    """The verdict from u**(N(P)-1) mod P**2 at each prime P above p, through
    quadfield.unit_pow_mod_p2."""
    if p <= p0 or F.disc % p == 0 or F.class_number % p == 0:
        reason = (
            REASON_RAMIFIED if F.disc % p == 0
            else REASON_CLASS_NUMBER if F.class_number % p == 0
            else REASON_BELOW_P0
        )
        return PRationalityVerdict(p, EXCLUDED, reason, ())
    witnesses = tuple(
        (P.norm, not residue_is_one(unit_pow_mod_p2(u, P.norm - 1, P), P))
        for P in split_prime(F, p)
    )
    verdict = P_RATIONAL if any(f for _, f in witnesses) else NON_P_RATIONAL
    return PRationalityVerdict(p, verdict, "", witnesses)


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_wieferich_successes_are_p_rational(d):
    """The two headline computations agree.  A success P at level n has
    v**n = 1 + (a unit times a generator of P) mod P**2, and N(P) - 1 = n*m
    with p not dividing m, so v**(N(P)-1) != 1 mod P**2; as v = eps**k, the
    Fermat quotient of eps at P is nontrivial too.  So classify_prime answers
    p_rational, with a true witness at N(P), unless it excludes p."""
    F = make_field(d)
    eps = F.fundamental_unit
    p0 = excluded_prime_bound(F)
    verdicts = Counter()
    for r in wieferich_scan(eps, growth_constants(certify_roots(minpoly_of(eps))), 60, FactorCache()):
        if r.status != SUCCESS:
            continue
        got = classify_prime(F, r.prime, p0=p0)
        assert got.verdict in (P_RATIONAL, EXCLUDED)
        if got.verdict == P_RATIONAL:
            assert (r.ideal_norm, True) in got.witnesses
        verdicts[got.verdict] += 1
    assert verdicts[P_RATIONAL] >= 20

class TestPRationalityScan:
    def test_against_naive_oracle(self, field2, eps2):
        verdicts = prationality_scan(field2, 300)
        p0 = 3
        for v in verdicts:
            p = v.p
            if p == 2 or field2.disc % p == 0 or field2.class_number % p == 0 or p <= p0:
                assert v.verdict == EXCLUDED
                continue
            flags = []
            for P in split_prime(field2, p):
                # full-size powering, reduced only at the end
                w = eps2 ** (P.norm - 1)
                flags.append(not _is_one_mod_p2_naive(field2, w, P))
            expected = P_RATIONAL if any(flags) else NON_P_RATIONAL
            assert v.verdict == expected
            assert [f for _, f in v.witnesses] == flags

    def test_invariance_under_unit_choice(self, field2, eps2):
        base = [(v.p, v.verdict) for v in prationality_scan(field2, 300)]
        inv = conj(eps2) * field2.unit_norm
        for alt in (eps2 * -1, inv, conj(eps2)):
            got = [(v.p, v.verdict) for v in prationality_scan(field2, 300, unit=alt)]
            assert got == base

    def test_empty_below_three(self, field2):
        assert list(prationality_scan(field2, 2)) == []

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 22, 94, 10009])
    def test_one_classifier_matches_a_fresh_one_per_prime(self, d):
        """The scan reuses one classifier, and with it the (disc|p) kept for
        each class of p mod disc (disc = 8, 12, 5, 13, 88, 376, 10009);
        classify_prime builds a fresh one for every p."""
        F = make_field(d)
        assert list(prationality_scan(F, 20000)) == [classify_prime(F, p) for p in sieve(20000)[1:]]

    def test_verdict_is_an_immutable_record(self, field2):
        v = classify_prime(field2, 5)
        assert v == PRationalityVerdict(5, P_RATIONAL, "", ((25, True),))
        assert PRationalityVerdict._fields == ("p", "verdict", "reason", "witnesses")
        with pytest.raises(AttributeError):
            v.verdict = NON_P_RATIONAL


def _is_one_mod_p2_naive(F, w, P):
    p2 = P.p * P.p
    if P.splitting is Splitting.SPLIT:
        # brute-force root of w's minimal polynomial mod p, lifted by scanning
        f = IntPoly.of(-F.s, -F.t, 1)
        r = next(r for r in range(P.p) if f.evaluate(r) % P.p == 0 and (P.hensel_root - r) % P.p == 0)
        r2 = next(r + j * P.p for j in range(P.p) if f.evaluate(r + j * P.p) % p2 == 0)
        return (w.x + w.y * r2) % p2 == 1
    return (w.x % p2, w.y % p2) == (1, 0)


class TestGenericUnitScan:
    def test_records_self_consistent(self, cubic):
        from prational.polyarith import cyclotomic, power_poly

        unit, constants = cubic
        records = generic_unit_scan(unit, constants, 12, FactorCache())
        assert [r.n for r in records] == list(range(1, 13))
        g = power_poly(unit.minpoly, constants.power)
        for r in records:
            if r.status != SUCCESS:
                continue
            p, p2 = r.prime, r.prime ** 2
            assert g.evaluate(r.root) % p2 == 0
            assert pow(r.root, r.n, p2) != 1
            assert pow(r.root % p, r.n, p) == 1
            base = r.root % p
            acc, order = 1, None
            for j in range(1, r.n + 1):
                acc = acc * base % p
                if acc == 1:
                    order = j
                    break
            assert order == r.n
            assert Fraction(p) <= constants.norm_base ** r.n

    def test_quadratic_success_containment(self, field2, eps2, constants2):
        ideal_level = wieferich_scan(eps2, constants2, 14, FactorCache())
        unit = certify_roots(minpoly_of(eps2))
        rational_level = generic_unit_scan(unit, constants2, 14, FactorCache())
        ideal_ns = {r.n for r in ideal_level if r.status == SUCCESS}
        rational_ns = {r.n for r in rational_level if r.status == SUCCESS}
        assert rational_ns <= ideal_ns

    def test_rejects_circle_units(self):
        # the scan's constants come from growth_constants, which refuses a
        # unit with a conjugate on the unit circle before any row is made
        unit = certify_roots(cyclotomic(5))
        with pytest.raises(ValueError, match="has a root on the unit circle"):
            generic_unit_scan(unit, growth_constants(unit), 4, FactorCache())

    def test_deterministic(self, cubic):
        unit, constants = cubic
        first = generic_unit_scan(unit, constants, 10, FactorCache())
        assert generic_unit_scan(unit, constants, 10, FactorCache()) == first


def _complete_factor(n, *_):
    """sympy's complete factorization, in the form factorint.factor returns."""
    return Factorization(n, tuple(sorted(sympy.factorint(n).items())), 1, Status.COMPLETE)


def _decisions(records):
    return [(r.n, r.prime, r.root, r.status) for r in records]


@pytest.mark.parametrize("d, n_max", [(2, 96), (3, 100), (5, 60), (13, 70)])
def test_trial_phase_decides_rows_as_a_complete_factorization(d, n_max, monkeypatch):
    F = make_field(d)
    eps = F.fundamental_unit
    constants = growth_constants(certify_roots(minpoly_of(eps)))
    records = wieferich_scan(eps, constants, n_max, FactorCache())
    assert "sufficient" in {r.factor_status for r in records}
    assert {r.factor_status for r in records} <= {"complete", "sufficient", None}
    monkeypatch.setattr(factorint, "factor", _complete_factor)
    full = wieferich_scan(eps, constants, n_max, FactorCache())
    assert _decisions(records) == _decisions(full)


def test_trial_phase_decides_cubic_rows_as_a_complete_factorization(cubic, monkeypatch):
    unit, constants = cubic
    records = generic_unit_scan(unit, constants, 60, FactorCache())
    assert "sufficient" in {r.factor_status for r in records}
    monkeypatch.setattr(scans, "factor", _complete_factor)
    full = generic_unit_scan(unit, constants, 60, FactorCache())
    assert _decisions(records) == _decisions(full)


def test_open_rows_are_settled_when_no_cofactor_prime_can_qualify():
    gamma = Fraction(100)
    assert gamma ** 3 == factorint._TRIAL_BOUND
    assert scans._settled(Status.TRIAL, False, gamma, 3)
    assert not scans._settled(Status.TRIAL, False, gamma + Fraction(1, 10 ** 9), 3)
    assert scans._settled(Status.TRIAL, True, gamma, 4)
    assert scans._settled(Status.COMPLETE, False, gamma, 4)


def test_records_are_immutable_tuples(field2, eps2, constants2):
    """One value of each of the 11 record types: a tuple whose fields refuse
    assignment and which takes no new attribute."""
    from prational import abcaudit

    rows = wieferich_scan(eps2, constants2, 8, FactorCache())
    unit = certify_roots(minpoly_of(eps2))
    samples = [
        factor(12),
        ideal_valuations(eps2 + 1),
        unit.roots[0],
        unit,
        constants2,
        unit.minpoly,
        eps2,
        split_prime(field2, 7)[0],
        rows[0],
        abcaudit.height(eps2),
        abcaudit.unit_triple(eps2, 3, FactorCache()),
        abcaudit.squarefull_report(eps2, 3, FactorCache())[0],
    ]
    assert len({type(s) for s in samples}) == 11
    for s in samples:
        assert isinstance(s, tuple)
        name = s._fields[0]
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
        with pytest.raises(AttributeError):
            s.extra = 1
