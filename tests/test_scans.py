import math
from fractions import Fraction

import pytest

from prational.errors import InsufficientRecordsError
from prational.factorint import ideal_valuations, sieve
from prational.numerics import certify_roots, growth_constants
from prational.polyarith import IntPoly, cyclotomic, euler_phi
from prational.quadfield import (
    Splitting,
    make_field,
    minpoly_of,
    multiplicative_order,
    split_prime,
)
from prational.scans import (
    EXCLUDED,
    NON_P_RATIONAL,
    NO_QUALIFYING_PRIME,
    P_RATIONAL,
    REASON_BELOW_P0,
    REASON_GROUP_ORDER,
    REASON_PHI,
    SKIPPED,
    SUCCESS,
    classify_prime,
    count_report,
    generic_unit_scan,
    prationality_scan,
    rational_wieferich_scan,
    wieferich_scan,
)


def residue_mod_p(F, value, P):
    if P.splitting is Splitting.SPLIT:
        return (value.x + value.y * P.root_mod_p()) % P.p
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
            acc = F.element(acc.x % p, acc.y % p)
            if (acc.x, acc.y) == (1, 0):
                return j
    return None


@pytest.fixture(scope="module")
def records(field2, eps2, constants2):
    return wieferich_scan(field2, eps2, constants2, 16)


@pytest.fixture(scope="module")
def cubic():
    unit = certify_roots(IntPoly.of(-1, -1, 0, 1))
    return unit, growth_constants(unit)


class TestWieferichScan:

    def test_rows_cover_all_n(self, records):
        assert [r.n for r in records] == list(range(1, 17))

    def test_phi_rows_skipped(self, records):
        for r in records:
            assert r.phi_ok == (2 * euler_phi(r.n) >= r.n)
            if not r.phi_ok:
                assert r.status == SKIPPED and r.reason == REASON_PHI

    def test_n3_success(self, records):
        r = records[2]
        assert r.status == SUCCESS
        assert (r.prime, r.residue_degree, r.ideal_norm, r.root) == (7, 1, 7, 10)
        assert r.cyclo_norm == 49

    def test_success_flags_and_norm_cap(self, records, constants2):
        for r in records:
            if r.status != SUCCESS:
                continue
            assert r.order_is_n and r.wieferich_ok and r.coprime_to_n and r.phi_ok
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
            assert multiplicative_order(field2, v, P) == r.n

    def test_distinct_ideals(self, records):
        chosen = [(r.prime, r.root) for r in records if r.status == SUCCESS]
        assert len(chosen) == len(set(chosen))

    def test_no_qualifying_rows_have_complete_status(self, records):
        for r in records:
            if r.status == NO_QUALIFYING_PRIME:
                assert r.factor_status == "complete"
                assert r.prime is None

    def test_deterministic(self, field2, eps2, constants2, records):
        assert wieferich_scan(field2, eps2, constants2, 16) == records

    def test_partial_budget_rows_skipped(self, field2, eps2, constants2):
        records = wieferich_scan(field2, eps2, constants2, 16, rho_budget=0, trial_bound=10)
        assert any(r.reason == "partial_factorization" for r in records)


@pytest.mark.parametrize("d", [2, 3, 13])
def test_prime_ideals_of_cyclotomic_values_have_order_n(d):
    """The scans rely on this instead of checking it: for p not dividing n,
    x**n - 1 is separable mod p, so v has exact order n modulo every prime
    ideal P over p that divides Phi_n(v)."""
    F = make_field(d)
    v = F.fundamental_unit ** growth_constants(certify_roots(minpoly_of(F.fundamental_unit))).power
    checked = 0
    for n in range(1, 31):
        for P, _ in ideal_valuations(F, cyclotomic(n).evaluate(v)).entries:
            if P.splitting is Splitting.RAMIFIED or n % P.p == 0 or P.norm > 10 ** 15:
                continue
            assert multiplicative_order(F, v, P) == n
            checked += 1
    assert checked >= 30


def _reconstruct_ideal(F, record):
    from prational.quadfield import PrimeIdealAboveP

    if record.residue_degree == 1:
        return PrimeIdealAboveP(record.prime, Splitting.SPLIT, 1, record.prime, record.root)
    return PrimeIdealAboveP(record.prime, Splitting.INERT, 2, record.prime ** 2, None)


def _is_zero_mod_p(F, value, P):
    if P.splitting is Splitting.SPLIT:
        return (value.x + value.y * P.root_mod_p()) % P.p == 0
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
            [r for r in wieferich_scan(make_field(2), make_field(2).fundamental_unit, constants2, 2)],
            constants2,
            1000,
        )
        assert report.n_stop < constants2.n_start
        assert report.eligible == 0 and report.successes == 0
        assert report.prime_lower_bound == 0 and report.log_density == 0.0

    def test_insufficient_records(self, field2, eps2, constants2):
        records = wieferich_scan(field2, eps2, constants2, 5)
        X = int(float(constants2.norm_base) ** 10)
        with pytest.raises(InsufficientRecordsError):
            count_report(records, constants2, X)

    def test_window_edges_exact(self, field2, eps2, constants2):
        records = wieferich_scan(field2, eps2, constants2, 8)
        gamma = constants2.norm_base
        X = int(gamma ** 7) + 1  # gamma**7 <= X < gamma**8
        report = count_report(records, constants2, X)
        assert report.n_stop == 7
        assert gamma ** report.n_stop <= X < gamma ** (report.n_stop + 1)


class TestClassifyPrime:
    def test_p5_rational_with_witness(self, field2):
        v = classify_prime(field2, 5)
        assert v.verdict == P_RATIONAL
        assert v.witnesses == ((25, True),)

    def test_p2_excluded(self, field2):
        v = classify_prime(field2, 2)
        assert v.verdict == EXCLUDED and v.reason == REASON_GROUP_ORDER

    def test_p3_below_bound(self, field2):
        v = classify_prime(field2, 3)
        assert v.verdict == EXCLUDED and v.reason == REASON_BELOW_P0

    def test_ramified_excluded(self):
        F = make_field(5)
        assert classify_prime(F, 5).reason == "ramified"


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
        inv = eps2.conj() * field2.unit_norm
        for alt in (-eps2, inv, eps2.conj()):
            got = [(v.p, v.verdict) for v in prationality_scan(field2, 300, unit=alt)]
            assert got == base

    def test_empty_below_three(self, field2):
        assert prationality_scan(field2, 2) == []


def _is_one_mod_p2_naive(F, w, P):
    p2 = P.p * P.p
    if P.splitting is Splitting.SPLIT:
        # brute-force root of w's minimal polynomial mod p, lifted by scanning
        f = F.omega_minpoly()
        r = next(r for r in range(P.p) if f.evaluate(r) % P.p == 0 and (P.hensel_root - r) % P.p == 0)
        r2 = next(r + j * P.p for j in range(P.p) if f.evaluate(r + j * P.p) % p2 == 0)
        return (w.x + w.y * r2) % p2 == 1
    return (w.x % p2, w.y % p2) == (1, 0)


class TestRationalWieferich:
    def test_base_two(self):
        assert rational_wieferich_scan(2, 10 ** 4) == [1093, 3511]
        assert rational_wieferich_scan(2, 1000) == []

    def test_divisors_of_alpha_skipped(self):
        # 4 = 2^2 shares its Wieferich primes with 2, and p = 2 is skipped
        assert rational_wieferich_scan(4, 10 ** 4) == [1093, 3511]
        got = rational_wieferich_scan(6, 5000)
        assert 2 not in got and 3 not in got

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rational_wieferich_scan(1, 100)
        with pytest.raises(ValueError):
            rational_wieferich_scan(2, 2)


class TestGenericUnitScan:
    def test_records_self_consistent(self, cubic):
        from prational.polyarith import cyclotomic, power_poly

        unit, constants = cubic
        records = generic_unit_scan(unit, constants, 12)
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
        ideal_level = wieferich_scan(field2, eps2, constants2, 14)
        unit = certify_roots(minpoly_of(eps2))
        rational_level = generic_unit_scan(unit, constants2, 14)
        ideal_ns = {r.n for r in ideal_level if r.status == SUCCESS}
        rational_ns = {r.n for r in rational_level if r.status == SUCCESS}
        assert rational_ns <= ideal_ns

    def test_rejects_circle_units(self, constants2):
        from prational.polyarith import cyclotomic

        with pytest.raises(ValueError):
            generic_unit_scan(certify_roots(cyclotomic(5)), constants2, 4)

    def test_deterministic(self, cubic):
        unit, constants = cubic
        assert generic_unit_scan(unit, constants, 10) == generic_unit_scan(unit, constants, 10)
