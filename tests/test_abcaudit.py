import math
import random
from fractions import Fraction

import pytest
import sympy

from prational import abcaudit
from prational.abcaudit import (
    SquarefullRow,
    height,
    squarefull_report,
    unit_power_factorizations,
    unit_triple,
)
from prational.factorint import FactorCache, Status, ideal_valuations
from prational.polyarith import cyclotomic
from prational.quadfield import QuadInt, make_field
from fraction_height import archimedean_height, fraction_embedding_bounds
from ring_ops import conj


def small_nonzero_elements(F, count, seed=11):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = QuadInt(F, rng.randrange(-30, 31), rng.randrange(-30, 31))
        if not a.is_zero():
            out.append(a)
    return out


class TestProductFormula:
    def test_archimedean_product_equals_norm(self, field2):
        # |N(x)| = product of the two archimedean absolute values, so the
        # finite part -log|N(x)| closes the product formula
        scale = 1 << 97   # the bounds are numerators over 2**(bits + 1), bits = 96
        for x in small_nonzero_elements(field2, 50):
            lo, hi = x.embedding_bounds()
            arch_lo = math.log(lo[0] / scale) + math.log(hi[0] / scale)
            arch_hi = math.log(lo[1] / scale) + math.log(hi[1] / scale)
            target = math.log(abs(x.norm()))
            assert arch_lo - 1e-9 <= target <= arch_hi + 1e-9
            assert arch_hi - arch_lo < 1e-9


class TestIntegerBounds:
    """The integer bounds over 2**(bits + 1) and the heights from them equal
    the Fraction route of tests/fraction_height.py exactly."""

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 13, 94])
    def test_bounds_are_the_fraction_bounds(self, d):
        F = make_field(d)
        rng = random.Random(d)
        for _ in range(200):
            x = QuadInt(F, rng.randrange(-10 ** 40, 10 ** 40), rng.randrange(-10 ** 40, 10 ** 40))
            bits = rng.randrange(1, 400)
            got = [(Fraction(lo, 2 << bits), Fraction(hi, 2 << bits)) for lo, hi in x.embedding_bounds(bits)]
            assert got == list(fraction_embedding_bounds(x, bits)), (x, bits)

    # the rows of the abc benchmark commands, and d = 13, where w = (1 + sqrt d)/2
    @pytest.mark.parametrize("d, n_max", [(2, 80), (3, 100), (6, 60), (13, 60)])
    def test_unit_triple_heights_are_the_fraction_routes(self, d, n_max):
        F = make_field(d)
        u = F.fundamental_unit
        for n in range(1, n_max + 1):
            c = u ** n
            a = c - 1
            assert height(a) == archimedean_height(a, F.one(), c), n

    def test_heights_beyond_the_double_range(self, field2, eps2):
        # eps**n > 2**1024 from n = 806 on, where a bound has no float and
        # numerics.ln takes log(numerator) - log(denominator)
        for n in (805, 806, 850, 851):
            c = eps2 ** n
            a = c - 1
            bits = 96 + 2 * max(t.bit_length() for t in (c.x, c.y))
            top = fraction_embedding_bounds(c, bits)[0][1]
            if n > 805:
                with pytest.raises(OverflowError):
                    float(top)
            else:
                assert math.isfinite(float(top))
            assert height(a) == archimedean_height(a, field2.one(), c), n


class TestHeight:
    def test_rejects_zero(self, field2):
        for x in (0, -1):   # a = 0, or c = a + 1 = 0
            with pytest.raises(ValueError):
                height(QuadInt(field2, x, 0))

    def test_galois_symmetry(self, field2, eps2):
        a = eps2 ** 5 - 1
        assert abs(height(a).value - height(conj(a)).value) < 1e-9

    def test_integral_triple_is_archimedean_only(self, field2, eps2):
        # b = 1 has valuation 0 everywhere, so no finite place contributes
        a = eps2 ** 4 - 1
        c = eps2 ** 4
        h = height(a)
        arch = 0.0
        for place in (0, 1):
            best = max(x.embedding_bounds()[place][1] / (1 << 97) for x in (a, field2.one(), c))
            arch += math.log(best)
        assert abs(h.value - arch) < 1e-6
        assert h.width < 1e-9

    @pytest.mark.parametrize("d, n_max", [(2, 80), (3, 100), (6, 60), (94, 48)])
    def test_unit_triples_match_mpmath(self, d, n_max):
        # the rows of abc-quality: at the conjugate place u**n is near
        # 1/|y|, so the bounds on sqrt(d) must grow with y
        import mpmath

        F = make_field(d)
        u = F.fundamental_unit
        with mpmath.workdps(600):
            w = [mpmath.sqrt(d), -mpmath.sqrt(d)]
            if F.omega_half:
                w = [(1 + r) / 2 for r in w]
            for n in range(1, n_max + 1):
                c = u ** n
                a = c - 1
                expected = sum(
                    mpmath.log(max(abs(a.x + a.y * r), 1, abs(c.x + c.y * r))) for r in w
                )
                got = height(a).value
                assert abs(got - expected) <= 1e-12 * expected, n


def radical(a):
    """Product of N(P) over the prime ideals of (a), from |N(a)| factored whole."""
    return math.prod(P.norm for P, _ in ideal_valuations(a).entries)


class TestUnitTriple:
    def test_n3(self, field2, eps2):
        t = unit_triple(eps2, 3, FactorCache())
        assert (eps2 ** 3 - 1) == QuadInt(field2, 6, 5)   # of norm -14 = -2 * 7
        assert t[:5] == (3, 14, 1, 14, 0.0) and t.factor_status == "complete"
        assert t.quality is not None and t.quality > 0

    def test_n1(self, field2, eps2):
        t = unit_triple(eps2, 1, FactorCache())
        assert t.quality == height(eps2 - 1).value / math.log(2)

    def test_quality_positive(self, field2, eps2):
        for n in range(1, 13):
            t = unit_triple(eps2, n, FactorCache())
            assert t.quality is None or t.quality > 0

    def test_radical_two_routes_agree(self, field2, eps2):
        for n in range(1, 13):
            t = unit_triple(eps2, n, FactorCache())
            a = eps2 ** n - 1
            assert t.quality == height(a).value / math.log(radical(a))

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 13])
    def test_triples_match_the_whole_norm_route(self, d):
        u = make_field(d).fundamental_unit
        for n in range(1, 25):
            assert unit_triple(u, n, FactorCache()) == whole_norm_row(u, n)

    def test_factors_only_the_divisors_of_n(self, monkeypatch):
        """u**n - 1 is the product of the Phi_m(u) with m | n, so no other
        level is factored: d = 94, n = 24 factors 8 norms, not 24."""
        u = make_field(94).fundamental_unit
        calls = []
        real = abcaudit.factor
        monkeypatch.setattr(abcaudit, "factor", lambda m, *args, **kw: calls.append(m) or real(m, *args, **kw))
        t = unit_triple(u, 24, FactorCache())
        divisors = [m for m in range(1, 25) if 24 % m == 0]
        norms = [abs(cyclotomic(m).evaluate(u).norm()) for m in divisors]
        assert calls == [norm for norm in norms if norm != 1] and len(calls) == 8
        assert t == whole_norm_row(u, 24)


def whole_norm_row(u, n):
    """The row of level n from |N(u**n - 1)| factored whole; the quality of
    (u**n - 1) + 1 = u**n is its height over the log of its radical."""
    a = u ** n - 1
    split = ideal_valuations(a)
    total = abs(a.norm())
    squarefree = math.prod(P.norm for P, v in split.entries if v == 1)
    nj = math.prod(P.norm ** v for P, v in split.entries if v > 1)
    if split.status is Status.COMPLETE:
        share = 0.0 if nj == 1 else math.log(nj) / math.log(total)
        rad = radical(a)
        quality = height(a).value / math.log(rad) if rad > 1 else None
    else:
        share = quality = None
    return SquarefullRow(n, squarefree, nj, total, share, quality, split.status.value)


ORACLE_FIELDS = [2, 3, 5, 6, 7, 13]


class TestSquarefullReport:
    @pytest.mark.parametrize("d", ORACLE_FIELDS)
    def test_rows_match_the_whole_norm_route(self, d):
        u = make_field(d).fundamental_unit
        assert squarefull_report(u, 40, FactorCache()) == [whole_norm_row(u, n) for n in range(1, 41)]

    @pytest.mark.parametrize("d", ORACLE_FIELDS)
    def test_merged_factorization_is_sympys(self, d):
        u = make_field(d).fundamental_unit
        for n, alpha, fact in unit_power_factorizations(u, range(1, 41), FactorCache()):
            assert alpha == u ** n - 1
            assert fact.value == abs(alpha.norm())
            assert fact.status is Status.COMPLETE
            assert dict(fact.factors) == sympy.factorint(fact.value)


    def test_rows(self, field2, eps2):
        rows = squarefull_report(eps2, 12, FactorCache())
        assert [r.n for r in rows] == list(range(1, 13))
        for r in rows:
            assert r.factor_status == Status.COMPLETE.value
            assert r.squarefree_norm * r.squarefull_norm == r.norm_total
            if r.squarefull_norm == 1:
                assert r.squarefull_log_share == 0.0
            else:
                assert 0 < r.squarefull_log_share <= 1

    def test_n3_share_zero(self, field2, eps2):
        rows = squarefull_report(eps2, 3, FactorCache())
        assert rows[2].squarefull_norm == 1
        assert rows[2].squarefull_log_share == 0.0

    def test_partial_rows_flagged(self, field2):
        # a unit big enough that the norm resists a zero rho budget
        big = field2.fundamental_unit ** 53
        rows = squarefull_report(big, 2, FactorCache(rho_budget=0))
        assert any(r.factor_status == Status.PARTIAL.value for r in rows)
        for r in rows:
            if r.factor_status == Status.PARTIAL.value:
                assert r.squarefull_log_share is None and r.quality is None
        # the merged factorizations keep exact exponents
        for _, _, fact in unit_power_factorizations(big, range(1, 3), FactorCache(rho_budget=0)):
            assert fact.product() == fact.value
            exact = sympy.factorint(fact.value)
            for p, e in fact.factors:
                assert e == exact[p]
                assert fact.cofactor % p != 0
