import math
import random
from fractions import Fraction

import pytest
import sympy

from prational import abcaudit
from prational.abcaudit import (
    AbcTriple,
    SquarefullRow,
    height,
    squarefull_report,
    unit_power_factorizations,
    unit_triple,
)
from prational.factorint import FactorCache, Status, ideal_valuations, radical_of_ideal
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
            assert height(F, a, F.one(), c) == archimedean_height(a, F.one(), c), n

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
            assert height(field2, a, field2.one(), c) == archimedean_height(a, field2.one(), c), n


class TestHeight:
    def test_rejects_zero(self, field2):
        with pytest.raises(ValueError):
            height(field2, QuadInt(field2, 0, 0), field2.one(), field2.one())

    def test_permutation_symmetry(self, field2, eps2):
        a = eps2 ** 3 - 1
        b = field2.one()
        c = eps2 ** 3
        base = height(field2, a, b, c).value
        for trio in ((b, a, c), (c, b, a), (a, c, b)):
            assert abs(height(field2, *trio).value - base) < 1e-9

    def test_galois_symmetry(self, field2, eps2):
        a = eps2 ** 5 - 1
        b = field2.one()
        c = eps2 ** 5
        base = height(field2, a, b, c).value
        conjugate = height(field2, conj(a), conj(b), conj(c)).value
        assert abs(base - conjugate) < 1e-9

    def test_integral_triple_is_archimedean_only(self, field2, eps2):
        # b = 1 has valuation 0 everywhere, so no finite place contributes
        a = eps2 ** 4 - 1
        c = eps2 ** 4
        h = height(field2, a, field2.one(), c)
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
                got = height(F, a, F.one(), c).value
                assert abs(got - expected) <= 1e-12 * expected, n

    @pytest.mark.parametrize("k", [2, 3, 6, 7])
    def test_common_factor_cancels(self, field2, eps2, k):
        # the height is projective: scaling by k (2 ramified, 3 inert, 7 split
        # in Q(sqrt 2)) adds 2 log k at the real places and takes the same
        # back at the finite places dividing all three norms
        a = eps2 ** 3
        base = height(field2, a, field2.one(), a + 1).value
        kk = QuadInt(field2, k, 0)
        assert abs(height(field2, kk * a, kk, kk * (a + 1)).value - base) < 1e-9


class TestUnitTriple:
    def test_n3(self, field2, eps2):
        t = unit_triple(field2, eps2, 3, FactorCache())
        assert t.radical == 14
        assert (t.a.x, t.a.y) == (6, 5)
        assert t.quality is not None and t.quality > 0

    def test_n1(self, field2, eps2):
        t = unit_triple(field2, eps2, 1, FactorCache())
        assert t.radical == 2

    def test_quality_positive(self, field2, eps2):
        for n in range(1, 13):
            t = unit_triple(field2, eps2, n, FactorCache())
            assert t.quality is None or t.quality > 0

    def test_radical_two_routes_agree(self, field2, eps2):
        for n in range(1, 13):
            t = unit_triple(field2, eps2, n, FactorCache())
            assert t.radical == radical_of_ideal(ideal_valuations(field2, eps2 ** n - 1))

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 13])
    def test_triples_match_the_whole_norm_route(self, d):
        F = make_field(d)
        u = F.fundamental_unit
        for n in range(1, 25):
            a, c = u ** n - 1, u ** n
            rad = radical_of_ideal(ideal_valuations(F, a))
            h = height(F, a, F.one(), c).value
            quality = h / math.log(rad) if rad > 1 else None
            assert unit_triple(F, u, n, FactorCache()) == AbcTriple(a, F.one(), c, h, rad, quality, n)

    def test_factors_only_the_divisors_of_n(self, monkeypatch):
        """u**n - 1 is the product of the Phi_m(u) with m | n, so no other
        level is factored: d = 94, n = 24 factors 8 norms, not 24."""
        F = make_field(94)
        u = F.fundamental_unit
        calls = []
        real = abcaudit.factor
        monkeypatch.setattr(abcaudit, "factor", lambda m, *args, **kw: calls.append(m) or real(m, *args, **kw))
        t = unit_triple(F, u, 24, FactorCache())
        divisors = [m for m in range(1, 25) if 24 % m == 0]
        norms = [abs(cyclotomic(m).evaluate(u).norm()) for m in divisors]
        assert calls == [norm for norm in norms if norm != 1] and len(calls) == 8
        assert t.radical == radical_of_ideal(ideal_valuations(F, u ** 24 - 1))


def whole_norm_row(F, u, n):
    """The row of level n from |N(u**n - 1)| factored whole; the quality of
    (u**n - 1) + 1 = u**n is its height over the log of its radical."""
    split = ideal_valuations(F, u ** n - 1)
    total = abs(split.element.norm())
    nj = split.squarefull_norm
    if split.status is Status.COMPLETE:
        share = 0.0 if nj == 1 else math.log(nj) / math.log(total)
        rad = radical_of_ideal(split)
        h = height(F, split.element, F.one(), u ** n).value
        quality = h / math.log(rad) if rad > 1 else None
    else:
        share = quality = None
    return SquarefullRow(n, split.squarefree_norm, nj, total, share, quality, split.status)


ORACLE_FIELDS = [2, 3, 5, 6, 7, 13]


class TestSquarefullReport:
    @pytest.mark.parametrize("d", ORACLE_FIELDS)
    def test_rows_match_the_whole_norm_route(self, d):
        F = make_field(d)
        u = F.fundamental_unit
        assert squarefull_report(F, u, 40, FactorCache()) == [whole_norm_row(F, u, n) for n in range(1, 41)]

    @pytest.mark.parametrize("d", ORACLE_FIELDS)
    def test_merged_factorization_is_sympys(self, d):
        u = make_field(d).fundamental_unit
        for n, alpha, fact in unit_power_factorizations(u, range(1, 41), FactorCache()):
            assert alpha == u ** n - 1
            assert fact.value == abs(alpha.norm())
            assert fact.status is Status.COMPLETE
            assert dict(fact.factors) == sympy.factorint(fact.value)


    def test_rows(self, field2, eps2):
        rows = squarefull_report(field2, eps2, 12, FactorCache())
        assert [r.n for r in rows] == list(range(1, 13))
        for r in rows:
            assert r.status is Status.COMPLETE
            assert r.squarefree_norm * r.squarefull_norm == r.norm_total
            if r.squarefull_norm == 1:
                assert r.log_share == 0.0
            else:
                assert 0 < r.log_share <= 1

    def test_n3_share_zero(self, field2, eps2):
        rows = squarefull_report(field2, eps2, 3, FactorCache())
        assert rows[2].squarefull_norm == 1
        assert rows[2].log_share == 0.0

    def test_partial_rows_flagged(self, field2):
        # a unit big enough that the norm resists a zero rho budget
        big = field2.fundamental_unit ** 53
        rows = squarefull_report(field2, big, 2, FactorCache(rho_budget=0))
        assert any(r.status is Status.PARTIAL for r in rows)
        for r in rows:
            if r.status is Status.PARTIAL:
                assert r.log_share is None
        # the merged factorizations keep exact exponents
        for _, _, fact in unit_power_factorizations(big, range(1, 3), FactorCache(rho_budget=0)):
            assert fact.product() == fact.value
            exact = sympy.factorint(fact.value)
            for p, e in fact.factors:
                assert e == exact[p]
                assert fact.cofactor % p != 0
