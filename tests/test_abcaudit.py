import math
import random

import pytest

from prational.abcaudit import height, squarefull_report, unit_triple
from prational.factorint import Status, radical_of_ideal, split_unit_power


def small_nonzero_elements(F, count, seed=11):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = F.element(rng.randrange(-30, 31), rng.randrange(-30, 31))
        if not a.is_zero():
            out.append(a)
    return out


class TestProductFormula:
    def test_archimedean_product_equals_norm(self, field2):
        # |N(x)| = product of the two archimedean absolute values, so the
        # finite part -log|N(x)| closes the product formula
        for x in small_nonzero_elements(field2, 50):
            lo, hi = x.embedding_bounds()
            arch_lo = math.log(float(lo[0])) + math.log(float(hi[0]))
            arch_hi = math.log(float(lo[1])) + math.log(float(hi[1]))
            target = math.log(abs(x.norm()))
            assert arch_lo - 1e-9 <= target <= arch_hi + 1e-9
            assert arch_hi - arch_lo < 1e-9


class TestHeight:
    def test_rejects_zero(self, field2):
        with pytest.raises(ValueError):
            height(field2, field2.element(0, 0), field2.one(), field2.one())

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
        conj = height(field2, a.conj(), b.conj(), c.conj()).value
        assert abs(base - conj) < 1e-9

    def test_integral_triple_is_archimedean_only(self, field2, eps2):
        # b = 1 has valuation 0 everywhere, so no finite place contributes
        a = eps2 ** 4 - 1
        c = eps2 ** 4
        h = height(field2, a, field2.one(), c)
        arch = 0.0
        for place in (0, 1):
            best = max(float(x.embedding_bounds()[place][1]) for x in (a, field2.one(), c))
            arch += math.log(best)
        assert abs(h.value - arch) < 1e-6
        assert h.width < 1e-9

    @pytest.mark.parametrize("k", [2, 3, 6, 7])
    def test_common_factor_cancels(self, field2, eps2, k):
        # the height is projective: scaling by k (2 ramified, 3 inert, 7 split
        # in Q(sqrt 2)) adds 2 log k at the real places and takes the same
        # back at the finite places dividing all three norms
        a = eps2 ** 3
        base = height(field2, a, field2.one(), a + 1).value
        kk = field2.element(k, 0)
        assert abs(height(field2, kk * a, kk, kk * (a + 1)).value - base) < 1e-9


class TestUnitTriple:
    def test_n3(self, field2, eps2):
        t = unit_triple(field2, eps2, 3)
        assert t.radical == 14
        assert (t.a.x, t.a.y) == (6, 5)
        assert t.quality is not None and t.quality > 0

    def test_n1(self, field2, eps2):
        t = unit_triple(field2, eps2, 1)
        assert t.radical == 2

    def test_quality_positive(self, field2, eps2):
        for n in range(1, 13):
            t = unit_triple(field2, eps2, n)
            assert t.quality is None or t.quality > 0

    def test_radical_two_routes_agree(self, field2, eps2):
        for n in range(1, 13):
            t = unit_triple(field2, eps2, n)
            assert t.radical == radical_of_ideal(split_unit_power(field2, eps2, n))


class TestSquarefullReport:
    def test_rows(self, field2, eps2):
        rows = squarefull_report(field2, eps2, 12)
        assert [r.n for r in rows] == list(range(1, 13))
        for r in rows:
            assert r.status is Status.COMPLETE
            assert r.squarefree_norm * r.squarefull_norm == r.norm_total
            if r.squarefull_norm == 1:
                assert r.log_share == 0.0
            else:
                assert 0 < r.log_share <= 1

    def test_n3_share_zero(self, field2, eps2):
        rows = squarefull_report(field2, eps2, 3)
        assert rows[2].squarefull_norm == 1
        assert rows[2].log_share == 0.0

    def test_partial_rows_flagged(self, field2):
        # a unit big enough that the norm resists a zero rho budget
        big = field2.fundamental_unit ** 41
        rows = squarefull_report(field2, big, 2, rho_budget=0, trial_bound=100)
        assert any(r.status is Status.PARTIAL for r in rows)
        for r in rows:
            if r.status is Status.PARTIAL:
                assert r.log_share is None
