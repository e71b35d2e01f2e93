import math
from fractions import Fraction

import pytest

from prational.errors import NonConvergenceError, NotAUnitError, NotSquarefreeError
from prational.numerics import (
    CircleTest,
    certify_roots,
    circle_test,
    growth_constants,
)
from prational.polyarith import IntPoly, cyclotomic, euler_phi, power_poly, resultant

PELL = IntPoly.of(-1, -2, 1)          # 1 + sqrt(2)
GOLDEN_SQ = IntPoly.of(1, -3, 1)      # (3 + sqrt(5)) / 2
PLASTIC = IntPoly.of(-1, -1, 0, 1)    # smallest Pisot number
SALEM4 = IntPoly.of(1, -1, -1, -1, 1)  # quartic Salem number; two conjugates on the circle


def compose_neg(f):
    """f(-x)."""
    return IntPoly.of(*(c if i % 2 == 0 else -c for i, c in enumerate(f.coeffs)))


class TestCertifyRoots:
    def test_pell_roots_match_quadratic_formula(self):
        unit = certify_roots(PELL, tol=1e-12)
        assert unit.degree == 2
        expected = sorted((1 + math.sqrt(2), 1 - math.sqrt(2)))
        got = sorted(float(d.re) for d in unit.roots)
        for e, g in zip(expected, got):
            assert abs(e - g) < 1e-11
        for d in unit.roots:
            assert d.radius < Fraction(1, 10 ** 12)
            assert d.im == 0 or abs(float(d.im)) < 1e-11

    def test_disks_disjoint(self):
        unit = certify_roots(cyclotomic(5))
        disks = unit.roots
        assert len(disks) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert not disks[i].overlaps(disks[j])

    def test_degree_one_accepted(self):
        unit = certify_roots(IntPoly.of(-1, 1))
        assert unit.roots[0].re == 1 and unit.roots[0].radius == 0

    def test_not_a_unit(self):
        with pytest.raises(NotAUnitError):
            certify_roots(IntPoly.of(-3, 0, 1))

    def test_cyclotomic_factor_of_lower_degree_is_not_a_unit(self):
        # the k with phi(k) <= 4, so every product has a factor of lower degree
        small = [1, 2, 3, 4, 5, 6, 8, 10, 12]
        for a in small:
            for g in [PELL, *(cyclotomic(b) for b in small if b != a)]:
                with pytest.raises(NotAUnitError, match="cyclotomic factor of lower degree"):
                    certify_roots(cyclotomic(a) * g)

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefreeError):
            certify_roots(IntPoly.of(1, -2, 1))


class TestCircleTest:
    def test_pell_clear(self):
        assert circle_test(certify_roots(PELL)) is CircleTest.CLEAR

    def test_cyclotomic_on_circle(self):
        assert circle_test(certify_roots(cyclotomic(5))) is CircleTest.ON_CIRCLE
        assert circle_test(certify_roots(IntPoly.of(-1, 1))) is CircleTest.ON_CIRCLE

    def test_plastic_clear(self):
        assert circle_test(certify_roots(PLASTIC)) is CircleTest.CLEAR

    def test_self_reciprocal_but_off_circle(self):
        # (3+sqrt 5)/2 has reciprocal minimal polynomial yet no conjugate on the circle
        assert circle_test(certify_roots(GOLDEN_SQ)) is CircleTest.CLEAR

    def test_salem_undecided_at_low_cap(self):
        # two conjugates genuinely on the circle but not roots of unity:
        # the numeric route cannot certify either way
        unit = certify_roots(SALEM4)
        assert circle_test(unit, precision_cap=512) is CircleTest.UNDECIDED

    @pytest.mark.parametrize("poly", [PELL, GOLDEN_SQ, PLASTIC, cyclotomic(5), cyclotomic(12)])
    def test_invariant_under_inverse_and_negation(self, poly):
        base = circle_test(certify_roots(poly))
        inverse = poly.reciprocal()
        if inverse.lead() < 0:
            inverse = -inverse
        negated = compose_neg(poly)
        if negated.lead() < 0:
            negated = -negated
        assert circle_test(certify_roots(inverse)) is base
        assert circle_test(certify_roots(negated)) is base


class TestGrowthConstants:
    def test_pell_constants(self):
        c = growth_constants(certify_roots(PELL))
        assert c.degree == 2
        # power 1 fails since (a-1)/2 < 1; power 2 is the first admissible
        assert c.power == 2
        a = float(c.peak_lb)
        assert abs(a - (1 + math.sqrt(2))) < 1e-9
        assert abs(c.rate - 0.5 * math.log((a * a - 1) / 2)) < 1e-12
        assert abs(c.rate - 0.4406867935097715) < 1e-9
        assert c.n_start == 32
        assert abs(c.eps_max - c.rate / (4 * math.log(float(c.conj_pow_ub)))) < 1e-12
        assert 35.4 < float(c.norm_base) < 35.6

    def test_norm_lower_bound_desk_scale(self):
        c = growth_constants(certify_roots(PELL))
        powered = power_poly(PELL, c.power)
        for n in range(1, 41):
            if 2 * euler_phi(n) < n:
                continue
            norm = abs(resultant(powered, cyclotomic(n)))
            assert math.log(norm) >= c.rate * n

    def test_norm_cap_dominates(self):
        c = growth_constants(certify_roots(PELL))
        m = c.degree
        for n in range(c.n_start, 201):
            assert Fraction(2 ** m) * c.conj_pow_ub ** (m * n) <= c.norm_base ** n

    def test_threshold_property(self):
        c = growth_constants(certify_roots(PELL))
        n0 = c.n_start
        if n0 > 1:
            assert c.rate / 2 * (n0 - 1) <= c.degree * math.log(n0 - 1)
        for n in range(n0, n0 + 500):
            assert c.rate / 2 * n > c.degree * math.log(n)

    def test_rejects_on_circle_unit(self):
        with pytest.raises(ValueError):
            growth_constants(certify_roots(cyclotomic(5)))

    def test_plastic_constants_satisfy_rules(self):
        c = growth_constants(certify_roots(PLASTIC))
        assert c.degree == 3
        a = c.peak_lb
        assert (a ** c.power - 1) * Fraction(1, 2 ** (c.degree - 1)) > 1
        assert c.rate > 0
        # the complex pair has modulus < 1; its power bound must be <= 1/2
        small = min(d.mod_ub() for d in certify_roots(PLASTIC).roots)
        assert small ** c.power <= Fraction(1, 2)
        # minimality: power - 1 violates at least one rule
        k = c.power - 1
        rules_hold = (
            a ** k > Fraction(2 ** (c.degree - 1) + 1)
            and small ** k <= Fraction(1, 2)
            and a ** k >= 2
        )
        assert not rules_hold
