import itertools
import math
import re
from fractions import Fraction

import pytest

from integer_root import iroot_by_bisection
from prational import numerics, rootfind
from prational.numerics import certify_roots, growth_constants, ln
from prational.polyarith import IntPoly, cyclotomic, euler_phi, power_poly, resultant
from prational.quadfield import make_field, minpoly_of
from ring_ops import poly_mul

PELL = IntPoly.of(-1, -2, 1)          # 1 + sqrt(2)
GOLDEN_SQ = IntPoly.of(1, -3, 1)      # (3 + sqrt(5)) / 2
PLASTIC = IntPoly.of(-1, -1, 0, 1)    # smallest Pisot number
SALEM4 = IntPoly.of(1, -1, -1, -1, 1)  # quartic Salem number; two conjugates on the circle


def compose_neg(f):
    """f(-x)."""
    return IntPoly.of(*(c if i % 2 == 0 else -c for i, c in enumerate(f.coeffs)))


@pytest.fixture(scope="module")
def quadratic_units():
    """The monic minimal polynomials of eps for every squarefree d < 2000,
    then x^2 - 3x - 1 and x^2 - 4x + 1."""
    squarefree = [d for d in range(2, 2000) if all(d % (q * q) for q in range(2, math.isqrt(d) + 1))]
    # the class number plays no part in the unit
    polys = [minpoly_of(make_field(d, class_number_override=1).fundamental_unit) for d in squarefree]
    polys += [IntPoly.of(-1, -3, 1), IntPoly.of(1, -4, 1)]
    return [-f if f.lead() == -1 else f for f in polys]


class TestCertifyRoots:
    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_real_quadratic_centers_are_the_floors_of_the_roots(self, prec, quadratic_units):
        """The integer-square-root centers are floor(z * 2**prec) / 2**prec
        of mpmath's roots z, taken at enough working precision that their
        error is far below 2**-prec, in polyroots' order."""
        import mpmath

        for f in quadratic_units:
            c, b = f.coeffs[:2]
            work = prec + 2 * abs(b).bit_length() + 64
            with mpmath.workprec(work):
                roots = mpmath.polyroots([1, b, c], maxsteps=500, extraprec=work)
                expected = [(Fraction(int(mpmath.floor(z * 2 ** prec)), 2 ** prec), Fraction(0)) for z in roots]
            assert numerics._real_quadratic_centers(b, b * b - 4 * c, prec) == expected, f

    def test_only_non_real_quadratic_roots_go_through_mpmath(self, monkeypatch):
        """Only non-real quadratic roots go through the root finder that
        replaced mpmath's polyroots, rootfind.root_centers."""
        calls = []
        root_centers = rootfind.root_centers

        def recorded(f, prec):
            calls.append(f)
            return root_centers(f, prec)

        monkeypatch.setattr(rootfind, "root_centers", recorded)
        growth_constants(certify_roots(PELL))
        assert calls == []
        on_circle = IntPoly.of(1, 1, 1)
        with pytest.raises(ValueError, match="has a root on the unit circle"):
            growth_constants(certify_roots(on_circle))
        assert calls == [on_circle]

    def test_pell_roots_match_quadratic_formula(self):
        unit = certify_roots(PELL)
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
        with pytest.raises(ValueError, match="^constant term -3 has absolute value != 1$"):
            certify_roots(IntPoly.of(-3, 0, 1))

    def test_cyclotomic_factor_of_lower_degree_is_not_a_unit(self):
        # the k with phi(k) <= 4, so every product has a factor of lower degree
        small = [1, 2, 3, 4, 5, 6, 8, 10, 12]
        for a in small:
            for g in [PELL, *(cyclotomic(b) for b in small if b != a)]:
                with pytest.raises(ValueError, match="cyclotomic factor of lower degree"):
                    certify_roots(poly_mul(cyclotomic(a), g))

    @pytest.mark.parametrize(
        "f, g",
        [(PELL, PLASTIC), (PELL, GOLDEN_SQ), (PLASTIC, PLASTIC.reciprocal()), (IntPoly.of(1, -1, -1), SALEM4)],
    )
    def test_product_of_units_is_reducible(self, f, g):
        h = poly_mul(f, g)
        if h.lead() < 0:
            h = -h
        with pytest.raises(ValueError, match="is reducible: .* divides it"):
            certify_roots(h)

    @pytest.mark.parametrize(
        "f", [PELL, GOLDEN_SQ, PLASTIC, SALEM4, cyclotomic(5), cyclotomic(12), IntPoly.of(-1, -1, 0, 0, 1)]
    )
    def test_irreducible_units_are_accepted(self, f):
        assert certify_roots(f).degree == f.degree()

    def test_not_squarefree(self):
        with pytest.raises(ValueError, match="^minimal polynomial has a repeated factor$"):
            certify_roots(IntPoly.of(1, -2, 1))


ORACLE_PRECS = (64, 128, 256, 1024)
# every polynomial of degree 3, and about a hundred of each higher degree
ORACLE_STRIDE = {3: 1, 4: 5, 5: 47, 6: 337}


def small_units(degree, stride=1):
    """The certifiable polynomials of the degree with constant term +-1 and
    other coefficients in [-3, 3]: monic, irreducible over Q (sympy), so
    squarefree units with no cyclotomic factor of lower degree.  One in
    ``stride`` of them, in a fixed order."""
    import sympy

    x = sympy.Symbol("x")
    shapes = itertools.product(itertools.product(range(-3, 4), repeat=degree - 1), (-1, 1))
    for middle, c0 in itertools.islice(shapes, 0, None, stride):
        f = IntPoly.of(c0, *middle, 1)
        if sympy.Poly(list(reversed(f.coeffs)), x).is_irreducible:
            yield f


def mpmath_centers(f, precs, extraprec=32):
    """{prec: centers} with the centers as rootfind.root_centers defines them, from
    mpmath.polyroots to max(precs) + 128 bits: each root z rounded to
    prec + 64 bits, then floor(part * 2**prec) / 2**prec, in polyroots'
    order.  None when polyroots does not converge."""
    import mpmath

    work = max(precs) + 128
    with mpmath.workprec(work):
        try:
            roots = [mpmath.mpc(z) for z in mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=400, extraprec=extraprec)]
        except mpmath.libmp.NoConvergence:
            return None
    centers = {}
    for prec in precs:
        with mpmath.workprec(prec + 64):
            centers[prec] = [
                tuple(Fraction(int(mpmath.floor(+part * 2 ** prec)), 2 ** prec) for part in (z.real, z.imag))
                for z in roots
            ]
    return centers


def same_up_to_ties(got, expected, prec):
    """The same centers in the same order, except that two non-real roots
    whose |im| agree to within 2**-prec may trade places: polyroots orders
    such roots (conjugates, and roots mirrored in the imaginary axis) by
    its rounding errors."""
    unit = Fraction(1, 2 ** prec)
    return sorted(got) == sorted(expected) and all(
        a == b or (a[1] != 0 != b[1] and abs(abs(a[1]) - abs(b[1])) <= unit) for a, b in zip(got, expected)
    )


class TestRootCenters:
    @pytest.mark.parametrize("degree", sorted(ORACLE_STRIDE))
    def test_centers_match_mpmath_at_ample_precision(self, degree):
        """Against mpmath.polyroots (test-only): equal floors, imaginary part
        exactly 0 on each real root (as many as sympy.real_roots finds), and
        polyroots' order."""
        import sympy

        x = sympy.Symbol("x")
        checked = 0
        for f in small_units(degree, ORACLE_STRIDE[degree]):
            expected = mpmath_centers(f, ORACLE_PRECS)
            assert expected is not None, f
            real = len(sympy.real_roots(sympy.Poly(list(reversed(f.coeffs)), x)))
            for prec in ORACLE_PRECS:
                got = rootfind.root_centers(f, prec)
                assert got is not None, (f, prec)
                assert same_up_to_ties(got, expected[prec], prec), (f, prec)
                assert sum(im == 0 for _, im in got) == real, (f, prec)
            checked += 1
        assert checked >= 25

    def test_roots_beyond_the_double_range(self):
        """x^3 - 10^400 x - 1 has roots near +-10^200, whose cubes are beyond
        the double range, and one near -10^-400, below 2**-(prec + 63) at
        each prec here, so it is 0.  Rounded to prec + 64 significant bits,
        the large roots are too coarse to certify at 256 bits, as with
        mpmath; at 512 and 1024 bits they are exactly +-10^200."""
        f = IntPoly.of(-1, -10 ** 400, 0, 1)
        for prec in (512, 1024):
            got = rootfind.root_centers(f, prec)
            assert same_up_to_ties(got, mpmath_centers(f, (prec,), extraprec=2000)[prec], prec)
            assert got[1] == (0, 0)
        assert numerics._certify_at_precision(f, 256) is None
        assert numerics._certify_at_precision(f, 512) is not None

    def test_no_convergence_is_none(self, monkeypatch):
        monkeypatch.setattr(rootfind, "_MAX_SWEEPS", 2)
        assert rootfind.root_centers(PLASTIC, 64) is None
        with pytest.raises(ArithmeticError, match="could not separate the roots"):
            certify_roots(PLASTIC)


def pow2_upper_by_bisection(num, den, bits=32):
    """The earlier _pow2_upper: t from a bisection for the den-th root."""
    target = 1 << (num + den * bits)
    t = iroot_by_bisection(target, den)
    if t ** den < target:
        t += 1
    return Fraction(t, 1 << bits)


@pytest.mark.parametrize("bits", [0, 1, 32, 53, 64])
def test_pow2_upper_matches_the_bisection(bits):
    for num in [*range(0, 25), 52, 53, 64, 1000, 5000]:
        for den in [1, 2, 3, 7, 16, 24, 53, 1000, 1024]:
            assert numerics._pow2_upper(num, den, bits) == pow2_upper_by_bisection(num, den, bits), (num, den)


def test_pow2_upper_of_a_wide_root():
    # the n_start of x^16 - x - 1
    assert numerics._pow2_upper(16, 24824) == pow2_upper_by_bisection(16, 24824)


def circle_error(poly):
    """The type of the error by which growth_constants refuses poly's unit,
    or None when it gives constants."""
    try:
        growth_constants(certify_roots(poly))
    except (ValueError, ArithmeticError) as exc:
        return type(exc)
    return None


class TestCircleTest:
    """growth_constants decides the unit circle: constants for a unit with
    no conjugate on it, an error otherwise."""

    def test_pell_clear(self):
        assert growth_constants(certify_roots(PELL)).degree == 2

    def test_cyclotomic_on_circle(self):
        for poly in (cyclotomic(5), IntPoly.of(-1, 1), IntPoly.of(1, 1, 1)):
            with pytest.raises(ValueError, match=f"^{re.escape(poly.pretty())} has a root on the unit circle$"):
                growth_constants(certify_roots(poly))

    def test_plastic_clear(self):
        assert growth_constants(certify_roots(PLASTIC)).degree == 3

    def test_self_reciprocal_but_off_circle(self):
        # (3+sqrt 5)/2 has reciprocal minimal polynomial yet no conjugate on the circle
        assert growth_constants(certify_roots(GOLDEN_SQ)).degree == 2

    def test_salem_undecided_at_low_cap(self):
        # two conjugates genuinely on the circle but not roots of unity:
        # the numeric route cannot certify either way
        message = r"^could not decide whether x\^4 - x\^3 - x\^2 - x \+ 1 has a root on the unit circle$"
        with pytest.raises(ArithmeticError, match=message):
            growth_constants(certify_roots(SALEM4, precision_cap=512))

    def test_a_disk_on_the_circle_is_beyond_every_admissible_power(self):
        """A disk of radius below _RADIUS that meets the circle holds a root
        r with ||r| - 1| < 2 * _RADIUS, and |r|**k reaches 2 or 1/2 only
        beyond _MAX_POWER: no smaller disk could admit the unit."""
        assert math.log(2) / math.log1p(2 * float(numerics._RADIUS)) > numerics._MAX_POWER
        for poly in (PELL, GOLDEN_SQ, PLASTIC, SALEM4, IntPoly.of(-1, -1, *[0] * 10, 1)):
            assert all(d.radius < numerics._RADIUS for d in certify_roots(poly).roots)

    def test_a_non_reciprocal_unit_with_a_disk_on_the_circle_has_no_power(self):
        unit = certify_roots(PLASTIC)
        on_circle = numerics.RootDisk(Fraction(1), Fraction(0), unit.roots[0].radius)
        with pytest.raises(ArithmeticError, match=r"^no admissible power below 10\^6$"):
            growth_constants(unit._replace(roots=(on_circle, *unit.roots[1:])))

    @pytest.mark.parametrize("poly, error", [(PELL, None), (PLASTIC, None), (SALEM4, ArithmeticError)])
    def test_growth_constants_certifies_nothing(self, poly, error, monkeypatch):
        """growth_constants reads the sides from the unit's own disks, also
        when one of them meets the circle."""
        unit = certify_roots(poly)
        calls = []
        real = numerics._certify_at_precision
        monkeypatch.setattr(numerics, "_certify_at_precision", lambda *args: calls.append(args) or real(*args))
        if error is None:
            growth_constants(unit)
        else:
            with pytest.raises(error, match="^could not decide whether .* has a root on the unit circle$"):
                growth_constants(unit)
        assert calls == []

    @pytest.mark.parametrize("poly", [PELL, GOLDEN_SQ, PLASTIC, cyclotomic(5), cyclotomic(12)])
    def test_invariant_under_inverse_and_negation(self, poly):
        base = circle_error(poly)
        inverse = poly.reciprocal()
        if inverse.lead() < 0:
            inverse = -inverse
        negated = compose_neg(poly)
        if negated.lead() < 0:
            negated = -negated
        assert circle_error(inverse) is base
        assert circle_error(negated) is base


class TestGrowthConstants:
    @pytest.mark.parametrize(
        "minpoly",
        [
            PELL,
            GOLDEN_SQ,
            PLASTIC,
            IntPoly.of(-1, -1, 0, 0, 1),
            IntPoly.of(-1, -1, 0, 0, 0, 0, 1),
            IntPoly.of(-1, -1, *[0] * 10, 1),   # x^12 - x - 1, power 127
        ],
    )
    def test_power_is_the_first_admissible_by_fraction_powers(self, minpoly):
        """The estimated crossings pick the k that the rule gives stepwise,
        with a Fraction power at every k, and the same powered bounds."""
        unit = certify_roots(minpoly)
        lbs = [d.mod_lb() for d in unit.roots]
        ubs = [d.mod_ub() for d in unit.roots]
        assert all(lb > 1 or ub < 1 for lb, ub in zip(lbs, ubs))   # every disk off the circle
        sides = [+1 if lb > 1 else -1 for lb in lbs]
        peak = max(lb for lb, side in zip(lbs, sides) if side == +1)

        def admissible(k):
            return peak ** k > 2 ** (unit.degree - 1) + 1 and all(
                lb ** k >= 2 if side == +1 else ub ** k <= Fraction(1, 2)
                for lb, ub, side in zip(lbs, ubs, sides)
            )

        k = next(k for k in itertools.count(1) if admissible(k))
        c = growth_constants(unit)
        assert (c.power, c.peak_lb) == (k, peak)
        assert c.conj_pow_ub == max(ub ** k for ub in ubs)

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
        with pytest.raises(ValueError, match="has a root on the unit circle"):
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


def test_ln_matches_math_log_in_the_double_range_and_extends_it():
    for x in (Fraction(7, 3), Fraction(10) ** 300, 2 ** 1000 + 1):
        assert ln(x) == math.log(float(x))
    assert abs(ln(Fraction(3 ** 2000, 2 ** 5)) - (2000 * math.log(3) - 5 * math.log(2))) < 1e-9
    assert abs(ln(Fraction(1, 7 ** 900)) + 900 * math.log(7)) < 1e-9

