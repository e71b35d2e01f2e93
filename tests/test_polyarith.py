from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prational import factorint
from prational.errors import PartialFactorizationError
from prational.polyarith import (
    IntPoly,
    cyclotomic,
    div_exact,
    divisors,
    euler_phi,
    half_totient_sieve,
    hensel_lift,
    iroot,
    poly_gcd,
    power_poly,
    resultant,
    roots_mod_p,
    sqrt_bounds,
)


def moebius(n):
    out = 1
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
    if n > 1:
        out = -out
    return out


def cyclotomic_by_moebius(n):
    """Independent oracle: prod over d|n of (x^(n/d) - 1)^moebius(d)."""
    num = IntPoly.of(1)
    den = IntPoly.of(1)
    for d in divisors(n):
        mu = moebius(d)
        if mu == 1:
            num = num * IntPoly.x_pow_minus_one(n // d)
        elif mu == -1:
            den = den * IntPoly.x_pow_minus_one(n // d)
    return div_exact(num, den)


def sylvester_resultant(f, g):
    """Determinant of the Sylvester matrix, by exact Fraction elimination.

    Equals lead(f)**deg(g) * prod g(alpha) over the roots alpha of f.
    """
    m, n = f.degree(), g.degree()
    if m < 0 or n < 0:
        raise ValueError
    size = m + n
    if size == 0:
        return 1
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = mat[col][col]
        for r in range(col + 1, size):
            q = mat[r][col] / inv
            if q:
                for c in range(col, size):
                    mat[r][c] -= q * mat[col][c]
    assert det.denominator == 1
    return int(det)


small_polys = st.builds(
    lambda coeffs: IntPoly.of(*coeffs),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


class TestCyclotomic:
    def test_first_two(self):
        assert cyclotomic(1) == IntPoly.of(-1, 1)
        assert cyclotomic(2) == IntPoly.of(1, 1)

    def test_twelve_against_moebius_oracle(self):
        assert cyclotomic(12) == IntPoly.of(1, 0, -1, 0, 1)
        assert cyclotomic(12) == cyclotomic_by_moebius(12)

    @pytest.mark.parametrize("n", [3, 8, 15, 36, 60, 105])
    def test_moebius_oracle(self, n):
        assert cyclotomic(n) == cyclotomic_by_moebius(n)

    def test_monic_degree_phi(self):
        for n in range(1, 501):
            c = cyclotomic(n)
            assert c.is_monic()
            assert c.degree() == euler_phi(n)

    def test_product_identity_sample(self):
        for n in (1, 2, 7, 24, 90, 128, 200):
            prod = IntPoly.of(1)
            for d in divisors(n):
                prod = prod * cyclotomic(d)
            assert prod == IntPoly.x_pow_minus_one(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestEulerPhi:
    def test_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        # direct count of units mod 12
        assert euler_phi(12) == sum(1 for k in range(1, 12) if _gcd(k, 12) == 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_refuses_a_partial_factorization(self, monkeypatch):
        real_factor = factorint.factor
        monkeypatch.setattr(factorint, "factor", lambda n: real_factor(n, trial_bound=2, rho_budget=1))
        with pytest.raises(PartialFactorizationError):
            euler_phi(1000003 * 1000033)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestHalfTotientSieve:
    def test_small(self):
        assert half_totient_sieve(6) == [1, 2, 3, 4, 5]
        assert half_totient_sieve(1) == [1]

    @given(st.integers(1, 400))
    def test_membership(self, limit):
        got = set(half_totient_sieve(limit))
        for n in range(1, limit + 1):
            assert (n in got) == (2 * euler_phi(n) >= n)


class TestResultant:
    def test_linear_evaluation(self):
        # resultant(f, x - c) = f(c) under the documented convention
        assert resultant(IntPoly.of(-2, 0, 1), IntPoly.of(-3, 1)) == 7

    def test_norm_of_cyclotomic_value(self):
        assert resultant(IntPoly.of(-1, -2, 1), cyclotomic(3)) == 7

    @given(nonzero_polys, nonzero_polys)
    def test_swap_sign_law(self, f, g):
        lhs = resultant(f, g)
        rhs = resultant(g, f)
        sign = -1 if (f.degree() * g.degree()) % 2 else 1
        assert lhs == sign * rhs

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_multiplicative(self, f, g, h):
        gh = g * h
        assert resultant(f, gh) == resultant(f, g) * resultant(f, h)

    @given(nonzero_polys, nonzero_polys)
    def test_sylvester_oracle(self, f, g):
        # our convention is the Sylvester determinant with the roles swapped
        assert resultant(f, g) == sylvester_resultant(g, f)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resultant(IntPoly.zero(), IntPoly.of(1, 1))


class TestPolyGcd:
    def test_basic(self):
        assert poly_gcd(IntPoly.of(-1, 0, 1), IntPoly.of(-1, 1)) == IntPoly.of(-1, 1)
        assert poly_gcd(cyclotomic(6), cyclotomic(3)) == IntPoly.of(1)

    def test_cyclotomic_divides_xn_minus_one(self):
        for n in range(1, 51):
            assert poly_gcd(IntPoly.x_pow_minus_one(n), cyclotomic(n)) == cyclotomic(n)

    @given(nonzero_polys)
    def test_self_gcd(self, f):
        assert poly_gcd(f, f) == f.primitive()


class TestPowerPoly:
    def test_quadratic_square(self):
        assert power_poly(IntPoly.of(-1, -2, 1), 2) == IntPoly.of(1, -6, 1)

    def test_identity_power(self):
        f = IntPoly.of(-1, -1, 0, 1)
        assert power_poly(f, 1) == f

    def test_cubic_cube_roots(self):
        # numeric cross-check: roots of the result are cubes of the roots of f
        import mpmath

        f = IntPoly.of(-1, -1, 0, 1)
        g = power_poly(f, 3)
        rf = mpmath.polyroots([1, 0, -1, -1])
        rg = mpmath.polyroots([mpmath.mpf(c) for c in reversed(g.coeffs)])
        cubes = sorted((complex(r) ** 3 for r in rf), key=lambda z: (z.real, z.imag))
        got = sorted((complex(r) for r in rg), key=lambda z: (z.real, z.imag))
        for a, b in zip(cubes, got):
            assert abs(a - b) < 1e-8

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            power_poly(IntPoly.of(1, 2), 2)


class TestDivision:
    def test_div_exact_error(self):
        with pytest.raises(ValueError):
            div_exact(IntPoly.of(1, 0, 1), IntPoly.of(1, 1))

    @given(nonzero_polys, nonzero_polys)
    def test_div_exact_roundtrip(self, f, g):
        assert div_exact(f * g, g) == f


class TestRootsModP:
    def test_quadratic_at_a_large_prime(self):
        # brute force over range(p) would never return here
        p = 1052645985555841
        roots = roots_mod_p(IntPoly.of(-1, -1, 1), p)
        assert len(roots) == 2
        assert all((r * r - r - 1) % p == 0 for r in roots)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=4, unique=True))
    def test_product_of_linear_factors(self, roots):
        p = 101
        f = IntPoly.of(1)
        for r in roots:
            f = f * IntPoly.of(-r, 1)
        assert roots_mod_p(f, p) == sorted(roots)


class TestIntegerRoots:
    @given(st.integers(0, 10 ** 60), st.integers(1, 12))
    def test_iroot_is_the_floor(self, n, k):
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k

    @given(st.fractions(min_value=0, max_value=10 ** 9))
    def test_sqrt_bounds_enclose(self, q):
        lo, hi = sqrt_bounds(q, 48)
        assert lo * lo <= q <= hi * hi
        assert hi - lo == Fraction(1, q.denominator << 48)

    def test_hensel_lift(self):
        f = IntPoly.of(-2, 0, 1)
        for k in (1, 2, 5):
            r = hensel_lift(f, 3, 7, k)
            assert f.evaluate(r) % 7 ** k == 0 and r % 7 == 3
