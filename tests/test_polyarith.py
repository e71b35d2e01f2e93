import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from integer_root import iroot_by_bisection
from prational import factorint
from prational.polyarith import (
    IntPoly,
    common_root_mod_p,
    cyclotomic,
    euler_phi,
    hensel_lift,
    iroot,
    jacobi,
    power_poly,
    prem,
    resultant,
    sqrt_bounds,
)
from ring_ops import poly_add, poly_mul


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


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def x_pow_minus_one(n):
    return IntPoly.of(-1, *([0] * (n - 1)), 1)


def agrees_with_moebius_values(c, n):
    """Independent oracle: Phi_n(a) = prod over d|n of (a^(n/d) - 1)^moebius(d)
    at the integers a = 2 .. n + 2, more points than c and Phi_n have degree,
    so c is Phi_n exactly when all of them agree."""
    for a in range(2, n + 3):
        value = Fraction(1)
        for d in divisors(n):
            value *= Fraction(a ** (n // d) - 1) ** moebius(d)
        if c.evaluate(a) != value:
            return False
    return True


def sympy_cyclotomic(n):
    return IntPoly.of(*reversed(sympy.cyclotomic_poly(n, polys=True).all_coeffs()))


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
        assert agrees_with_moebius_values(cyclotomic(12), 12)

    @pytest.mark.parametrize("n", [3, 8, 15, 36, 60, 105])
    def test_moebius_oracle(self, n):
        assert agrees_with_moebius_values(cyclotomic(n), n)

    def test_sympy_oracle(self):
        # 2310 and 30030 have 5 and 6 distinct primes: 32 and 64 passes
        for n in [*range(1, 1001), 2310, 30030]:
            assert cyclotomic(n) == sympy_cyclotomic(n), n

    def test_monic_degree_phi(self):
        for n in range(1, 501):
            c = cyclotomic(n)
            assert c.is_monic()
            assert c.degree() == sympy.totient(n)

    def test_divides_xn_minus_one(self):
        for n in range(1, 51):
            assert prem(x_pow_minus_one(n), cyclotomic(n)).is_zero()

    def test_product_identity_sample(self):
        for n in (1, 2, 7, 24, 90, 128, 200):
            assert poly_mul(*(cyclotomic(d) for d in divisors(n))) == x_pow_minus_one(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestEulerPhi:
    def test_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        # direct count of units mod 12
        assert euler_phi(12) == sum(1 for k in range(1, 12) if _gcd(k, 12) == 1)
        for n in [*range(1, 1001), 2310, 30030]:
            assert euler_phi(n) == sympy.totient(n), n

    def test_factors_n_once(self, monkeypatch):
        # Phi_n and phi(n) both come from one factor(n)
        calls = []
        real_factor = factorint.factor
        monkeypatch.setattr(factorint, "factor", lambda n: calls.append(n) or real_factor(n))
        cyclotomic.cache_clear()
        assert euler_phi(1155) == euler_phi(1155) == cyclotomic(1155).degree() == 480
        assert calls == [1155]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_refuses_a_partial_factorization(self, monkeypatch):
        real_factor = factorint.factor
        monkeypatch.setattr(factorint, "factor", lambda n: real_factor(n, trial=True))
        with pytest.raises(ArithmeticError, match=f"^cannot completely factor {1000003 * 1000033}$"):
            euler_phi(1000003 * 1000033)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


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
        gh = poly_mul(g, h)
        assert resultant(f, gh) == resultant(f, g) * resultant(f, h)

    @given(nonzero_polys, nonzero_polys)
    def test_sylvester_oracle(self, f, g):
        # our convention is the Sylvester determinant with the roles swapped
        assert resultant(f, g) == sylvester_resultant(g, f)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resultant(IntPoly.of(), IntPoly.of(1, 1))


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

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_sympy_resultant(self, seed):
        # Res_y(f(y), x - y**k) is prod (x - beta**k) over the roots beta of
        # f, up to sign; degree <= 7, k <= 30, the extremes included
        rng = random.Random(seed)
        m, k = (7, 30) if seed == 0 else (rng.randint(1, 7), rng.randint(1, 30))
        coeffs = [rng.randint(-5, 5) for _ in range(m)] + [1]
        x, y = sympy.symbols("x y")
        res = sympy.Poly(sympy.resultant(sum(c * y ** i for i, c in enumerate(coeffs)), x - y ** k, y), x)
        expected = IntPoly.of(*(int(c) for c in reversed(res.monic().all_coeffs())))
        assert power_poly(IntPoly.of(*coeffs), k) == expected


class TestIntPoly:
    def test_sums_and_products_are_type_errors(self):
        # IntPoly is a tuple with no ring operators: + and * must not
        # concatenate or repeat it
        f, g = IntPoly.of(1, 2), IntPoly.of(3)
        for op in (
            lambda: f + g, lambda: f + 1, lambda: 1 + f, lambda: f + (2,), lambda: f - 1,
            lambda: f * g, lambda: f * 3, lambda: 3 * f, lambda: f * 0,
        ):
            with pytest.raises(TypeError):
                op()
        assert -f == IntPoly.of(-1, -2)


class TestDivision:
    def test_prem_leaves_a_remainder(self):
        # x^2 + 1 = (x - 1)(x + 1) + 2
        assert prem(IntPoly.of(1, 0, 1), IntPoly.of(1, 1)) == IntPoly.of(2)

    @given(nonzero_polys, nonzero_polys)
    def test_prem_of_a_product_is_zero(self, f, g):
        assert prem(poly_mul(f, g), g).is_zero()

    def test_prem_matches_sympy(self):
        """sympy.prem also scales by lead(b)**(deg a - deg b + 1).  The leads
        of b are never +-1; a = c*x**k*b + r with k >= 1 and deg r < deg b
        drops k + 1 >= 2 degrees in its first step, and a sparse a drops
        more than one degree in later steps too."""
        rng = random.Random(18)
        x = sympy.Symbol("x")

        def poly(deg, lead, sparse=False):
            low = [rng.choice((0, 0, rng.randint(-30, 30))) if sparse else rng.randint(-30, 30) for _ in range(deg)]
            return IntPoly.of(*low, lead)

        def sympy_prem(a, b):
            got = sympy.prem(sympy.Poly(a.coeffs[::-1], x), sympy.Poly(b.coeffs[::-1], x))
            return IntPoly.of(*got.all_coeffs()[::-1])

        cases = [
            (IntPoly.of(5, 0, 0, 2, 2), IntPoly.of(2, 2)),   # 2x^4 + 2x^3 + 5 by 2x + 2: 4 -> 0
            (IntPoly.of(3), IntPoly.of(1, 4)),                # deg a < deg b: a itself
            (IntPoly.of(1, 2, 3), IntPoly.of(-6)),            # constant b
        ]
        for _ in range(150):
            b = poly(rng.randint(0, 5), rng.choice((-7, -3, 2, 5, 12)))
            r = IntPoly.of(*[rng.randint(-30, 30) for _ in range(b.degree())])
            c = IntPoly.of(*[0] * rng.randint(1, 4), rng.choice((-4, -1, 3, 8)))
            cases += [(poly(rng.randint(0, 9), rng.randint(1, 30), sparse=True), b), (poly_add(poly_mul(c, b), r), b)]
        for a, b in cases:
            assert prem(a, b) == sympy_prem(a, b), (a, b)


class TestCommonRootModP:
    @given(
        st.integers(0, 100),
        st.lists(st.integers(0, 100), max_size=4, unique=True),
        st.integers(1, 100),
        st.lists(st.integers(-3, 3), min_size=2, max_size=5),
    )
    def test_one_shared_linear_factor(self, r, roots, lead, lift):
        """f and g share x - r mod 101 and nothing else; their coefficients
        are shifted by multiples of 101 and f is not monic."""
        p = 101
        others = [a for a in roots if a != r]
        f = poly_mul(IntPoly.of(-r, 1), lead, *(IntPoly.of(-a, 1) for a in others[: len(others) // 2]))
        g = poly_mul(
            IntPoly.of(-r, 1),
            IntPoly.of(-2, 0, 1),   # 2 is not a square mod 101
            *(IntPoly.of(-a, 1) for a in others[len(others) // 2:]),
        )
        f = poly_add(f, poly_mul(IntPoly.of(*lift), p))
        assert common_root_mod_p(f, g, p) == r
        assert common_root_mod_p(g, f, p) == r

    @pytest.mark.parametrize("near", [10 ** 12, 10 ** 30])
    def test_matches_sympy_at_large_primes(self, near):
        """Against sympy's gcd over GF(p), at the primes next to and before
        10**12 and 10**30.  f and g share x - r times a random factor of
        degree 0 to 2; their other factors are random, of degree up to 8,
        with coefficients in [-p, 2p), so they are not reduced.  Euclid
        through prem lets coefficients grow between the reductions mod p."""
        x = sympy.Symbol("x")
        rng = random.Random(near)

        def poly(degree):
            coeffs = [rng.randrange(-p, 2 * p) for _ in range(degree)]
            return IntPoly.of(*coeffs, rng.randrange(1, p) + p * rng.randrange(-1, 2))

        def gf(f):
            return sympy.Poly(sum(c * x ** i for i, c in enumerate(f.coeffs)), x, modulus=p)

        by_degree = {}
        for p in (sympy.nextprime(near), sympy.prevprime(near)):
            for _ in range(30):
                shared = poly_mul(IntPoly.of(-rng.randrange(p), 1), poly(rng.choice((0, 0, 1, 2))))
                f, g = poly_mul(shared, poly(rng.randrange(9))), poly_mul(shared, poly(rng.randrange(9)))
                h = gf(f).gcd(gf(g))
                by_degree[h.degree()] = by_degree.get(h.degree(), 0) + 1
                if h.degree() == 1:
                    root = -int(h.TC()) * pow(int(h.LC()), -1, p) % p
                    assert common_root_mod_p(f, g, p) == common_root_mod_p(g, f, p) == root
                else:
                    with pytest.raises(ArithmeticError, match=f"^gcd mod {p} has degree {h.degree()}, not 1$"):
                        common_root_mod_p(f, g, p)
        assert by_degree[1] >= 20 and by_degree.keys() - {1}

    def test_a_gcd_of_another_degree_is_refused(self):
        two_roots = poly_mul(IntPoly.of(-1, 1), IntPoly.of(-2, 1))
        with pytest.raises(ArithmeticError):
            common_root_mod_p(two_roots, poly_mul(two_roots, IntPoly.of(-3, 1)), 7)
        with pytest.raises(ArithmeticError):
            common_root_mod_p(IntPoly.of(1, 1), IntPoly.of(2, 1), 7)


class TestJacobi:
    def test_matches_sympy(self):
        """Every a in [-600, 600] against every odd m < 2000, m = 1 and
        gcd(a, m) > 1 among them.  The oracle is the integer routine that
        sympy.jacobi_symbol evaluates integer arguments with (the symbolic
        function is too slow for the whole grid); a sample pins the two
        together."""
        from sympy.external.gmpy import jacobi as sympy_jacobi

        for m in range(1, 2000, 2):
            assert [jacobi(a, m) for a in range(-600, 601)] == [sympy_jacobi(a, m) for a in range(-600, 601)], m
        for a, m in [(-600, 1), (0, 1), (45, 77), (60, 121), (-3, 1999), (15, 45), (2, 7), (-1, 3)]:
            assert sympy_jacobi(a, m) == sympy.jacobi_symbol(a, m)

    @pytest.mark.parametrize("m", [0, -3, 2, 10])
    def test_an_even_or_nonpositive_modulus_is_refused(self, m):
        with pytest.raises(ValueError, match=rf"^the Jacobi symbol needs an odd modulus m > 0, not {m}$"):
            jacobi(1, m)


class TestIntegerRoots:
    @given(st.integers(0, 10 ** 60), st.integers(1, 12))
    def test_iroot_is_the_floor(self, n, k):
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k

    @pytest.mark.parametrize("k", [3, 5, 24, 53, 1000, 24824])
    @pytest.mark.parametrize("bits", [1, 2, 40, 53, 64, 200, 3000])
    def test_iroot_matches_the_bisection(self, k, bits):
        """Roots from 1 to thousands of bits, exact powers and their
        neighbours among them."""
        for n in {2 ** bits - 1, 2 ** bits, 2 ** bits + 1, 3 ** (bits // 2 + 1), 10 ** (bits // 3 + 1) + 7}:
            r = iroot_by_bisection(n, k)
            assert iroot(n, k) == r, (n.bit_length(), k)
            for m in {r ** k - 1, r ** k, r ** k + 1, (r + 1) ** k - 1}:
                if m >= 0:
                    assert iroot(m, k) == iroot_by_bisection(m, k), (m.bit_length(), k)

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
