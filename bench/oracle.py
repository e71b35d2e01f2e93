"""Independent recomputation of prational's CSV payloads.

Nothing here imports prational: field arithmetic, units, cyclotomic norms and
the p-rationality criterion are recomputed from scratch, with sympy for
primality, prime ranges, cyclotomic polynomials and characteristic
polynomials.  Every check raises ``OracleError`` naming the first wrong row.
"""

from __future__ import annotations

import csv
import functools
import math
import random

import sympy

# Class numbers of Q(sqrt(d)) from the standard tables (OEIS A003172 lists the
# d with h = 1).  Only fields the workloads use are needed.
CLASS_NUMBERS = {2: 1, 3: 1, 6: 1, 13: 1, 94: 1}


EVERY_ROW_BELOW = 2000


class OracleError(AssertionError):
    """A payload row disagrees with the independent recomputation."""


def read_payload(path):
    """Rows (as dicts of strings) and '# key=value' footer of a CSV payload."""
    rows, footer = [], {}
    with open(path, newline="") as fh:
        body = []
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                footer[key] = value
            else:
                body.append(line)
    rows = list(csv.DictReader(body))
    return rows, footer


def _fail(what, row, detail):
    raise OracleError(f"{what}: row {row} is wrong ({detail})")


# --- real quadratic fields ---------------------------------------------------
# Elements are pairs (x, y) meaning x + y*w with w^2 = t*w + s.

def _mul(u, v, t, s, mod=None):
    yy = u[1] * v[1]
    x = u[0] * v[0] + s * yy
    y = u[0] * v[1] + u[1] * v[0] + t * yy
    return (x % mod, y % mod) if mod else (x, y)


def _pow(u, e, t, s, mod=None):
    out = (1, 0)
    while e:
        if e & 1:
            out = _mul(out, u, t, s, mod)
        u = _mul(u, u, t, s, mod)
        e >>= 1
    return out


class Field:
    """Q(sqrt(d)) in the basis 1, w: w = sqrt(d) for d != 1 (mod 4), else
    w = (1 + sqrt(d))/2."""

    def __init__(self, d: int):
        if d not in CLASS_NUMBERS:
            raise OracleError(f"no class number on record for d = {d}")
        self.d = d
        self.half = d % 4 == 1
        self.t, self.s = (1, (d - 1) // 4) if self.half else (0, d)
        self.disc = d if self.half else 4 * d
        self.h = CLASS_NUMBERS[d]
        self.a, self.b = _pell_unit(d)
        # 2*eps = a + b*sqrt(d); in the basis 1, w:
        self.unit = ((self.a - self.b) // 2, self.b) if self.half else (self.a // 2, self.b // 2)

    def mul(self, u, v, mod=None):
        return _mul(u, v, self.t, self.s, mod)

    def pow(self, u, e, mod=None):
        return _pow(u, e, self.t, self.s, mod)

    def norm(self, u) -> int:
        x, y = u
        return x * x + self.t * x * y - self.s * y * y

    def charpoly(self, u) -> list[int]:
        """Ascending coefficients of x^2 - Tr(u) x + N(u)."""
        return [self.norm(u), -(2 * u[0] + self.t * u[1]), 1]


def _pell_unit(d: int) -> tuple[int, int]:
    """Smallest a, b > 0 with a^2 - d b^2 = +-4; then (a + b sqrt d)/2 is the
    fundamental unit of the ring of integers."""
    b = 1
    while True:
        for c in (-4, 4):
            a2 = d * b * b + c
            a = math.isqrt(a2) if a2 > 0 else 0
            if a > 0 and a * a == a2:
                return a, b
        b += 1


@functools.lru_cache(maxsize=None)
def _odd_primes(X: int) -> list[int]:
    return list(sympy.primerange(3, X + 1))


def _prime_factors(n: int) -> list[int]:
    return sorted(sympy.factorint(n))


def _exact_order(g, n, one, power) -> bool:
    if power(g, n) != one:
        return False
    return all(power(g, n // q) != one for q in _prime_factors(n))


# --- polynomials over Z as ascending coefficient lists ----------------------

def _cyclotomic(n: int) -> list[int]:
    x = sympy.Symbol("x")
    return [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())]


def _companion(poly: list[int]) -> list[list[int]]:
    m = len(poly) - 1
    return [[(1 if i == j + 1 else 0) if j < m - 1 else -poly[i] for j in range(m)] for i in range(m)]


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _det(M) -> int:
    """Bareiss fraction-free determinant."""
    M = [row[:] for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def cyclo_norm(g: list[int], n: int) -> int:
    """|Res(Phi_n, g)| for monic g: |det Phi_n(C_g)| with C_g its companion matrix."""
    C = _companion(g)
    m = len(C)
    acc = [[0] * m for _ in range(m)]
    for c in reversed(_cyclotomic(n)):
        acc = _matmul(acc, C)
        for i in range(m):
            acc[i][i] += c
    return abs(_det(acc))


def power_charpoly(f: list[int], k: int) -> list[int]:
    """Monic characteristic polynomial of alpha**k, alpha a root of monic f."""
    x, y = sympy.symbols("x y")
    fy = sum(c * y ** i for i, c in enumerate(f))
    res = sympy.Poly(sympy.resultant(fy, x - y ** k, y), x)
    coeffs = [int(c) for c in reversed(res.all_coeffs())]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def _peval(poly, x, mod):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % mod
    return acc


# --- scan-prational ----------------------------------------------------------

def check_prational(path: str, d: int, X: int, rng: random.Random, sample: int) -> int:
    """Check a scan-prational payload: every non-p-rational row, every row
    with p < EVERY_ROW_BELOW, and `sample` rows drawn with rng.  Returns the
    number of rows."""
    F = Field(d)
    rows, _ = read_payload(path)
    if [int(r["p"]) for r in rows] != _odd_primes(X):
        raise OracleError(f"scan-prational d={d}: rows are not the odd primes <= {X}")
    p0 = max([3] + _prime_factors(2 * F.disc * F.h))
    chosen = [r for r in rows if r["verdict"] == "non_p_rational" or int(r["p"]) < EVERY_ROW_BELOW]
    chosen += rng.sample(rows, min(sample, len(rows)))
    for row in chosen:
        _check_prational_row(F, p0, row)
    return len(rows)


def _check_prational_row(F: Field, p0: int, row: dict) -> None:
    p = int(row["p"])
    what = f"scan-prational d={F.d}"
    if F.disc % p == 0:
        reason = "ramified"
    elif F.h % p == 0:
        reason = "divides_class_number"
    elif p <= p0:
        reason = "below_p0"
    else:
        reason = None
    if reason is not None:
        if (row["verdict"], row["reason"], row["witnesses"]) != ("excluded", reason, ""):
            _fail(what, p, f"expected excluded/{reason}")
        return
    split = sympy.legendre_symbol(F.d % p, p) == 1
    N = p if split else p * p
    p2 = p * p
    # (a + b sqrt d)^(N-1) == 2^(N-1) mod p^2 Z[sqrt d], in the basis 1, sqrt(d)
    non_rational = _pow((F.a, F.b), N - 1, 0, F.d, p2) == (pow(2, N - 1, p2), 0)
    expected = "non_p_rational" if non_rational else "p_rational"
    if row["verdict"] != expected or row["reason"]:
        _fail(what, p, f"expected {expected}")
    witnesses = [w.split(":") for w in row["witnesses"].split(";")]
    if split:
        # eps^(p-1) mod P^2 for both embeddings sqrt(d) -> +-root of d mod p^2
        root = sympy.sqrt_mod(F.d, p2)
        eps = [(F.a + F.b * r) * pow(2, -1, p2) % p2 for r in (root, -root)]
        flags = sorted("0" if pow(v, p - 1, p2) == 1 else "1" for v in eps)
        want = [[str(p), f] for f in flags]
    else:
        want = [[str(p2), "0" if non_rational else "1"]]
    if sorted(witnesses) != sorted(want):
        _fail(what, p, f"witnesses {row['witnesses']!r}, expected {want}")


# --- scan-wieferich ----------------------------------------------------------

def check_wieferich(path: str, n_max: int, d: int | None = None, minpoly: list[int] | None = None) -> list[int]:
    """Check a scan-wieferich payload (field scan for d, or minpoly scan).
    Returns the n of its partial rows."""
    rows, footer = read_payload(path)
    what = f"scan-wieferich d={d}" if d is not None else f"scan-wieferich minpoly={minpoly}"
    if [int(r["n"]) for r in rows] != list(range(1, n_max + 1)):
        raise OracleError(f"{what}: rows are not n = 1..{n_max}")
    k = int(footer["power"])
    if d is not None:
        F = Field(d)
        v = F.pow(F.unit, k)
        g = F.charpoly(v)
    else:
        F, v, g = None, None, power_charpoly(minpoly, k)
    partial = []
    for row in rows:
        n = int(row["n"])
        if int(row["cyclo_norm"]) != cyclo_norm(g, n):
            _fail(what, n, "cyclo_norm")
        if row["factor_status"] == "partial":
            partial.append(n)
        if row["status"] == "success":
            _check_success(what, row, n, F, v, g)
    return partial


def _check_success(what, row, n, F, v, g):
    p, deg, norm = int(row["prime"]), int(row["residue_degree"]), int(row["ideal_norm"])
    if not sympy.isprime(p) or n % p == 0 or norm != p ** deg:
        _fail(what, n, f"prime {p} of degree {deg}")
    p2 = p * p
    if deg == 1:
        r = int(row["root"])
        if F is not None:
            # r is a root of w's minimal polynomial mod p^2; v -> v_x + v_y r
            if (r * r - F.t * r - F.s) % p2:
                _fail(what, n, "root is not a root of w's minimal polynomial mod p^2")
            image = (v[0] + v[1] * r) % p2
        else:
            if _peval(g, r, p2):
                _fail(what, n, "root is not a root of g mod p^2")
            image = r
        ok_order = _exact_order(image % p, n, 1, lambda b, e: pow(b, e, p))
        wieferich = pow(image, n, p2) != 1
    else:
        if F is None or row["root"] or sympy.legendre_symbol(F.disc % p, p) != -1:
            _fail(what, n, "degree-2 prime must be inert in a quadratic field")
        ok_order = _exact_order((v[0] % p, v[1] % p), n, (1, 0), lambda b, e: F.pow(b, e, p))
        wieferich = F.pow(v, n, p2) != (1, 0)
    if not ok_order:
        _fail(what, n, "the unit does not have exact order n at the reported prime")
    if not wieferich:
        _fail(what, n, "the Wieferich condition fails at the reported prime")


# --- abc-quality -------------------------------------------------------------

def check_abc(path: str, d: int, n_max: int) -> list[int]:
    """Check an abc-quality payload; returns the n of its partial rows."""
    rows, _ = read_payload(path)
    what = f"abc-quality d={d}"
    if [int(r["n"]) for r in rows] != list(range(1, n_max + 1)):
        raise OracleError(f"{what}: rows are not n = 1..{n_max}")
    F = Field(d)
    partial = []
    u = (1, 0)
    for row in rows:
        n = int(row["n"])
        u = F.mul(u, F.unit)
        total = abs(F.norm((u[0] - 1, u[1])))
        if int(row["norm_total"]) != total:
            _fail(what, n, "norm_total")
        if row["factor_status"] == "partial":
            partial.append(n)
        elif int(row["squarefree_norm"]) * int(row["squarefull_norm"]) != total:
            _fail(what, n, "squarefree_norm * squarefull_norm != norm_total")
    return partial

