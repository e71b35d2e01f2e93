"""The two headline scans.

(A) Wieferich-ideal scan: for each n, split the ideal generated by the n-th
cyclotomic value of a powered unit, and look for a prime ideal P of
valuation exactly 1 with p coprime to n and v**n != 1 mod P**2.  Both
conditions on v at such a P are theorems, not checks.  For p not dividing
n, x**n - 1 = prod over d | n of Phi_d(x) is separable mod p, so v mod P is
a root of Phi_n and of no other Phi_d: v has residue order exactly n, and
v_P(v**n - 1) = v_P(Phi_n(v)) = 1, so v**n != 1 mod P**2.  Distinct n give
distinct ideals, so a window count turns the successes into a lower bound
on rational primes up to X.  A row needs one such ideal, not the complete
factorization of N(Phi_n(v)): the trial phase of factoring lists the primes
up to its bound B with exact exponents and leaves only primes above B, so a
listed candidate is the smallest one, and with B >= norm_base**n no
unlisted prime is a candidate.  Either way the row is decided (factor_status
`sufficient` when a cofactor is left unsearched); the rho/ECM search runs
only on the rows that neither case decides.

(B) p-rationality scan for real quadratic fields: a prime p (odd,
unramified, coprime to the class number and above the excluded-prime bound)
is classified through the Fermat-quotient test eps**(N(P)-1) mod P**2 at
the primes P above p.  A nontrivial quotient at any P certifies
p-rationality; the all-trivial outcome is reported as non-p-rational at
criterion level.  With k = (disc|p), one condition on eps**(p-k) mod p**2
settles the test:

- split p = P*P': O/p**2 = O/P**2 x O/P'**2, and eps**(p-1) = 1 mod P**2
  exactly when it holds mod P'**2, since eps*eps' = +-1 makes the images
  a, b of eps in Z/p**2 satisfy a**(p-1) * b**(p-1) = 1.  So both quotients
  are trivial exactly when eps**(p-1) = 1 mod p**2.  The power cannot be
  -1 mod p**2, as eps**(p-1) = 1 mod p by Fermat at P and P'.
- inert p: (O/p**2)^x is the product of the roots of unity c with
  c**(p**2-1) = 1 (the Teichmueller lifts of F_(p**2)^x) and 1 + p*O, so
  eps = c*(1 + p*z) mod p**2.  As eps**p = eps' mod p, c**(p+1) is the root
  of unity that is N(eps) mod p, which is N(eps) = +-1 itself; so
  eps**(p+1) = N(eps)*(1 + p*z) mod p**2.  Hence eps**(p**2-1) = 1 mod p**2
  exactly when p | z, that is when eps**(p+1) = +-1 mod p**2.

In both cases the quotients are trivial exactly when eps**(p-k) = +-1 mod
p**2, and a Lucas ladder decides that with two products mod p**2 per bit of
the exponent.  Let eta = eps**2, of norm 1 and trace T, and h = (p-k)/2, so
that eps**(p-k) = eta**h.  Both cases above give eta**h = c*(1 + p*z) mod
p**2 with c = +-1, and N(eta**h) = 1 gives 1 + p*Tr(z) = 1 mod p**2, so
Tr(z) = 2*x(z) + t*y(z) = 0 mod p; p odd then makes p | z exactly when
p | y(z).  So the quotients are trivial exactly when p**2 | y(eta**h).  The
sequence V_j = eta**j + eta'**j (V_0 = 2, V_1 = T, V_2j = V_j**2 - 2,
V_2j+1 = V_j*V_j+1 - T) has 2*V_h+1 - T*V_h = (eta - eta')*(eta**h - eta'**h)
= y(eta)*disc*y(eta**h), as eta - eta' = y(eta)*sqrt(disc).  disc is a unit
at p, so with e = v_p(y(eta)) the quotients are trivial exactly when
W_h = 2*V_h+1 - T*V_h = 0 mod p**(2+e).  For eps = +-1, eta = 1 and every
quotient is trivial.  For the fundamental discriminant disc, p -> (disc|p)
is a Dirichlet character mod disc, so k depends only on p mod disc; the
scan computes it once per residue class.

W_n = (eta - eta')*(eta**n - eta'**n) gives the addition law
2*W_A+t = W_A*V_t + V_A*W_t, with V_-t = V_t and W_-t = -W_t as
eta*eta' = 1 (Joye and Quisquater, Electronics Letters 32, 1996).  So up to
four primes run one ladder, to a base index A, modulo the product Q of their
moduli M_i = p_i**(2+e_i), and each takes one step from there to its own h
with the exact V_t and W_t of its offset t = h - A: as M_i | Q, the ladder
gives V_A and W_A mod M_i, and as 2 is a unit mod M_i the step is 0 mod M_i
exactly when W_h is, so the verdict is the one its own ladder gives.

Plus a rational-prime-level scan for user-supplied units of arbitrary
degree.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .factorint import _TRIAL_BOUND, FactorCache, Status, factor, ideal_valuations, primes
from .polyarith import (
    common_root_mod_p,
    cyclotomic,
    discriminant,
    euler_phi,
    hensel_lift,
    jacobi,
    power_poly,
    prem,
    resultant,
)
from .quadfield import QuadField, QuadInt, Splitting, excluded_prime_bound, minpoly_of

if TYPE_CHECKING:   # numerics is imported where part (A) uses it: scan-prational never loads it
    from .numerics import AlgebraicUnit, GrowthConstants

# factor_status of a row, how far its integer was factored: a Status value,
# or this one
SUFFICIENT = "sufficient"   # the trial phase decided the row; its cofactor is unsearched

SUCCESS = "success"
NO_QUALIFYING_PRIME = "no_qualifying_prime"
SKIPPED = "skipped"

REASON_PHI = "phi_condition"
REASON_PARTIAL = "partial_factorization"

EXCLUDED = "excluded"
P_RATIONAL = "p_rational"
NON_P_RATIONAL = "non_p_rational"

REASON_RAMIFIED = "ramified"
REASON_CLASS_NUMBER = "divides_class_number"
REASON_BELOW_P0 = "below_p0"


class ScanRecord(NamedTuple):
    """One row of the Wieferich-ideal scan: a success exactly when a prime is
    chosen, skipped when a reason is given, no_qualifying_prime otherwise."""

    n: int
    cyclo_norm: int
    factor_status: str | None
    prime: int | None
    residue_degree: int | None
    ideal_norm: int | None
    root: int | None              # Hensel root mod p**2 identifying the ideal; None if inert
    status: str
    reason: str = ""


class PRationalityVerdict(NamedTuple):
    p: int
    verdict: str
    reason: str
    witnesses: tuple[tuple[int, bool], ...]   # (N(P), fermat quotient nonzero)


def _settled(fact_status: Status, found: bool, gamma: Fraction, n: int) -> bool:
    """Whether a row is decided without the search, from its trial phase.

    Every prime of a TRIAL cofactor exceeds _TRIAL_BOUND, and every prime the
    trial phase lists is below it, with its exact exponent.  So a candidate
    among the listed primes beats any prime of the cofactor, and when
    _TRIAL_BOUND >= gamma**n no prime of the cofactor is a candidate at all."""
    from .numerics import compare_with_power

    return (
        fact_status is not Status.TRIAL
        or found
        or compare_with_power(_TRIAL_BOUND, gamma, n) >= 0
    )


_NO_CHOICE = (None, None, None, None)   # prime, residue_degree, ideal_norm, root


def _scan_row(
    n: int, cyclo_norm: int, factorize, choose, gamma: Fraction, table: FactorCache
) -> ScanRecord:
    """The row of level n.  ``factorize(trial)`` factors its integer (or
    ideal) in ``table``, and ``choose`` picks (p, residue degree, N(P), root)
    of the candidate from that, or None.  A level with 2*phi(n) < n is
    skipped unfactored.  The trial phase runs first, the search only where
    _settled leaves the row open and the budget is above 0; a row left open
    without a complete search gives no choice."""
    if 2 * euler_phi(n) < n:
        return ScanRecord(n, cyclo_norm, None, *_NO_CHOICE, SKIPPED, REASON_PHI)
    fact = factorize(True)
    chosen = choose(fact)
    if _settled(fact.status, chosen is not None, gamma, n):
        table.counts["settled"] += 1
        factor_status = SUFFICIENT if fact.status is Status.TRIAL else Status.COMPLETE.value
    else:
        if table.rho_budget:   # at budget 0 the TRIAL result stands
            table.counts["searched"] += 1
            fact = factorize(False)
        if fact.status is not Status.COMPLETE:
            table.counts["partial"] += 1
            return ScanRecord(n, cyclo_norm, Status.PARTIAL.value, *_NO_CHOICE, SKIPPED, REASON_PARTIAL)
        chosen, factor_status = choose(fact), Status.COMPLETE.value
    if chosen is None:
        return ScanRecord(n, cyclo_norm, factor_status, *_NO_CHOICE, NO_QUALIFYING_PRIME)
    return ScanRecord(n, cyclo_norm, factor_status, *chosen, SUCCESS)


def _cyclotomic_value(n: int, v: QuadInt) -> QuadInt:
    """Phi_n(v) = r0 + r1*v, for the remainder r0 + r1*x of Phi_n by the
    minimal polynomial of v.  That polynomial is monic, so prem is the exact
    remainder, and each of its steps multiplies by the trace and norm of v
    only, where Horner's rule would multiply by v at every coefficient."""
    r0, r1 = (*prem(cyclotomic(n), minpoly_of(v)).coeffs, 0, 0)[:2]
    return v * r1 + r0


def wieferich_scan(
    u: QuadInt,
    constants: GrowthConstants,
    n_max: int,
    table: FactorCache,
) -> list[ScanRecord]:
    """Scan n = 1..n_max for Wieferich-free prime ideals of the cyclotomic
    values of v = u**power.

    Candidates at level n are the unramified prime ideals of valuation
    exactly 1 in (Phi_n(v)) whose rational prime does not divide n and whose
    norm is at most norm_base**n.  Each meets v**n != 1 mod P**2 (module
    docstring, part (A)), so the smallest (p, hensel root) wins.  Each row
    runs the trial phase of factoring first and the search only when that
    leaves the row open (see _settled), in ``table``,
    whose ``counts`` keep the rows "settled", "searched" and "partial".
    Rows are emitted for every n, including failures and skips.
    """
    from .numerics import compare_with_power

    if not u.is_unit():
        raise ValueError("u must be a unit")
    v = u ** constants.power
    gamma = constants.norm_base

    def chosen_ideal(split, n):
        P = min(
            (
                P
                for P, val in split.entries
                if val == 1
                and P.splitting is not Splitting.RAMIFIED
                and n % P.p != 0
                and compare_with_power(P.norm, gamma, n) <= 0
            ),
            key=lambda P: (P.p, P.hensel_root if P.hensel_root is not None else -1),
            default=None,
        )
        return None if P is None else (P.p, P.residue_degree, P.norm, P.hensel_root)

    records = []
    for n in range(1, n_max + 1):
        value = _cyclotomic_value(n, v)
        records.append(
            _scan_row(
                n, abs(value.norm()),
                lambda trial: ideal_valuations(value, table, trial, n, v.norm()),
                lambda split: chosen_ideal(split, n),
                gamma, table,
            )
        )
    return records


def count_window(constants: GrowthConstants, X: int, n_max: int) -> int:
    """n_stop, the largest n with norm_base**n <= X; refused beyond n_max, before the scan."""
    from .numerics import _least_power

    # the least k with gamma**k > X, estimated from logarithms (gamma**k has
    # millions of digits at X = 1e4299); gamma > 4, so k < 10^6 for every X
    # of fewer than 600000 digits
    n_stop = _least_power(constants.norm_base, X, strict=True) - 1
    if n_max < n_stop:
        raise ArithmeticError(f"the scan covers n <= {n_max} but the window needs n <= {n_stop}")
    return n_stop


def count_report(records: list[ScanRecord], constants: GrowthConstants, X: int, n_stop: int) -> dict:
    """Window count of scan successes for n in [n_start, n_stop] (see
    count_window), as the footer keys of scan-wieferich --X."""
    window = [r for r in records if constants.n_start <= r.n <= n_stop and r.reason != REASON_PHI]
    successes = [r for r in window if r.status == SUCCESS]
    distinct = len({r.prime for r in successes})
    lower = -(-len(successes) // constants.degree)
    density = len(successes) / (constants.degree * math.log(X)) if X > 1 else 0.0
    return {
        "X": X,
        "window_n_start": constants.n_start,
        "window_n_stop": n_stop,
        "eligible_n": len(window),
        "successes": len(successes),
        "distinct_rational_primes": distinct,
        "prime_count_lower_bound": lower,
        "log_density": density,
    }


_GROUP = 4   # primes per group, so verdicts lag reads by 3; groups of 8 ran 8% faster, of 2 27% slower
_WIDTH = 4096   # bits of the widest V_t a group's offsets t may need


def _lucas_steps(a: int, b: int, bits: str, T: int, M: int) -> tuple[int, int]:
    """(V_i, V_i+1) mod M from (V_j, V_j+1) mod M, where i is j with the
    binary digits ``bits`` appended and T = V_1 mod M."""
    for bit in bits:
        if bit == "1":
            a, b = (a * b - T) % M, (b * b - 2) % M
        else:
            a, b = (a * a - 2) % M, (a * b - T) % M
    return a, b


def _lucas_terms(terms: dict[int, tuple[int, int]], T: int, n: int) -> dict[int, tuple[int, int]]:
    """``terms``, the exact pairs (V_t, W_t) of trace T for |t| up to its
    largest key, extended to |t| <= n: V_t+1 = T*V_t - V_t-1, W_t = 2*V_t+1
    - T*V_t obeys the same recurrence, and V_-t = V_t, W_-t = -W_t.

    >>> terms = _lucas_terms({0: (2, 0), -1: (3, -5)}, 3, 4)
    >>> [terms[t] for t in range(-2, 5)]
    [(7, -15), (3, -5), (2, 0), (3, 5), (7, 15), (18, 40), (47, 105)]
    """
    for t in range(max(terms) + 1, n + 1):
        (v0, w0), (v1, w1) = terms[t - 2], terms[t - 1]
        v, w = T * v1 - v0, T * w1 - w0
        terms[t], terms[-t] = (v, w), (v, -w)
    return terms


def _classifier(
    F: QuadField, unit: QuadInt | None, p0: int | None
) -> Callable[[Iterable[int]], Iterator[PRationalityVerdict]]:
    """classify_prime for one field and unit, over an iterable of primes:
    their verdicts in order, with the unit check, the excluded bound,
    T = Tr(u**2) and y(u**2) computed once, and k = (disc|p) once per class
    of p mod disc.  Groups of up to _GROUP classified primes run one ladder
    to the middle A of their indices h, and each prime steps to its h with
    the exact terms of t = h - A from one table (module docstring, part
    (B)); a group takes no h whose V_t would pass _WIDTH bits (V_t <
    T**t).  A group is finished when full, when a prime that cannot join it
    is read, or at the end, so the k-th verdict is out once k + _GROUP - 1
    primes are read."""
    u = F.fundamental_unit if unit is None else unit
    if not u.is_unit():
        raise ValueError("unit argument must be a unit")
    bound = excluded_prime_bound(F) if p0 is None else p0
    eta = u * u
    trace, y_eta = eta.trace(), eta.y
    disc, class_number = F.disc, F.class_number
    characters: dict[int, int] = {}   # p % disc -> (disc|p)
    terms = {0: (2, 0), -1: (trace, 4 - trace * trace)}   # (V_t, W_t), extended as offsets need
    span = 2 * (_WIDTH // trace.bit_length())   # the widest hi - lo of a group

    def verdict(p: int, k: int, flag: bool) -> PRationalityVerdict:
        witnesses = ((p, flag), (p, flag)) if k == 1 else ((p * p, flag),)
        return PRationalityVerdict(p, P_RATIONAL if flag else NON_P_RATIONAL, "", witnesses)

    def finish(group: list[tuple[int, int, int, int]], lo: int, hi: int) -> Iterator[PRationalityVerdict]:
        """The verdicts of the pending group of (p, k, h, M = p**(2+e)), its
        h from lo to hi, which is left empty; none if it is empty."""
        if not group:
            return
        A = (lo + hi) >> 1
        Q = math.prod([M for *_, M in group])
        T = trace % Q
        a, b = _lucas_steps(T, (T * T - 2) % Q, bin(A)[3:], T, Q)   # V_A, V_A+1 from V_1, V_2
        w = 2 * b - T * a   # W_A mod Q
        if hi - A not in terms:
            _lucas_terms(terms, trace, hi - A)
        for p, k, h, M in group:   # M | Q, so a and w reduce to V_A, W_A mod M
            v_t, w_t = terms[h - A]
            yield verdict(p, k, (w * v_t + a * w_t) % M != 0)
        group.clear()

    def classify(ps: Iterable[int]) -> Iterator[PRationalityVerdict]:
        group: list[tuple[int, int, int, int]] = []
        lo = hi = 0   # the least and greatest h of the group
        for p in ps:
            if disc % p == 0:
                reason = REASON_RAMIFIED
            elif class_number % p == 0:
                reason = REASON_CLASS_NUMBER
            elif p <= bound:
                reason = REASON_BELOW_P0
            else:
                r = p % disc
                k = characters.get(r)
                if k is None:
                    k = characters[r] = jacobi(disc, p)
                if y_eta:   # else u = +-1, whose quotients are all trivial
                    M, pe = p * p, p   # M = p**(2+e), e = v_p(y(eta))
                    while y_eta % pe == 0:
                        M, pe = M * p, pe * p
                    h = (p - k) >> 1
                    if group and not hi - span <= h <= lo + span:
                        yield from finish(group, lo, hi)
                    if not group:
                        lo = hi = h
                    elif h > hi:
                        hi = h
                    elif h < lo:
                        lo = h
                    group.append((p, k, h, M))
                    if len(group) == _GROUP:
                        yield from finish(group, lo, hi)
                    continue
                reason = ""
            yield from finish(group, lo, hi)
            yield PRationalityVerdict(p, EXCLUDED, reason, ()) if reason else verdict(p, k, False)
        yield from finish(group, lo, hi)

    return classify


def classify_prime(
    F: QuadField,
    p: int,
    unit: QuadInt | None = None,
    p0: int | None = None,
) -> PRationalityVerdict:
    """Classify one prime: excluded (hypothesis failure or below the excluded
    bound), p-rational (some Fermat quotient nonzero), or non-p-rational.

    The witnesses are those of the primes P above p, as (N(P), flag) with
    flag true when u**(N(P)-1) != 1 mod P**2.  One Lucas ladder on u**2 to
    the index h = (p - k)/2, k = (disc|p), settles them (see the module
    docstring, part (B)).  A split p gives ((p, f), (p, f)), the same flag
    at P and P'; an inert p gives ((p**2, f),).  This is the scan's
    classifier on a group of one prime, whose ladder runs to A = h modulo
    M = p**(2+e) alone; in a scan, each prime takes one addition step from
    its group's ladder, with the same verdict.
    """
    return next(_classifier(F, unit, p0)([p]))


def prationality_scan(F: QuadField, X: int, unit: QuadInt | None = None) -> Iterator[PRationalityVerdict]:
    """The verdicts of the odd primes p <= X, in order, as they are computed."""
    return _classifier(F, unit, None)(primes(X))


# --- rational-prime-level scan for user-supplied units ----------------------

def generic_unit_scan(
    unit: AlgebraicUnit,
    constants: GrowthConstants,
    n_max: int,
    table: FactorCache,
) -> list[ScanRecord]:
    """Rational-prime-level scan for a user-supplied unit of any degree.

    Candidates at level n are the primes p that divide |Res(g, Phi_n)|
    exactly once, for the minimal polynomial g of the powered unit, with p
    not dividing n * disc(g) and p <= norm_base**n; the smallest wins.  Over
    Z_p, g is then a product of distinct unramified factors, with roots
    beta_j of residue degree f_j, and sum_j f_j * v_p(Phi_n(beta_j)) = 1: one
    beta, of degree 1, has v_p(Phi_n(beta)) = 1, so gcd(g, Phi_n) mod p is
    x - r for its root r mod p.  p does not divide n, so x**n - 1 is
    separable mod p, r has order n and v_p(beta**n - 1) = 1: the lift r2 of
    r mod p**2 has r2**n != 1.  Factoring and ``table`` are as in
    wieferich_scan; ``constants`` come from growth_constants(unit), which
    refuses a unit with a conjugate on the unit circle.
    """
    from .numerics import compare_with_power

    g = power_poly(unit.minpoly, constants.power)
    disc_g = abs(discriminant(g))
    if disc_g == 0:
        raise ValueError("powered unit has repeated conjugates; use a different power or unit")
    gamma = constants.norm_base
    sign = (-1) ** g.degree() * g.coeffs[0]   # N(v), the product of the roots of g

    def first_prime(fact, n):
        p = next(
            (
                p
                for p, e in fact.factors
                if e == 1
                and n % p != 0
                and disc_g % p != 0
                and compare_with_power(p, gamma, n) <= 0
            ),
            None,
        )
        if p is None:
            return None
        return p, 1, p, hensel_lift(g, common_root_mod_p(g, cyclotomic(n), p), p, 2)

    records = []
    for n in range(1, n_max + 1):
        r_cyclo = abs(resultant(cyclotomic(n), g))
        records.append(
            _scan_row(
                n, r_cyclo,
                lambda trial: factor(r_cyclo, table, trial, n, g.degree(), sign),
                lambda fact: first_prime(fact, n),
                gamma, table,
            )
        )
    return records
