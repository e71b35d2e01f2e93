"""Wieferich-ideal scans over cyclotomic values of units, abc-style radical
audits, and p-rationality classification for real quadratic fields."""

from .abcaudit import AbcTriple, SquarefullRow, height, squarefull_report, unit_triple
from .factorint import (
    Factorization,
    IdealSplit,
    Status,
    factor,
    ideal_valuations,
    is_prime,
    radical_of_ideal,
    split_unit_power,
)
from .numerics import (
    AlgebraicUnit,
    CircleTest,
    GrowthConstants,
    certify_roots,
    circle_test,
    growth_constants,
)
from .polyarith import (
    IntPoly,
    cyclotomic,
    euler_phi,
    power_poly,
    resultant,
)
from .quadfield import (
    PrimeIdealAboveP,
    QuadField,
    QuadInt,
    Splitting,
    excluded_prime_bound,
    make_field,
    minpoly_of,
    split_prime,
    unit_pow_mod_p2,
)
from .scans import (
    CountReport,
    PRationalityVerdict,
    ScanRecord,
    classify_prime,
    count_report,
    generic_unit_scan,
    prationality_scan,
    wieferich_scan,
)

__version__ = "0.1.0"
