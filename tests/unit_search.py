"""Test oracle: the fundamental unit of a real quadratic field as the first
convergent h/k of the continued fraction of w whose element
h - k*conj(w) = (h - t*k) + k*w has norm +-1, each norm computed in full."""

import math


def fundamental_unit_by_norms(d: int, steps: int = 10_000) -> tuple[int, int]:
    omega_half = d % 4 == 1
    t = 1 if omega_half else 0
    s = (d - 1) // 4 if omega_half else d   # w**2 = s + t*w
    P, Q = (1, 2) if omega_half else (0, 1)  # w = (P + sqrt(d)) / Q
    sq = math.isqrt(d)
    h1, h2, k1, k2 = 1, 0, 0, 1
    for _ in range(steps):
        a = (P + sq) // Q
        h, k = a * h1 + h2, a * k1 + k2
        x, y = h - t * k, k
        if abs(x * x + t * x * y - s * y * y) == 1:
            return x, y
        h2, h1, k2, k1 = h1, h, k1, k
        P = a * Q - P
        Q = (d - P * P) // Q
    raise AssertionError(f"no unit within {steps} steps for d = {d}")
