"""Test oracle: the floor of a k-th root by bisection."""


def iroot_by_bisection(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, for k >= 1."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo
