"""Candidate counts of the triad searches, worked out from the domain alone.

A candidate is one vector-closed triple (or, on the exact path, one donor
pair) that a search examines before any frequency threshold applies.  The
counts follow the searches' documented enumeration rules:

``both``
    pairs k1 <= k2 (lexicographic, k1 == k2 allowed) with k1 + k2 inside
    the square domain; one candidate per pair.
``zonal``
    pairs k1 <= k2 with m1 + m2 <= T, times every admissible n3 of the
    derived zonal wavenumber.  ``strict`` drops the k1 == k2 pairs (the
    rational path enumerates k1 < k2 only); ``skip_equal_n`` drops every
    pair with n1 == n2.
``exact``
    donor pairs k1 < k2 with m1 + m2 <= T on the rational path, where n3 is
    solved for instead of scanned.
``box``
    pairs k1 < k2 with m1 + m2 <= T, one candidate per admissible n3 in
    {n1 + n2, |n1 - n2|}; the difference in m never yields k3 > k2, so it
    contributes nothing.

Each count costs O(T^2) and never calls the program.  ``enumerate_*``
functions are the explicit O(T^4) enumerations the tests compare against.
"""

from __future__ import annotations

from functools import lru_cache


def _row_lo(m: int, triangular: bool) -> int:
    return m if triangular else 1


@lru_cache(maxsize=None)
def count_both(T: int) -> int:
    total = 0
    for m1 in range(1, T):
        m2_max = T - m1
        if m1 > m2_max:
            break
        for n1 in range(1, T):
            n2_max = T - n1
            total += max(0, n2_max - n1 + 1)          # m2 == m1, n2 >= n1
            total += max(0, m2_max - m1) * n2_max     # m2 > m1
    return total


@lru_cache(maxsize=None)
def count_zonal(T: int, triangular: bool, skip_equal_n: bool,
                strict: bool = False) -> int:
    total = 0
    for m1 in range(1, T):
        n1_lo = _row_lo(m1, triangular)
        n1_count = T - n1_lo + 1
        for m2 in range(m1, T - m1 + 1):
            m3 = m1 + m2
            cols = T - _row_lo(m3, triangular) + 1
            if cols <= 0:
                continue
            if m2 == m1:
                # n2 runs from n1 (strict: n1 + 1) to T.
                pairs = sum(T - n1 + (0 if strict else 1)
                            for n1 in range(n1_lo, T + 1))
                if skip_equal_n and not strict:
                    pairs -= n1_count
            else:
                n2_lo = _row_lo(m2, triangular)
                pairs = n1_count * (T - n2_lo + 1)
                if skip_equal_n:
                    pairs -= max(0, T - max(n1_lo, n2_lo) + 1)
            total += pairs * cols
    return total


@lru_cache(maxsize=None)
def count_exact_pairs(T: int, triangular: bool, skip_equal_n: bool) -> int:
    total = 0
    for m1 in range(1, T):
        n1_lo = _row_lo(m1, triangular)
        for m2 in range(m1, T - m1 + 1):
            if m2 == m1:
                pairs = sum(T - n1 for n1 in range(n1_lo, T + 1))
            else:
                n2_lo = _row_lo(m2, triangular)
                pairs = (T - n1_lo + 1) * (T - n2_lo + 1)
                if skip_equal_n:
                    pairs -= max(0, T - max(n1_lo, n2_lo) + 1)
            total += pairs
    return total


@lru_cache(maxsize=None)
def count_box(T: int) -> int:
    sum_ok = T * (T - 1) // 2            # (n1, n2) in [1, T]^2, n1 + n2 <= T
    diff_ok = T * T - T                  # (n1, n2) in [1, T]^2, n1 != n2
    ordered_sum_ok = sum(max(0, T - 2 * n1) for n1 in range(1, T + 1))
    ordered_pairs = T * (T - 1) // 2     # n1 < n2, so n1 != n2 always
    total = 0
    for m1 in range(1, T):
        for m2 in range(m1, T - m1 + 1):
            if m2 == m1:
                total += ordered_sum_ok + ordered_pairs
            else:
                total += sum_ok + diff_ok
    return total


def search_candidates(op: str, exact_kind: bool, T: int, shape: str,
                      closure: str, skip_equal_n: bool = True) -> int:
    """Candidates examined by one search call.

    ``op`` is ``near``, ``maxd`` or ``ari`` (threshold scans) or ``exact``
    (the rational pair solve); ``closure`` is already resolved (never
    ``auto``).
    """
    triangular = shape == "triangular"
    if op == "exact":
        return count_exact_pairs(T, triangular, skip_equal_n)
    if exact_kind:
        return count_zonal(T, triangular, skip_equal_n, strict=True)
    if closure == "zonal":
        return count_zonal(T, triangular, skip_equal_n)
    if closure == "box":
        return count_box(T)
    return count_both(T)


# -- explicit enumerations (reference for the tests) -------------------------

def _modes(T: int, triangular: bool):
    return [(m, n) for m in range(1, T + 1)
            for n in range(_row_lo(m, triangular), T + 1)]


def _inside(k, T: int, triangular: bool) -> bool:
    m, n = k
    return 1 <= m <= T and 1 <= n <= T and (not triangular or m <= n)


def enumerate_both(T: int) -> int:
    modes = _modes(T, False)
    return sum(1 for k1 in modes for k2 in modes
               if k1 <= k2 and _inside((k1[0] + k2[0], k1[1] + k2[1]), T, False))


def enumerate_zonal(T: int, triangular: bool, skip_equal_n: bool,
                    strict: bool = False) -> int:
    modes = _modes(T, triangular)
    total = 0
    for k1 in modes:
        for k2 in modes:
            if k2 < k1 or (strict and k2 == k1):
                continue
            if skip_equal_n and k1[1] == k2[1]:
                continue
            m3 = k1[0] + k2[0]
            total += sum(1 for n3 in range(1, T + 1)
                         if _inside((m3, n3), T, triangular))
    return total


def enumerate_exact_pairs(T: int, triangular: bool, skip_equal_n: bool) -> int:
    modes = _modes(T, triangular)
    return sum(1 for k1 in modes for k2 in modes
               if k1 < k2 and k1[0] + k2[0] <= T
               and not (skip_equal_n and k1[1] == k2[1]))


def enumerate_box(T: int) -> int:
    modes = _modes(T, False)
    total = 0
    for k1 in modes:
        for k2 in modes:
            if not k1 < k2:
                continue
            for m3 in {k1[0] + k2[0], abs(k1[0] - k2[0])}:
                for n3 in {k1[1] + k2[1], abs(k1[1] - k2[1])}:
                    k3 = (m3, n3)
                    if _inside(k3, T, False) and k3 > k2:
                        total += 1
    return total
