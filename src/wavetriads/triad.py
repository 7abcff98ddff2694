"""Triad records: a vector-closed triad with its frequencies and
discrepancy, the discrepancy-bound reports, the sign-pattern rule, and
the rebuild of triads from a scan's candidate arrays and kernel table."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dispersion import OmegaValue, WaveVector

#: Sign patterns, up to an overall sign: which slot carries the minus.
SIGN_PATTERNS = ((1, 1, -1), (1, -1, 1), (-1, 1, 1))
#: Each pattern's residual s1*w1 + s2*w2 + s3*w3, without sign products.
RESIDUALS = (lambda a, b, c: a + b - c, lambda a, b, c: a - b + c,
             lambda a, b, c: -a + b + c)

#: d_ratio at or below which a floating-point triad is reported as
#: "numerically exact".  True zeros are only decidable on the rational path.
NUMERIC_EXACT_D = 1e-12


@dataclass(frozen=True)
class Triad:
    """A vector-closed triad with its frequencies and discrepancy.

    ``omegas`` are angular frequencies (exact rationals on the spherical
    path, floats otherwise); ``discrepancy`` is the signed residual
    s1*w1 + s2*w2 + s3*w3 for the stored sign pattern; ``d_ratio`` is
    |discrepancy| / min(|w1|, |w2|, |w3|), always a float.
    """

    k1: WaveVector
    k2: WaveVector
    k3: WaveVector
    omegas: tuple
    discrepancy: OmegaValue
    d_ratio: float
    signs: tuple = (1, 1, -1)

    @property
    def is_exact(self) -> bool:
        """Exact resonance: rational zero, or d_ratio <= 1e-12 on floats
        ("numerically exact")."""
        if isinstance(self.discrepancy, Fraction):
            return self.discrepancy == 0
        return self.d_ratio <= NUMERIC_EXACT_D

    @property
    def resonance_label(self) -> str:
        if isinstance(self.discrepancy, Fraction):
            return "exact" if self.discrepancy == 0 else "near"
        return "numerically_exact" if self.d_ratio <= NUMERIC_EXACT_D else "near"

    def members(self) -> tuple:
        return (self.k1, self.k2, self.k3)

    def key(self) -> tuple:
        return (self.k1, self.k2, self.k3)

    def __str__(self) -> str:
        return f"{self.k1}{self.k2}{self.k3}"


@dataclass(frozen=True)
class DiscrepancyBound:
    """A positive lower bound on nonzero |Omega| over a domain."""

    value: OmegaValue
    method: str  # rational_1_over_bd | finite_domain_min
    witness: Triad | None = None


@dataclass(frozen=True)
class BoundReport:
    """Result of discrepancy_lower_bound: the a-priori rational bound where
    available, and the finite-domain minimum with witness.  ``finite_min``
    is None when the domain has no vector-closed triad at all (the bound is
    undefined over an empty set, never zero)."""

    apriori: DiscrepancyBound | None
    finite_min: DiscrepancyBound | None
    note: str = ""


def _least_abs(t1, t2, t3, patterns):
    """|RESIDUALS[0]|, or the least |residual| over the sign patterns when
    patterns="all", elementwise on arrays of any numbers."""
    a = np.abs(RESIDUALS[0](t1, t2, t3))
    for residual in RESIDUALS[1:] if patterns == "all" else ():
        a = np.minimum(a, np.abs(residual(t1, t2, t3)))
    return a


def _omegas(X, m, n) -> np.ndarray:
    """The frequencies of the modes (m, n), integer arrays, on the kernel
    table X: its float64 values, or Fractions -2m/a on the exact a = n(n+1)."""
    if X.dtype == np.float64:
        return X[m, n]
    return np.array(list(map(Fraction, (-2 * m).tolist(), X[m, n].tolist())))


def _pattern(ws, patterns):
    """Signed residual and signs of the sum pattern, or of the
    minimal-|Omega| sign pattern when patterns="all"."""
    if patterns == "sum":
        return ws[0] + ws[1] - ws[2], (1, 1, -1)
    best = None
    for signs, residual in zip(SIGN_PATTERNS, RESIDUALS):
        om = residual(*ws)
        if best is None or abs(om) < abs(best[0]):
            best = (om, signs)
    return best


def _build(X, patterns, cand, keep) -> list:
    """Triads of the block candidates ``cand`` that the mask ``keep``
    selects, in scan order, carrying the table X's frequencies (_omegas):
    the rule of :func:`_pattern` (the first least |Omega|) and d = |Omega| /
    min |w| (Python's ``min``: a later |w| wins only if smaller) on arrays."""
    if not np.count_nonzero(keep):  # cheaper than keep.any() per block
        return []
    m1, n1, m2, n2, n3 = (c[keep] for c in cand)
    # The members' modes, each distinct one read once.  No np.unique
    # (its first call imports numpy.ma) and no sort (its first call maps in
    # the sort kernels): a presence table over the flat keys.
    R = int(max(n1.max(), n2.max(), n3.max())) + 1
    key = np.concatenate((m1, m2, m1 + m2)) * R + np.concatenate((n1, n2, n3))
    seen = np.zeros(int(key.max()) + 1, dtype=bool)
    seen[key] = True
    modes = np.flatnonzero(seen)
    ks = list(map(WaveVector, *(c.tolist() for c in np.divmod(modes, R))))
    at = np.searchsorted(modes, key)
    w1, w2, w3 = _omegas(X, *np.divmod(modes, R))[at].reshape(3, -1)
    k1, k2, k3 = np.fromiter(ks, object, len(ks))[at].reshape(3, -1)
    signs = SIGN_PATTERNS if patterns == "all" else SIGN_PATTERNS[:1]
    om, *others = (r(w1, w2, w3) for r in RESIDUALS[:len(signs)])
    best = np.zeros(len(om), dtype=int)
    for i, o in enumerate(others, 1):
        less = abs(o) < abs(om)
        om, best = np.where(less, o, om), np.where(less, i, best)
    low = np.abs(w1.astype(float))
    for w in (w2, w3):
        w = np.abs(w.astype(float))
        low = np.where(w < low, w, low)
    d = np.abs(om.astype(float)) / low
    return [Triad(*t) for t in zip(
        k1.tolist(), k2.tolist(), k3.tolist(),
        zip(w1.tolist(), w2.tolist(), w3.tolist()), om.tolist(), d.tolist(),
        [signs[i] for i in best.tolist()])]
