"""Triad records: a vector-closed triad with its frequencies and
discrepancy, the discrepancy-bound reports, the residual terms of both
number systems, their sign-pattern rule and rounding of |Omega| and
min |w|, and the columns that candidates are built into and triads read."""

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

    key = members

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


def _omegas(X, m, x) -> np.ndarray:
    """The frequencies of modes with m components ``m`` and kernel-table
    values ``x``: x on the float grid, Fractions -2m/a on the exact a."""
    if X.dtype == np.float64:
        return x
    return np.frompyfunc(Fraction, 2, 1)(-2 * m, x)


def _terms(X, m, x):
    """The terms whose RESIDUALS are triads' Omega, and their common
    denominator, from the members' m = (m1, m2, m3) and table values
    x = (a1, a2, a3) in X's number system (m1 may be a scalar): x and None
    on floats; m1 a2 a3, m2 a1 a3, m3 a1 a2 over a1 a2 a3 on the exact
    a = n(n+1), each pattern's Omega being -2N / (a1 a2 a3)."""
    if X.dtype == np.float64:
        return (*x, None)
    (m1, m2, m3), (a1, a2, a3) = m, x
    return m1 * a2 * a3, m2 * a1 * a3, m3 * a1 * a2, a1 * a2 * a3


def _scaled(t1, t2, t3, den, a, with_min):
    """|Omega| and min |w| of triads from their :func:`_terms` and least
    |residual| a, each rounded once on the exact table (min only
    ``with_min``): a and min |t|, or 2a and 2 min |t| over a1 a2 a3."""
    if den is None or with_min:
        amin = np.minimum(np.minimum(np.abs(t2), np.abs(t3)), np.abs(t1))
    if den is None:
        return a, amin
    return np.asarray(2 * a / den, float), 2 * amin / den if with_min else None


def _at(X, m, n):
    """X[m, n] by flat offset m R + n, or from the exact table's one row."""
    exact = X.dtype != np.float64
    return X[0].take(n) if exact else X.ravel().take(m * X.shape[1] + n)


def _step(X, m1, n1, x2, x3, m2, m3, patterns, with_min):
    """The scan's and the bridges' |Omega| and min |w| (:func:`_scaled`) of
    triads on the table X, at the least |residual| of :func:`_least_abs`."""
    terms = _terms(X, (m1, m2, m3), (_at(X, m1, n1), x2, x3))
    return _scaled(*terms, _least_abs(*terms[:3], patterns), with_min)


def _pattern(t1, t2, t3, patterns):
    """Residual, and the index of its sign pattern in SIGN_PATTERNS, of the
    sum pattern, or of the first pattern of least |residual| when
    patterns="all", elementwise on arrays of any numbers."""
    om, *others = (r(t1, t2, t3) for r in RESIDUALS[:len(
        SIGN_PATTERNS) if patterns == "all" else 1])
    best = np.zeros(len(om), dtype=np.int64)
    for i, o in enumerate(others, 1):
        less = abs(o) < abs(om)
        om, best = np.where(less, o, om), np.where(less, i, best)
    return om, best


def _signed(X, patterns, m, x):
    """Omega and its pattern's index (:func:`_pattern` of the :func:`_terms`
    of members' m and table values x): floats, or one Fraction -2N/(a1 a2 a3)
    a row, chosen on integers, whose positive denominator keeps the order."""
    *terms, den = _terms(X, m, x)
    om, best = _pattern(*terms, patterns)
    if den is not None:
        om = np.frompyfunc(Fraction, 2, 1)(-2 * om, den)
    return om, best


@dataclass(frozen=True, eq=False)
class TriadColumns:
    """Triads as columns, one element per triad: the members' coordinates
    (k3 = (m1 + m2, n3)), the signed residual ``discrepancy`` of the chosen
    sign pattern (float64, or ``Fraction``s on the exact path), ``pattern``,
    its index in SIGN_PATTERNS, ``d_ratio``, and the per-mode ``table``
    that gives each member its frequency (:meth:`modes`).  What a search
    finds, before any :class:`Triad` is made."""

    m1: np.ndarray
    n1: np.ndarray
    m2: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    discrepancy: np.ndarray
    pattern: np.ndarray
    d_ratio: np.ndarray
    table: np.ndarray

    def __len__(self) -> int:
        return len(self.d_ratio)

    def members(self) -> tuple:
        """The coordinate arrays (m, n) of k1, k2 and k3."""
        return ((self.m1, self.n1), (self.m2, self.n2),
                (self.m1 + self.m2, self.n3))

    def __getitem__(self, index) -> TriadColumns:
        """The rows ``index``: an index array or a slice, on one table."""
        *columns, table = vars(self).values()
        return TriadColumns(*(c[index] for c in columns), table)

    def modes(self):
        """The distinct members of the rows (at least one) as arrays (m, n)
        and their positions as bits (1: k1, 2: k2, 4: k3), their frequencies
        on the table (:func:`_omegas`), and a function from modes (m, n) to
        their places, marked 4,096 rows at a time over the keys m R + n of
        the table (np.unique would import numpy.ma; a sort, its kernels)."""
        R, seen = self.table.shape[1], np.zeros(self.table.size, np.uint8)
        for lo in range(0, len(self), 4096):
            rows = self if len(self) <= 4096 else self[lo:lo + 4096]
            for bit, (m, n) in enumerate(rows.members()):
                seen[m * R + n] |= 1 << bit
        modes, place = np.flatnonzero(seen > 0), np.zeros(seen.size, np.int32)
        place[modes] = np.arange(modes.size)
        m, n = np.divmod(modes, R)
        return ((m, n, seen[modes]), _omegas(self.table, m, self.table[m, n]),
                lambda m, n: place.take(m * R + n))

    def triads(self) -> list:
        """The rows as Triads (:func:`_triads`) on their own :meth:`modes`."""
        return _triads(self, self.modes()) if len(self) else []


def _triads(c, modes) -> list:
    """The rows of columns ``c`` as Triads, on the :meth:`TriadColumns.modes`
    of columns that hold them: one WaveVector and frequency a mode."""
    (m, n, _), w, index = modes
    ks = np.fromiter(map(WaveVector, m.tolist(), n.tolist()), object, m.size)
    at = [index(m, n) for m, n in c.members()]
    return [Triad(*t) for t in zip(
        *(ks[i].tolist() for i in at), zip(*(w[i].tolist() for i in at)),
        c.discrepancy.tolist(), c.d_ratio.tolist(),
        map(SIGN_PATTERNS.__getitem__, c.pattern.tolist()))]


def _build(X, patterns, cand) -> TriadColumns:
    """The candidates ``cand`` = (m1, n1, m2, n2, n3), arrays in scan
    order, as columns on the table X from one :func:`_terms` and one
    :func:`_pattern` pass: Omega and its pattern as :func:`_signed` gives
    them, and d = |Omega| / min |w| rounded as by the scan's :func:`_step`
    (:func:`_scaled`), so on the exact table a row's one Fraction is Omega,
    read as no float.  The members are gathered one column at a time."""
    m1, n1, m2, n2, n3 = cand
    m = m1, m2, m1 + m2
    *terms, den = _terms(X, m, [_at(X, *k) for k in zip(m, (n1, n2, n3))])
    om, best = _pattern(*terms, patterns)
    a, amin = _scaled(*terms, den, np.abs(om), True)
    if den is not None:
        om = np.frompyfunc(Fraction, 2, 1)(-2 * om, den)
    return TriadColumns(m1, n1, m2, n2, n3, om, best,
                        np.asarray(a / amin, float), X)
