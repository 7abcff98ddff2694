"""Wave vectors, spectral domains and dispersion relations.

Frequencies are angular (rad/s) everywhere inside the library; Hz appears
only at presentation time via :func:`to_hz`.  The spherical dispersion is
evaluated in exact rational arithmetic (`fractions.Fraction`), every other
relation in floating point.  Each float relation is written once, in
``_omega``, in libm's arithmetic: :func:`eval_frequency` evaluates it on
Python numbers, :func:`omega_grid` on float64 grids, bit for bit alike.

Supported dispersion kinds
--------------------------
``rossby_sphere``     omega = -2 m / (n (n + 1))          (exact rational)
``capillary``         omega = (m^2 + n^2)^(3/2)
``gravity_capillary`` omega^2 = g k + (mu/nu) k^3,  k = |(m, n)|
``gravity_tanh``      omega = k tanh(alpha k)
``bve_plane``         omega = kx / (1 + kx + ky)          (printed form)
                      omega = kx / (kx^2 + ky^2)          (squared form)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterator, NamedTuple, Union

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

#: c.g.s. defaults: g in cm/s^2, mu/nu in cm^3/s^2.
DEFAULT_G = 981.0

#: Surface tension over density for the four liquids quoted with the
#: gravity-capillary tables (c.g.s. units).
LIQUID_PRESETS = {
    "water": 75.0,          # clear water, 8 C
    "glycerine": 47.0,      # glycerine C3H5(OH)3, 20 C
    "benzol": 27.0,         # benzol C6H6, 60 C
    "benzaldehyde": 16.0,   # benzaldehyde C6H5CHO film on water, 20 C
}

OmegaValue = Union[Fraction, float]


class WaveVector(NamedTuple):
    """Integer wave vector (m, n), both components >= 1."""

    m: int
    n: int

    def __str__(self) -> str:
        return f"[{self.m},{self.n}]"


def _is_positive_int(x) -> bool:
    """True iff x is an integral value >= 1.  NaN and inf fail too: every
    comparison with NaN is false, and inf % 1 is NaN."""
    return x >= 1 and x % 1 == 0


def check_wavevector(k: WaveVector) -> WaveVector:
    """Validate positive integer components, returning the vector."""
    m, n = k
    if not (_is_positive_int(m) and _is_positive_int(n)):
        rule = ">= 1" if m % 1 == 0 and n % 1 == 0 else "integers"
        raise DomainError(f"wave vector components must be {rule}, got {k!r}")
    return WaveVector(int(m), int(n))


@dataclass(frozen=True)
class BasinGeometry:
    """Basin shape and side lengths (cm).  Only a ``rectangle`` takes sides
    other than Lx = Ly = 1; the other kinds refuse them."""

    kind: str = "unit_square"  # unit_square | rectangle | sphere | plane
    lx: float = 1.0
    ly: float = 1.0

    _KINDS = ("unit_square", "rectangle", "sphere", "plane")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown basin kind {self.kind!r}")
        if not (0 < self.lx < math.inf and 0 < self.ly < math.inf):
            raise DomainError("basin side lengths must be positive and "
                              f"finite, got {self.lx!r} x {self.ly!r}")
        if self.kind != "rectangle" and (self.lx != 1.0 or self.ly != 1.0):
            raise DomainError(f"{self.kind} basin requires Lx = Ly = 1")


@dataclass(frozen=True)
class DispersionSpec:
    """A named, parameterised dispersion relation.

    ``exactness`` is derived: only ``rossby_sphere`` evaluates to exact
    rationals; every other kind is floating point.
    ``plane_form`` selects between the printed plane dispersion
    (``"printed"``: kx/(1+kx+ky)) and the standard squared-wavenumber form
    (``"squared"``: kx/(kx^2+ky^2)); it is meaningful for ``bve_plane`` only
    and reads ``"printed"`` on every other kind.
    """

    kind: str
    g: float = DEFAULT_G
    mu_over_nu: float | None = None
    alpha: float | None = None
    basin: BasinGeometry = field(default_factory=BasinGeometry)
    plane_form: str = "printed"

    _KINDS = ("rossby_sphere", "capillary", "gravity_capillary",
              "gravity_tanh", "bve_plane")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown dispersion kind {self.kind!r}")
        if not 0 < self.g < math.inf:
            raise DomainError(f"g must be positive and finite, got {self.g!r}")
        for name in ("mu_over_nu", "alpha"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.kind == "gravity_capillary":
            if self.mu_over_nu is None or self.mu_over_nu <= 0:
                raise DomainError("gravity_capillary requires mu_over_nu > 0")
        if self.kind == "gravity_tanh":
            if self.alpha is None or self.alpha <= 0:
                raise DomainError("gravity_tanh requires alpha > 0")
        if self.plane_form not in ("printed", "squared"):
            raise DomainError(f"unknown plane_form {self.plane_form!r}")
        if self.kind != "bve_plane":
            # Meaningless off the plane and absent from to_config():
            # normalised, so that configurations round-trip.
            object.__setattr__(self, "plane_form", "printed")
        if self.kind == "rossby_sphere" and self.basin.kind not in ("sphere",):
            # Allow construction with the default basin, but normalise it.
            object.__setattr__(self, "basin", BasinGeometry(kind="sphere"))
        elif self.kind != "rossby_sphere" and self.basin.kind == "sphere":
            raise DomainError(f"{self.kind} has no relation on a sphere "
                              "basin")

    @property
    def exactness(self) -> bool:
        """True iff frequencies are exact rationals of the integer arguments."""
        return self.kind == "rossby_sphere"

    # -- serialisation ----------------------------------------------------

    def to_config(self) -> dict:
        cfg = {
            "kind": self.kind,
            "g": self.g,
            "basin": {"kind": self.basin.kind, "lx": self.basin.lx,
                      "ly": self.basin.ly},
        }
        if self.mu_over_nu is not None:
            cfg["mu_over_nu"] = self.mu_over_nu
        if self.alpha is not None:
            cfg["alpha"] = self.alpha
        if self.kind == "bve_plane":
            cfg["plane_form"] = self.plane_form
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "DispersionSpec":
        """The spec of a configuration dict (``to_config``'s form).  A
        value of the wrong type, like an unknown or missing key, raises
        DomainError naming it."""
        if not isinstance(cfg, dict):
            raise DomainError("a dispersion configuration must be an "
                              f"object, got {type(cfg).__name__}")
        known = {"kind", "g", "mu_over_nu", "alpha", "basin", "plane_form"}
        unknown = set(cfg) - known
        if unknown:
            raise DomainError(f"unknown configuration keys: {sorted(unknown)}")
        if "kind" not in cfg:
            raise DomainError("configuration key 'kind' is missing")
        basin_cfg = {} if cfg.get("basin") is None else cfg["basin"]
        if not isinstance(basin_cfg, dict):
            raise DomainError("configuration key 'basin' must be an object")
        unknown_b = set(basin_cfg) - {"kind", "lx", "ly"}
        if unknown_b:
            raise DomainError(
                f"unknown basin configuration keys: {sorted(unknown_b)}")

        def number(src, key, default, name=None):  # None where optional
            value = src.get(key, default)
            if value is None and default is None:
                return None
            try:
                return float(value)
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"configuration key {name or key!r} must "
                                  f"be a number, got {value!r}") from None

        basin = BasinGeometry(kind=basin_cfg.get("kind", "unit_square"),
                              lx=number(basin_cfg, "lx", 1.0, "basin lx"),
                              ly=number(basin_cfg, "ly", 1.0, "basin ly"))
        return cls(kind=cfg["kind"], g=number(cfg, "g", DEFAULT_G),
                   mu_over_nu=number(cfg, "mu_over_nu", None),
                   alpha=number(cfg, "alpha", None),
                   basin=basin, plane_form=cfg.get("plane_form", "printed"))


@dataclass(frozen=True)
class SpectralDomain:
    """Finite truncation of the integer lattice.

    ``square``: 1 <= m, n <= T (T^2 modes).
    ``triangular``: 1 <= m <= n <= T (T(T+1)/2 modes), the spherical shape.
    """

    truncation: int
    shape: str = "square"

    def __post_init__(self):
        T = self.truncation
        if not _is_positive_int(T):
            raise DomainError(f"truncation must be an integer >= 1, got {T!r}")
        object.__setattr__(self, "truncation", int(T))
        if self.shape not in ("square", "triangular"):
            raise DomainError(f"unknown domain shape {self.shape!r}")

    def __len__(self) -> int:
        T = self.truncation
        return T * T if self.shape == "square" else T * (T + 1) // 2

    def __contains__(self, k: WaveVector) -> bool:
        m, n = k  # integral components only, as modes() yields them
        if not (_is_positive_int(m) and _is_positive_int(n)):
            return False
        T = self.truncation
        return m <= T and n <= T and (self.shape == "square" or m <= n)

    def mode_arrays(self) -> tuple:
        """The modes as integer arrays (m, n), in (m, n) order."""
        ar = np.arange(self.truncation + 1)
        lo = ar[:, None] if self.shape == "triangular" else 1
        return np.nonzero((ar[:, None] > 0) & (ar >= lo))

    def modes(self) -> Iterator[WaveVector]:
        return map(WaveVector, *(a.tolist() for a in self.mode_arrays()))


def domain_for(spec: DispersionSpec, truncation: int) -> SpectralDomain:
    """Default domain shape for a spec: triangular on the sphere, square
    otherwise."""
    shape = "triangular" if spec.kind == "rossby_sphere" else "square"
    return SpectralDomain(truncation, shape)


@dataclass(frozen=True)
class Frequency:
    """Angular frequency; exact Fraction on the spherical path, float
    elsewhere.  ``hz`` is always a float."""

    omega: OmegaValue

    @property
    def hz(self) -> float:
        return float(self.omega) / TWO_PI

    @property
    def is_exact(self) -> bool:
        return isinstance(self.omega, Fraction)


def to_hz(omega: OmegaValue) -> float:
    """Convert an angular frequency (rad/s) to Hz."""
    return float(omega) / TWO_PI


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

#: ``math`` for :func:`_omega` on float64 grids: libm ``pow`` (numpy's
#: ``**`` may round otherwise: SIMD loops, x * x) and ``math.tanh`` per
#: element; sqrt and + - * / are correctly rounded everywhere.
_GRID_MATH = SimpleNamespace(
    sqrt=np.sqrt, pow=np.float_power,
    tanh=lambda x: np.frompyfunc(math.tanh, 1, 1)(x).astype(np.float64))


def _rescaled_norm_sq(spec: DispersionSpec, m, n, xp):
    """Basin-scaled squared scalar wavenumber S/(Lx*Ly) with
    S = (m Ly)^2 + (n Lx)^2; reduces to m^2 + n^2 on the unit square and on
    any square basin.  ``xp`` as in :func:`_omega`."""
    lx, ly = spec.basin.lx, spec.basin.ly
    return (xp.pow(m * ly, 2) + xp.pow(n * lx, 2)) / (lx * ly)


def _omega(spec: DispersionSpec, m, n, xp):
    """The float relation of ``spec`` at wavenumbers (m, n), one expression
    tree in one arithmetic for two paths: Python ints with ``xp = math``
    (eval_frequency) and float64 grids with ``xp = _GRID_MATH``
    (omega_grid), which computes every element as ``math`` does."""
    kind = spec.kind
    lx, ly = spec.basin.lx, spec.basin.ly
    if kind == "capillary":
        return xp.pow(_rescaled_norm_sq(spec, m, n, xp), 1.5)
    if kind == "gravity_capillary":
        g, mu = spec.g, spec.mu_over_nu
        if lx == ly:
            # Square of side L: omega^2 = g k + (mu/nu) k^3 / L^2 with
            # k = sqrt(m^2+n^2) reproduces the published L=2 frequencies.
            # It is the L-rescaled square form times 1/L, so resonances and
            # discrepancy ratios are identical; L = 1 is the unit square.
            k = xp.sqrt(m * m + n * n)
            return xp.sqrt(g * k + mu * (k * k * k) / (lx * lx))
        # True rectangle: the two-term rectangular formula.
        s = xp.pow(m * ly, 2) + xp.pow(n * lx, 2)
        area = lx * ly
        return xp.sqrt(g * xp.sqrt(s) / area
                       + mu * xp.pow(s, 1.5) / (area * area))
    if kind == "gravity_tanh":
        k = xp.sqrt(_rescaled_norm_sq(spec, m, n, xp))
        return k * xp.tanh(spec.alpha * k)
    if kind == "bve_plane":
        kx, ky = m / lx, n / ly
        if spec.plane_form == "printed":
            return kx / (1.0 + kx + ky)
        return kx / (kx * kx + ky * ky)
    raise DomainError(f"{kind} has no float dispersion relation")


def eval_frequency(spec: DispersionSpec, k: WaveVector) -> Frequency:
    """Evaluate the dispersion relation at an integer wave vector.

    Returns an exact rational for ``rossby_sphere`` and a float for every
    other kind.  Raises :class:`DomainError` for invalid wave vectors and
    for a frequency with no finite float value (the float relation
    overflows or divides by zero, or the exact value is past float range),
    so that ``hz`` is always finite.
    """
    m, n = check_wavevector(k)
    try:
        # Exact path: big-integer rationals, whose float() checks range only.
        omega = (Fraction(-2 * m, n * (n + 1)) if spec.kind == "rossby_sphere"
                 else _omega(spec, m, n, math))
        finite = math.isfinite(float(omega))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DomainError(f"{spec.kind} frequency at {WaveVector(m, n)} "
                          "has no finite float value")
    return Frequency(omega)


def omega_grid(spec: DispersionSpec, M: int, N: int | None = None) -> np.ndarray:
    """Frequency table W[m, n] for 1 <= m <= M and 1 <= n <= N (N = M when
    omitted) as float64: W[m, n] is ``eval_frequency(spec, (m, n)).omega``
    bit for bit, the same expression in the same libm arithmetic,
    evaluated on grids.

    Index 0 rows/columns are NaN padding so W[m, n] addresses wavenumbers
    directly.  The vectorised searches read it, its axes grown past the
    truncation to a seed's members.  ``rossby_sphere`` raises
    :class:`DomainError`: its frequencies are exact, and its scan reads the
    integer table a = n(n+1) instead.
    """
    N = M if N is None else N
    w = np.full((M + 1, N + 1), np.nan, dtype=np.float64)
    mm = np.arange(1, M + 1, dtype=np.float64)[:, None]
    nn = np.arange(1, N + 1, dtype=np.float64)[None, :]
    w[1:, 1:] = _omega(spec, mm, nn, _GRID_MATH)
    return w


def rescale_for_basin(spec: DispersionSpec, lx: float, ly: float) -> DispersionSpec:
    """Return a spec evaluated on an Lx x Ly basin.

    Lx = Ly = 1 is the identity (unit square).  The spherical dispersion has
    no side lengths and refuses to rescale.
    """
    if spec.kind == "rossby_sphere":
        raise DomainError("rossby_sphere has a spherical basin; "
                          "side lengths do not apply")
    if lx == 1.0 and ly == 1.0:
        basin = BasinGeometry("unit_square")
    else:
        basin = BasinGeometry("rectangle", lx=float(lx), ly=float(ly))
    return replace(spec, basin=basin)
