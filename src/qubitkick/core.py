"""Parameter records, unit conversion, and run configuration.

Everything downstream works in dimensionless quadratures: positions are
measured in units of the zero-point spread q0 = sqrt(hbar/2 m omega_o) and
time in units of 1/omega_q (rescaled time tau = omega_q * t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

HBAR = 1.054571817e-34  # J s, CODATA; fixed, not configurable
TWO_PI = 2.0 * math.pi

# Coupling above this is outside the weak-coupling regime the effective
# dynamics were derived in; flagged, not rejected.
WEAK_COUPLING_LIMIT = 0.1


class InvalidParameterError(ValueError):
    """A physical or numerical parameter violates its constraints."""


class WeakCouplingWarning(UserWarning):
    """Dimensionless coupling is large enough to strain the expansion."""


def wrap_angle(phi: float) -> float:
    """Reduce an angle into [0, 2*pi)."""
    return float(phi) % TWO_PI


def circular_distance(a: float, b: float) -> float:
    """Shortest angular distance between two phases, in [0, pi]."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class QubitState:
    """Pure two-level state: excited population p and relative phase phi.

    The state vector is sqrt(1-p)|0> + exp(i phi) sqrt(p)|1>.  Both
    intensity factors below are symmetric under p <-> 1-p, which is the
    source of the reconstruction degeneracy handled in `reconstruct`.
    """

    p: float
    phi: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0) or not math.isfinite(self.p):
            raise InvalidParameterError(f"population p must lie in [0, 1], got {self.p}")
        if not math.isfinite(self.phi):
            raise InvalidParameterError(f"phase phi must be finite, got {self.phi}")
        object.__setattr__(self, "phi", wrap_angle(self.phi))

    @property
    def eta_f(self) -> float:
        """Superposition intensity sqrt(p(1-p)); 0 at the poles, 1/2 at the equator."""
        return math.sqrt(self.p * (1.0 - self.p))

    @property
    def eta_st(self) -> float:
        """Stationary-noise intensity sqrt((1-p)^2 + p^2) in [1/sqrt(2), 1]."""
        return math.sqrt((1.0 - self.p) ** 2 + self.p**2)

    def amplitudes(self):
        """Complex amplitude pair (<0|psi>, <1|psi>)."""
        return (math.sqrt(1.0 - self.p), math.sqrt(self.p) * complex(math.cos(self.phi), math.sin(self.phi)))


@dataclass(frozen=True)
class PhysicalParams:
    """SI platform parameters: mass [kg] and angular frequencies [rad/s].

    `Omega` is the exchange-coupling rate; it may be zero (decoupled), the
    others must be strictly positive.
    """

    mass: float
    omega_o: float
    omega_q: float
    Omega: float

    def __post_init__(self):
        for name in ("mass", "omega_o", "omega_q"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise InvalidParameterError(f"{name} must be strictly positive, got {v}")
        if self.Omega < 0.0 or not math.isfinite(self.Omega):
            raise InvalidParameterError(f"Omega must be non-negative, got {self.Omega}")

    @property
    def q0(self) -> float:
        """Zero-point position spread sqrt(hbar / 2 m omega_o) [m]."""
        return math.sqrt(HBAR / (2.0 * self.mass * self.omega_o))

    @property
    def p0(self) -> float:
        """Zero-point momentum spread sqrt(m hbar omega_o / 2) [kg m/s]."""
        return math.sqrt(self.mass * HBAR * self.omega_o / 2.0)


@dataclass(frozen=True)
class DimensionlessParams:
    """Reduced parameters used by all dynamics: coupling g, ratio r, horizon T."""

    g: float
    r: float
    T: float
    n_qubits: int = 1

    def __post_init__(self):
        if self.g < 0.0 or not math.isfinite(self.g):
            raise InvalidParameterError(f"g must be non-negative, got {self.g}")
        if not (self.r > 0.0) or not math.isfinite(self.r):
            raise InvalidParameterError(f"r must be strictly positive, got {self.r}")
        if not (self.T > 0.0) or not math.isfinite(self.T):
            raise InvalidParameterError(f"T must be strictly positive, got {self.T}")
        if int(self.n_qubits) != self.n_qubits or self.n_qubits < 1:
            raise InvalidParameterError(f"n_qubits must be a positive integer, got {self.n_qubits}")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        if self.g > WEAK_COUPLING_LIMIT:
            warnings.warn(
                f"g = {self.g} exceeds the weak-coupling regime (g <= {WEAK_COUPLING_LIMIT})",
                WeakCouplingWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SimConfig:
    """Numerical run settings shared by the solvers and the ensemble driver."""

    dt: float = 0.01
    n_traj: int = 1000
    seed: int = 12345
    n_fock: int = 40  # accepted and validated; has no effect (see quantum.ORACLE_N_FOCK)
    q_init: float = 0.0
    p_init: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise InvalidParameterError(f"dt must be strictly positive, got {self.dt}")
        if self.n_traj < 1:
            raise InvalidParameterError(f"n_traj must be >= 1, got {self.n_traj}")
        if self.n_fock < 2:
            raise InvalidParameterError(f"n_fock must be >= 2, got {self.n_fock}")
        if not (0 <= int(self.seed)):
            raise InvalidParameterError(f"seed must be a non-negative integer, got {self.seed}")
        if not (math.isfinite(self.q_init) and math.isfinite(self.p_init)):
            raise InvalidParameterError(f"q_init and p_init must be finite, got {self.q_init}, {self.p_init}")

    def check_step(self, r: float) -> None:
        """Default accuracy budget: dt * max(1, r) <= 0.05."""
        if self.dt * max(1.0, r) > 0.05 + 1e-12:
            raise InvalidParameterError(
                f"dt = {self.dt} too coarse for r = {r}: require dt * max(1, r) <= 0.05"
            )


def derive_dimensionless(pp: PhysicalParams, T_si: float, n_qubits: int = 1) -> DimensionlessParams:
    """Reduce SI parameters: g = Omega / (2 sqrt(2) omega_q), r = omega_o/omega_q, T = omega_q * T_si."""
    if not (T_si > 0.0):
        raise InvalidParameterError(f"T_si must be strictly positive, got {T_si}")
    g = pp.Omega / (2.0 * math.sqrt(2.0) * pp.omega_q)
    return DimensionlessParams(g=g, r=pp.omega_o / pp.omega_q, T=pp.omega_q * T_si, n_qubits=n_qubits)


# --- flat key=value run configuration ------------------------------------

_CONFIG_KEYS = {
    "mass_kg",
    "omega_o_hz",
    "omega_q_hz",
    "coupling_hz",
    "p",
    "phi",
    "g_override",
    "T",
    "dt",
    "n_traj",
    "seed",
    "n_fock",
    "n_qubits",
}

_CONFIG_DEFAULTS = {
    "p": 0.5,
    "phi": 0.0,
    "T": 30.0,
    "dt": 0.01,
    "n_traj": 1000,
    "seed": 12345,
    "n_fock": 40,
    "n_qubits": 1,
}


@dataclass(frozen=True)
class RunSetup:
    """Materialised configuration: whichever records the config file supports.

    `physical` is None when no SI platform data (mass_kg etc.) was given;
    dimensionless dynamics still run via g_override and the frequency ratio.
    """

    physical: PhysicalParams | None
    dimensionless: DimensionlessParams
    state: QubitState
    sim: SimConfig
    raw: dict


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines; '#' starts a comment, blanks ignored."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidParameterError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, val = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise InvalidParameterError(f"config line {lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def load_config(path: str) -> RunSetup:
    """Load a run configuration file and build the parameter records.

    Frequencies are given as ordinary frequencies in Hz and converted to
    angular (multiplied by 2*pi) here.  g is derived from coupling_hz unless
    g_override is present.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    return realize_config(raw)


def realize_config(raw: dict) -> RunSetup:
    vals = dict(_CONFIG_DEFAULTS)
    vals.update(raw)

    def fget(key):
        return float(vals[key]) if key in vals else None

    physical = None
    omega_o = fget("omega_o_hz")
    omega_q = fget("omega_q_hz")
    coupling = fget("coupling_hz")
    if omega_o is not None:
        omega_o *= TWO_PI
    if omega_q is not None:
        omega_q *= TWO_PI
    if coupling is not None:
        coupling *= TWO_PI
    if vals.get("mass_kg") is not None and omega_o and omega_q:
        physical = PhysicalParams(
            mass=float(vals["mass_kg"]),
            omega_o=omega_o,
            omega_q=omega_q,
            Omega=coupling if coupling is not None else 0.0,
        )

    if omega_o and omega_q:
        r = omega_o / omega_q
    else:
        raise InvalidParameterError("config must provide omega_o_hz and omega_q_hz")

    if "g_override" in vals and vals["g_override"] is not None:
        g = float(vals["g_override"])
    elif coupling is not None and omega_q:
        g = coupling / (2.0 * math.sqrt(2.0) * omega_q)
    else:
        raise InvalidParameterError("config must provide coupling_hz or g_override")

    dp = DimensionlessParams(g=g, r=r, T=float(vals["T"]), n_qubits=int(vals["n_qubits"]))
    state = QubitState(p=float(vals["p"]), phi=float(vals["phi"]))
    sim = SimConfig(
        dt=float(vals["dt"]),
        n_traj=int(float(vals["n_traj"])),
        seed=int(float(vals["seed"])),
        n_fock=int(float(vals["n_fock"])),
    )
    return RunSetup(physical=physical, dimensionless=dp, state=state, sim=sim, raw=dict(vals))
