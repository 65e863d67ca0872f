"""Parameter records, unit conversion, and run configuration.

Everything downstream works in dimensionless quadratures: positions are
measured in units of the zero-point spread q0 = sqrt(hbar/2 m omega_o) and
time in units of 1/omega_q (rescaled time tau = omega_q * t).
"""

from __future__ import annotations

import math
import numbers
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


@dataclass(frozen=True)
class QubitState:
    """Pure two-level state: population p of |1> and relative phase phi.

    The state vector is sqrt(1-p)|0> + exp(i phi) sqrt(p)|1>.  Under the
    +sigma_z / 2 of `quantum.build_hamiltonian`, |1> is the lower level, so
    p = 1 is the qubit's ground state: started with the oscillator in its
    vacuum, it leaves the oscillator there, and p = 0 does not.  Both
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
        for name, low in (("n_traj", 1), ("seed", 0), ("n_fock", 2)):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < low:
                raise InvalidParameterError(f"{name} must be an integer >= {low}, got {v!r}")
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

# each key's default (None: none); a key with an int default takes integers only
_CONFIG = {
    "omega_o_hz": None, "omega_q_hz": None, "coupling_hz": None, "g_override": None,
    "p": 0.5, "phi": 0.0, "T": 30.0, "dt": 0.01, "n_traj": 1000, "seed": 12345, "n_fock": 40, "n_qubits": 1,
}


def _number(key: str, value):
    """The value of config key `key` as a float, or as an int for the integer keys."""
    if key not in _CONFIG:
        raise InvalidParameterError(f"unknown config key {key!r} = {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"config key {key!r} must be a number, got {value!r}") from None
    if type(_CONFIG[key]) is not int:
        return x
    if not x.is_integer():
        raise InvalidParameterError(f"config key {key!r} must be an integer, got {value!r}")
    try:
        return int(value)  # exact for long integer strings
    except ValueError:
        return int(x)  # "1e4"


@dataclass(frozen=True)
class RunSetup:
    """Materialised configuration: the records every command reads, and `raw`, the
    values as given over the defaults, which outputs echo.

    The file holds no mass, so it builds no `PhysicalParams`: callers with SI
    data build that record and `derive_dimensionless` themselves.
    """

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
        if key not in _CONFIG:
            raise InvalidParameterError(f"config line {lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def load_config(path: str) -> RunSetup:
    """Load a run configuration file and build the parameter records.

    Frequencies are given as ordinary frequencies in Hz; only their ratios
    r = omega_o_hz / omega_q_hz and g = coupling_hz / (2 sqrt(2) omega_q_hz)
    are used, so no 2*pi enters.  g_override, when present, replaces g.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    return realize_config(raw)


def realize_config(raw: dict) -> RunSetup:
    """Build the dynamics, state and run records from `key: value` pairs over the
    `_CONFIG` defaults.

    Each value is parsed by `_number`, so an unknown key, a non-numeric
    value or a non-integral value for an integer key is refused by name, as
    is a frequency that is not finite and positive (`coupling_hz` may be 0).
    `raw` of the result holds the values as given, over the defaults.
    """
    given = {k: v for k, v in _CONFIG.items() if v is not None}
    given.update(raw)
    vals = {k: _number(k, v) for k, v in given.items()}

    if "omega_o_hz" not in vals or "omega_q_hz" not in vals:
        raise InvalidParameterError("config must provide omega_o_hz and omega_q_hz")
    # a zero coupling is the decoupled limit; a zero frequency gives no ratio
    for key, sign in (("omega_o_hz", "positive"), ("omega_q_hz", "positive"),
                      ("coupling_hz", "non-negative")):
        x = vals.get(key, 0.0)
        if not math.isfinite(x) or x < 0.0 or (x == 0.0 and sign == "positive"):
            raise InvalidParameterError(
                f"config key {key!r} must be a finite {sign} frequency, got {given[key]!r}")
    omega_o, omega_q = vals["omega_o_hz"], vals["omega_q_hz"]
    if "g_override" in vals:
        g = vals["g_override"]
    elif "coupling_hz" in vals:
        g = vals["coupling_hz"] / (2.0 * math.sqrt(2.0) * omega_q)
    else:
        raise InvalidParameterError("config must provide coupling_hz or g_override")

    dp = DimensionlessParams(g=g, r=omega_o / omega_q, T=vals["T"], n_qubits=vals["n_qubits"])
    state = QubitState(p=vals["p"], phi=vals["phi"])
    sim = SimConfig(dt=vals["dt"], n_traj=vals["n_traj"], seed=vals["seed"], n_fock=vals["n_fock"])
    return RunSetup(dimensionless=dp, state=state, sim=sim, raw=given)
