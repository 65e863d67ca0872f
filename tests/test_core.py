import math

import numpy as np
import pytest

from qubitkick.core import (
    HBAR,
    TWO_PI,
    DimensionlessParams,
    InvalidParameterError,
    PhysicalParams,
    QubitState,
    SimConfig,
    WeakCouplingWarning,
    derive_dimensionless,
    load_config,
    parse_config_text,
    realize_config,
)

# Published trapped-ion row: m = 1.5e-26 kg, Omega/2pi = 5.0e2 kHz,
# omega_o/2pi = 1.1e1 MHz, omega_q/2pi = 1.2e3 MHz.
ION = PhysicalParams(mass=1.5e-26, omega_o=TWO_PI * 1.1e7, omega_q=TWO_PI * 1.2e9, Omega=TWO_PI * 5.0e5)
NANODIAMOND = PhysicalParams(mass=5.5e-17, omega_o=TWO_PI * 5.0e5, omega_q=TWO_PI * 2.5e5, Omega=TWO_PI * 5.2e4)
PIEZO = PhysicalParams(mass=1.6e-8, omega_o=TWO_PI * 1.2e7, omega_q=TWO_PI * 1.2e7, Omega=TWO_PI * 1.6e6)


class TestQubitState:
    def test_population_bounds(self):
        with pytest.raises(InvalidParameterError):
            QubitState(p=-0.01)
        with pytest.raises(InvalidParameterError):
            QubitState(p=1.01)

    @pytest.mark.parametrize("phi", (math.nan, math.inf, -math.inf))
    def test_non_finite_phase_refused(self, phi):
        with pytest.raises(InvalidParameterError, match="phase phi must be finite"):
            QubitState(p=0.3, phi=phi)

    def test_phase_wrapped_into_principal_interval(self):
        s = QubitState(p=0.5, phi=7.0)
        assert 0.0 <= s.phi < TWO_PI
        assert s.phi == pytest.approx(7.0 - TWO_PI, abs=1e-12)

    def test_negative_phase_wraps(self):
        s = QubitState(p=0.5, phi=-0.5)
        assert abs(s.phi - (TWO_PI - 0.5)) < 1e-12

    def test_eta_ranges(self):
        for p in np.linspace(0.0, 1.0, 21):
            s = QubitState(p=float(p))
            assert 0.0 <= s.eta_f <= 0.5 + 1e-15
            assert 1.0 / math.sqrt(2.0) - 1e-15 <= s.eta_st <= 1.0 + 1e-15

    def test_eta_symmetric_under_population_flip(self):
        for p in np.linspace(0.0, 1.0, 17):
            a, b = QubitState(float(p)), QubitState(float(1.0 - p))
            assert a.eta_f == pytest.approx(b.eta_f, abs=1e-15)
            assert a.eta_st == pytest.approx(b.eta_st, abs=1e-15)

    def test_amplitudes_normalised(self):
        a0, a1 = QubitState(0.3, 1.2).amplitudes()
        assert abs(a0) ** 2 + abs(a1) ** 2 == pytest.approx(1.0, abs=1e-15)


class TestPhysicalParams:
    def test_positivity(self):
        with pytest.raises(InvalidParameterError, match="mass must be finite and > 0, got 0.0"):
            PhysicalParams(mass=0.0, omega_o=1.0, omega_q=1.0, Omega=1.0)
        with pytest.raises(InvalidParameterError, match="omega_o must be finite and > 0, got -1.0"):
            PhysicalParams(mass=1.0, omega_o=-1.0, omega_q=1.0, Omega=1.0)
        with pytest.raises(InvalidParameterError, match="omega_q must be finite and > 0, got inf"):
            PhysicalParams(mass=1.0, omega_o=1.0, omega_q=math.inf, Omega=1.0)
        with pytest.raises(InvalidParameterError):
            PhysicalParams(mass=1.0, omega_o=1.0, omega_q=1.0, Omega=-1.0)

    def test_zero_coupling_allowed(self):
        pp = PhysicalParams(mass=1.0, omega_o=1.0, omega_q=1.0, Omega=0.0)
        assert pp.Omega == 0.0

    def test_zero_point_product(self):
        # q0 * p0 = hbar / 2 exactly
        assert ION.q0 * ION.p0 == pytest.approx(HBAR / 2.0, rel=1e-14)


class TestDeriveDimensionless:
    def test_ion_row_values(self):
        # direct arithmetic oracle: g = Omega / (2 sqrt(2) omega_q), r = omega_o/omega_q
        dp = derive_dimensionless(ION, T_si=1e-6)
        assert dp.g == pytest.approx(5.0e5 / (2.0 * math.sqrt(2.0) * 1.2e9), rel=1e-12)
        assert dp.g == pytest.approx(1.4731e-4, rel=1e-3)
        assert dp.r == pytest.approx(1.1e7 / 1.2e9, rel=1e-12)
        assert dp.T == pytest.approx(TWO_PI * 1.2e9 * 1e-6, rel=1e-12)

    def test_zero_coupling_gives_zero_g(self):
        pp = PhysicalParams(mass=1e-20, omega_o=1e6, omega_q=1e7, Omega=0.0)
        assert derive_dimensionless(pp, T_si=1e-3).g == 0.0

    def test_piezo_row_is_resonant(self):
        assert derive_dimensionless(PIEZO, T_si=1e-6).r == pytest.approx(1.0, rel=1e-14)

    def test_invalid_horizon(self):
        # an infinite T_si was refused as "T must be strictly positive, got inf"
        for T_si in (0.0, -1.0, math.nan, math.inf, np.float64(math.inf)):
            with pytest.raises(InvalidParameterError, match=f"T_si must be finite and > 0, got {T_si}$"):
                derive_dimensionless(ION, T_si=T_si)


class TestZeroPointPosition:
    def test_ion_row(self):
        expect = math.sqrt(HBAR / (2.0 * 1.5e-26 * TWO_PI * 1.1e7))
        assert ION.q0 == pytest.approx(expect, rel=1e-14)
        assert ION.q0 == pytest.approx(7.13e-9, rel=0.01)

    def test_nanodiamond_row(self):
        assert NANODIAMOND.q0 == pytest.approx(5.52e-13, rel=0.01)

    def test_square_root_mass_scaling(self):
        heavy = PhysicalParams(mass=4.0 * ION.mass, omega_o=ION.omega_o, omega_q=ION.omega_q, Omega=ION.Omega)
        assert heavy.q0 == pytest.approx(ION.q0 / 2.0, rel=1e-14)


class TestDimensionlessParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DimensionlessParams(g=-0.1, r=0.5, T=1.0)
        with pytest.raises(InvalidParameterError):
            DimensionlessParams(g=0.1, r=0.0, T=1.0)
        with pytest.raises(InvalidParameterError):
            DimensionlessParams(g=0.1, r=0.5, T=1.0, n_qubits=0)
        # int() of these raises ValueError and OverflowError of its own
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError, match="n_qubits"):
                DimensionlessParams(g=0.05, r=0.5, T=10.0, n_qubits=bad)

    @pytest.mark.parametrize("T", (0.0, -1.0, math.nan, math.inf))
    def test_horizon_refused(self, T):
        with pytest.raises(InvalidParameterError, match=f"T must be finite and > 0, got {T}"):
            DimensionlessParams(g=0.05, r=0.5, T=T)

    def test_weak_coupling_warning(self):
        with pytest.warns(WeakCouplingWarning):
            DimensionlessParams(g=0.2, r=0.5, T=1.0)

    def test_no_warning_in_regime(self, recwarn):
        DimensionlessParams(g=0.05, r=0.5, T=1.0)
        assert not any(isinstance(w.message, WeakCouplingWarning) for w in recwarn)


class TestSimConfig:
    def test_validation(self):
        for bad in (dict(dt=0.0), dict(dt=math.nan), dict(n_traj=0), dict(n_fock=1),
                    dict(q_init=math.nan), dict(q_init=-math.inf), dict(p_init=math.inf),
                    dict(n_traj=2.5), dict(n_traj=math.nan), dict(n_traj=100.0), dict(seed=1.5),
                    dict(seed=-1), dict(n_fock=40.0)):
            with pytest.raises(InvalidParameterError):
                SimConfig(**bad)

    @pytest.mark.parametrize("name, value, low", (("n_traj", 2.5, 1), ("seed", np.float64(1.0), 0),
                                                  ("n_fock", 1, 2)))
    def test_count_refused_by_name(self, name, value, low):
        # a float prints as itself, not as np.float64(...)
        with pytest.raises(InvalidParameterError, match=rf"{name} must be an integer >= {low}, got {value}$"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize("name", ("n_traj", "seed", "n_fock"))
    def test_numpy_integer_stored_as_int(self, name):
        value = getattr(SimConfig(**{name: np.int64(5)}), name)
        assert type(value) is int and value == 5

    def test_step_budget(self):
        SimConfig(dt=0.05).check_step(1.0)
        with pytest.raises(InvalidParameterError):
            SimConfig(dt=0.05).check_step(2.0)


class TestConfigFile:
    def test_parse_and_angular_conversion(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# platform\n"
            "omega_o_hz = 1.1e7\n"
            "omega_q_hz = 1.2e9\n"
            "coupling_hz = 5.0e5\n"
            "p = 0.3\n"
            "phi = 1.0\n"
            "T = 20.0\n"
            "dt = 0.01\n"
            "n_traj = 500\n"
            "seed = 42\n"
        )
        setup = load_config(str(cfg))
        assert setup.dimensionless.g == pytest.approx(5.0e5 / (2 * math.sqrt(2.0) * 1.2e9), rel=1e-12)
        assert setup.dimensionless.r == pytest.approx(1.1e7 / 1.2e9, rel=1e-12)
        assert setup.state.p == 0.3
        assert setup.sim.seed == 42
        # the same couplings as the SI record of those angular frequencies
        si = derive_dimensionless(ION, T_si=1.0)
        assert setup.dimensionless.g == pytest.approx(si.g, rel=1e-15)
        assert setup.dimensionless.r == pytest.approx(si.r, rel=1e-15)

    def test_g_override_takes_precedence(self):
        setup = realize_config({"omega_o_hz": "0.5", "omega_q_hz": "1.0",
                                "coupling_hz": "1.0", "g_override": "0.07"})
        assert setup.dimensionless.g == 0.07

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_config_text("mystery = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_config_text("just words\n")

    def test_repeated_key_refused_with_both_lines(self, tmp_path):
        # the last value won: p = 0.3 then p = 0.7 ran at p = 0.7 without a word
        text = "omega_o_hz = 0.5\nomega_q_hz = 1.0\np = 0.3\n# p = 0.5\ng_override = 0.05\np = 0.7\n"
        with pytest.raises(InvalidParameterError, match=r"line 6: key 'p' repeats line 3"):
            parse_config_text(text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        with pytest.raises(InvalidParameterError, match="'p' repeats"):
            load_config(str(cfg))

    def test_missing_frequencies_rejected(self):
        with pytest.raises(InvalidParameterError):
            realize_config({"g_override": "0.05"})

    def test_missing_coupling_rejected(self):
        with pytest.raises(InvalidParameterError):
            realize_config({"omega_o_hz": "0.5", "omega_q_hz": "1.0"})

    BASE = {"omega_o_hz": "0.5", "omega_q_hz": "1.0", "g_override": "0.05"}

    @pytest.mark.parametrize("key, value", (("p", "abc"), ("n_qubits", "1.5"), ("n_traj", "2.5"),
                                            ("seed", "1.7"), ("n_traj", "inf"), ("n_traj", "nan")))
    def test_malformed_value_refused_by_key(self, tmp_path, key, value):
        # these crashed with a bare ValueError/OverflowError or ran 2 draws / seed 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**self.BASE, key: value}.items()))
        with pytest.raises(InvalidParameterError, match=f"config key '{key}'.*'{value}'"):
            load_config(str(cfg))

    @pytest.mark.parametrize("key, value", (("omega_o_hz", "0"), ("omega_q_hz", "0.0"),
                                            ("omega_o_hz", "-0.5"), ("omega_q_hz", "-1"),
                                            ("omega_o_hz", "inf"), ("omega_q_hz", "nan"),
                                            ("coupling_hz", "-0.1"), ("coupling_hz", "inf")))
    def test_bad_frequency_refused_by_key(self, key, value):
        # a zero frequency was refused as missing; a negative pair or coupling reached the ratios
        with pytest.raises(InvalidParameterError, match=f"config key '{key}'.*'{value}'"):
            realize_config({**self.BASE, "coupling_hz": "0.1", key: value})

    def test_negative_frequency_pair_refused(self):
        # both signs flipped gave r = 0.5 and, with a negative coupling, g = 0.0354
        with pytest.raises(InvalidParameterError, match="'omega_o_hz'.*'-0.5'"):
            realize_config({"omega_o_hz": "-0.5", "omega_q_hz": "-1", "g_override": "0.05"})
        with pytest.raises(InvalidParameterError, match="'omega_o_hz'.*'-0.5'"):
            realize_config({"omega_o_hz": "-0.5", "omega_q_hz": "-1", "coupling_hz": "-0.1"})

    def test_zero_coupling_is_the_decoupled_limit(self):
        setup = realize_config({"omega_o_hz": "0.5", "omega_q_hz": "1.0", "coupling_hz": "0"})
        assert setup.dimensionless.g == 0.0

    def test_integer_keys_take_exponent_form(self):
        setup = realize_config({**self.BASE, "n_traj": "1e4", "seed": "7", "n_fock": "4e1"})
        assert setup.sim.n_traj == 10000 and type(setup.sim.n_traj) is int
        assert setup.sim.seed == 7 and setup.sim.n_fock == 40
        assert setup.raw["n_traj"] == "1e4"  # the echo keeps the value as given

    def test_defaults_fill_the_echo(self):
        setup = realize_config(self.BASE)
        assert setup.raw == {**self.BASE, "p": 0.5, "phi": 0.0, "T": 30.0, "dt": 0.01,
                             "n_traj": 1000, "seed": 12345, "n_fock": 40, "n_qubits": 1}
        assert realize_config(setup.raw) == setup

    def test_unknown_key_in_dict_refused(self):
        with pytest.raises(InvalidParameterError, match="'bogus'"):
            realize_config({**self.BASE, "bogus": "1"})
