import math

import numpy as np
import pytest

from qubitkick.core import DimensionlessParams, InvalidParameterError, QubitState, SimConfig
from qubitkick.dynamics import solve_trajectory, time_grid
from qubitkick.quantum import (
    ORACLE_N_FOCK,
    TruncationError,
    build_hamiltonian,
    compare_classical_quantum,
    evolve_expectations,
    excitation_number,
    fock_operators,
    ground_initial_state,
)

DP = DimensionlessParams(g=0.02, r=0.5, T=20.0)
EQUATOR = QubitState(0.5, 0.0)


def classical_mean(dp, dt, conv):
    """q of the zero draw from rest on `time_grid(dp.T, dt)`: the classical mean."""
    return solve_trajectory(dp, EQUATOR, np.zeros((1, 2)), SimConfig(dt=dt), conv)[1][0]


class TestHamiltonian:
    def test_hermiticity(self):
        H = build_hamiltonian(DP, n_fock=20)
        assert np.linalg.norm(H - H.conj().T) <= 1e-14 * np.linalg.norm(H)

    def test_block_tridiagonal_in_number_index(self):
        H = build_hamiltonian(DP, n_fock=10)
        dim_f = 11
        for i in range(2 * dim_f):
            for j in range(2 * dim_f):
                if abs(i % dim_f - j % dim_f) > 1:
                    assert H[i, j] == 0.0

    def test_decoupled_spectrum(self):
        dp = DimensionlessParams(g=0.0, r=0.5, T=1.0)
        n_fock = 12
        H = build_hamiltonian(dp, n_fock)
        expected = np.sort(np.concatenate([
            dp.r * (np.arange(n_fock + 1) + 0.5) + 0.5,
            dp.r * (np.arange(n_fock + 1) + 0.5) - 0.5,
        ]))
        assert np.allclose(np.linalg.eigvalsh(H), expected, atol=1e-13)

    def test_resonant_doublet_splitting(self):
        # the first excitation pair {|up, 0>, |down, 1>} is closed under the
        # coupling; at r = 1 it splits to 1 +- sqrt(2) g exactly
        g = 0.03
        dp = DimensionlessParams(g=g, r=1.0, T=1.0)
        evals = np.linalg.eigvalsh(build_hamiltonian(dp, n_fock=3))
        split = np.sort(np.abs(evals - 1.0))[:2]
        assert split[0] == pytest.approx(math.sqrt(2.0) * g, rel=1e-10)
        assert split[1] == pytest.approx(math.sqrt(2.0) * g, rel=1e-10)


class TestEvolution:
    def test_decoupled_ground_state_moments(self):
        dp = DimensionlessParams(g=0.0, r=0.5, T=20.0)
        H = build_hamiltonian(dp, n_fock=8)
        psi0 = ground_initial_state(EQUATOR, 8)
        out = evolve_expectations(H, psi0, np.linspace(0, 20, 101))
        assert np.max(np.abs(out.mean_q)) <= 1e-13
        assert np.allclose(out.var_q, 0.5, atol=1e-13)

    def test_norm_and_energy_conserved(self):
        H = build_hamiltonian(DP, ORACLE_N_FOCK)
        out = evolve_expectations(H, ground_initial_state(EQUATOR, ORACLE_N_FOCK),
                                  np.linspace(0, DP.T, 201))
        assert out.norm_error <= 1e-10
        assert out.energy_drift <= 1e-10 * np.linalg.norm(H)

    def test_excitation_number_conserved_along_evolution(self):
        n_fock = 24
        H = build_hamiltonian(DP, n_fock)
        N_exc = excitation_number(n_fock)
        tau = np.linspace(0, DP.T, 101)
        energies, V = np.linalg.eigh(H)
        psi0 = ground_initial_state(QubitState(0.3, 1.0), n_fock)
        psi_t = (np.exp(-1j * np.outer(tau, energies)) * (V.conj().T @ psi0)) @ V.T
        n_t = np.einsum("ti,ij,tj->t", psi_t.conj(), N_exc, psi_t).real
        assert np.max(np.abs(n_t - n_t[0])) <= 1e-10

    def test_excitation_number_conserved_quadrature_form_too(self):
        # the quadrature coupling is an exchange interaction, so it commutes
        # with the excitation count
        n_fock = 24
        H = build_hamiltonian(DP, n_fock)
        N_exc = excitation_number(n_fock)
        assert np.linalg.norm(H @ N_exc - N_exc @ H) <= 1e-12

    @pytest.mark.parametrize("g", (0.04, 0.01))
    @pytest.mark.parametrize("p", (0.0, 0.3, 0.5, 1.0))
    @pytest.mark.parametrize("phi", (0.0, 1.0))
    def test_oracle_truncation_matches_wide_basis(self, g, p, phi):
        # excitation conservation confines the ground-state start to levels
        # 0 and 1, so the oracle's truncation reproduces a 40-level run
        dp = DimensionlessParams(g=g, r=0.5, T=40.0)
        state = QubitState(p, phi)
        tau = np.linspace(0, dp.T, 401)
        small = evolve_expectations(build_hamiltonian(dp, ORACLE_N_FOCK),
                                    ground_initial_state(state, ORACLE_N_FOCK), tau)
        n_wide = 40
        H = build_hamiltonian(dp, n_wide)
        psi0 = ground_initial_state(state, n_wide)
        wide = evolve_expectations(H, psi0, tau)
        energies, V = np.linalg.eigh(H)
        psi_t = (np.exp(-1j * np.outer(tau, energies)) * (V.conj().T @ psi0)) @ V.T
        levels = np.arange(2 * (n_wide + 1)) % (n_wide + 1)
        assert np.max(np.sum(np.abs(psi_t[:, levels > 1]) ** 2, axis=1)) <= 1e-28
        assert np.max(np.abs(small.mean_q - wide.mean_q)) <= 1e-14
        assert np.max(np.abs(small.mean_p - wide.mean_p)) <= 1e-14
        assert np.max(np.abs(small.var_q - wide.var_q)) <= 1e-13

    @pytest.mark.parametrize("n_fock", (ORACLE_N_FOCK, 10))
    def test_moments_match_three_operand_reference(self, n_fock):
        H = build_hamiltonian(DP, n_fock)
        psi0 = ground_initial_state(QubitState(0.3, 1.0), n_fock)
        tau = np.linspace(0, DP.T, 401)
        out = evolve_expectations(H, psi0, tau)
        energies, V = np.linalg.eigh(H)
        psi_t = (np.exp(-1j * np.outer(tau, energies)) * (V.conj().T @ psi0)) @ V.T
        _, _, q, p = fock_operators(n_fock)
        Q, P = np.kron(np.eye(2), q), np.kron(np.eye(2), p)

        def expect(A):
            return np.einsum("ti,ij,tj->t", psi_t.conj(), A, psi_t).real

        mean_q = expect(Q)
        e_t = expect(H)
        assert np.max(np.abs(out.mean_q - mean_q)) <= 1e-14
        assert np.max(np.abs(out.mean_p - expect(P))) <= 1e-14
        assert np.max(np.abs(out.var_q - (expect(Q @ Q) - mean_q**2))) <= 1e-14
        assert abs(out.energy_drift - np.abs(e_t - e_t[0]).max()) <= 1e-14

    def test_truncation_breach_raises_with_suggestion(self):
        dp = DimensionlessParams(g=0.05, r=0.05, T=60.0)
        H = build_hamiltonian(dp, n_fock=2)
        with pytest.raises(TruncationError, match="n_fock"):
            evolve_expectations(H, ground_initial_state(EQUATOR, 2), np.linspace(0, 60, 201))

    def test_pole_state_mean_is_second_order(self):
        # no first-order mean force from a pole state; in fact a pole state
        # sits in a single excitation sector, so <q> vanishes identically
        tau = np.linspace(0, 20, 201)
        for g in (0.04, 0.02):
            dp = DimensionlessParams(g=g, r=0.5, T=20.0)
            H = build_hamiltonian(dp, 40)
            out = evolve_expectations(H, ground_initial_state(QubitState(0.0, 0.0), 40), tau)
            assert np.max(np.abs(out.mean_q)) <= 10.0 * g**2

    def test_p_weighs_the_lower_level(self):
        # the +sigma_z / 2 makes |1>, of weight p, the lower level: from the oscillator
        # vacuum p = 1 is the joint ground state and leaves the oscillator there, while
        # p = 0 sits one qubit quantum up and emits into it
        dp = DimensionlessParams(g=0.01, r=0.5, T=40.0)
        tau = time_grid(dp.T, 0.02)
        H = build_hamiltonian(dp, ORACLE_N_FOCK)
        lower, upper = (evolve_expectations(H, ground_initial_state(QubitState(p, 0.0), ORACLE_N_FOCK), tau)
                        for p in (1.0, 0.0))
        assert np.all(lower.mean_q == 0.0)
        assert np.max(np.abs(lower.var_q - 0.5)) <= 1e-15
        assert np.max(upper.var_q - 0.5) >= 3e-3


class TestOracleComparison:
    def test_decoupled_limit_zero_discrepancy(self):
        dp = DimensionlessParams(g=0.0, r=0.5, T=20.0)
        tau = time_grid(dp.T, 0.2)
        H = build_hamiltonian(dp, 16)
        out = evolve_expectations(H, ground_initial_state(EQUATOR, 16), tau)
        for conv in ("eq37", "eq35", "canonical"):
            assert np.max(np.abs(out.mean_q - classical_mean(dp, 0.2, conv))) <= 1e-12

    def test_equator_matches_canonical_to_second_order(self):
        tau = time_grid(20.0, 0.05)
        errs = {}
        for g in (0.04, 0.02, 0.01):
            dp = DimensionlessParams(g=g, r=0.5, T=20.0)
            H = build_hamiltonian(dp, ORACLE_N_FOCK)
            out = evolve_expectations(H, ground_initial_state(EQUATOR, ORACLE_N_FOCK), tau)
            errs[g] = np.max(np.abs(out.mean_q - classical_mean(dp, 0.05, "canonical")))
        gs = np.array(sorted(errs))
        slope = np.polyfit(np.log(gs), np.log([errs[g] for g in gs]), 1)[0]
        assert slope >= 1.7
        # fitted quadratic coefficient, reported for the record
        C = errs[0.04] / 0.04**2
        assert C < 50.0

    def test_report_prefers_canonical_and_scales(self):
        report = compare_classical_quantum(DP, EQUATOR, SimConfig(dt=0.02, n_fock=40))
        assert report["preferred_sign_convention"] == "canonical"
        assert report["scaling_exponent"] >= 1.7
        assert report["preferred_among_printed_pair"] in ("eq35", "eq37")
        for conv in ("eq37", "eq35"):
            assert report["conventions"][conv]["scaling_exponent"] < 1.5

    def test_pole_state_consistency(self):
        pole = QubitState(0.0, 0.0)
        report = compare_classical_quantum(DP, pole, SimConfig(dt=0.02, n_fock=40))
        # both means vanish: discrepancy consistent with zero at every g
        for conv in ("eq37", "eq35", "canonical"):
            assert max(report["conventions"][conv]["max_error"]) <= 1e-10

    def test_pole_state_verdict_is_a_tie(self):
        # every discrepancy is exactly 0: no convention is preferred, none has a slope
        dp = DimensionlessParams(g=0.04, r=0.5, T=40.0)
        report = compare_classical_quantum(dp, QubitState(0.0, 0.0), SimConfig(dt=0.02))
        for conv in ("eq37", "eq35", "canonical"):
            assert report["conventions"][conv]["max_error"] == [0.0, 0.0, 0.0]
            assert report["conventions"][conv]["scaling_exponent"] is None
        for key in ("preferred_sign_convention", "preferred_among_printed_pair", "max_error",
                    "scaling_exponent"):
            assert report[key] is None

    def test_report_ignores_the_configured_coupling(self):
        # the sweep runs at ORACLE_G_VALUES; var_q_comparison is the largest one's
        state, cfg = QubitState(0.3, 1.0), SimConfig(dt=0.05)
        reports = [compare_classical_quantum(DimensionlessParams(g=g, r=0.5, T=10.0), state, cfg)
                   for g in (0.04, 0.01, 0.0)]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["g_values"] == [0.01, 0.02, 0.04]
        dp_max = DimensionlessParams(g=0.04, r=0.5, T=10.0)
        oracle = evolve_expectations(build_hamiltonian(dp_max, ORACLE_N_FOCK),
                                     ground_initial_state(state, ORACLE_N_FOCK), time_grid(10.0, 0.05))
        assert reports[0]["var_q_comparison"]["max_var_q_raw"] == float(oracle.var_q.max())

    def test_rejects_multiple_qubits(self):
        dp = DimensionlessParams(g=0.02, r=0.5, T=20.0, n_qubits=2)
        with pytest.raises(InvalidParameterError):
            compare_classical_quantum(dp, EQUATOR, SimConfig(dt=0.02))


def test_fock_operator_commutator():
    a, ad, q, p = fock_operators(30)
    comm = a @ ad - ad @ a
    # canonical up to the truncation corner
    assert np.allclose(comm[:-1, :-1], np.eye(30), atol=1e-13)
    assert np.allclose((q @ p - p @ q)[:-1, :-1], 1j * np.eye(30), atol=1e-13)
