"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Statistical criteria use fixed seeds; tolerances are the
stated ones, not calibrated.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qubitkick.core import DimensionlessParams, QubitState, SimConfig
from qubitkick.dynamics import (
    _closed_form_batch,
    _rk4_batch,
    mean_closed_form,
    run_ensemble,
    time_grid,
)
from qubitkick.forces import bloch_map, table_comparison
from qubitkick.influence import PathPair, verify_bch, verify_influence_expansion
from qubitkick.noise import (
    empirical_covariance_from_zetas,
    kernel_block_matrix,
    kernel_rank_check,
    quad_coeffs,
    sample_zetas,
)
from qubitkick.quantum import compare_classical_quantum
from qubitkick.reconstruct import estimate_nonstationary, reconstruct_from_stats

G_LADDER = (0.1, 0.05, 0.025, 0.0125)


def _report(number: int, name: str, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s{suffix}")


def _random_pair(seed: int, n: int = 4001) -> PathPair:
    rng = np.random.default_rng(seed)
    tau = np.linspace(0.0, 2.0 * math.pi, n)

    def trig():
        c = rng.normal(scale=0.5, size=5)
        return c[0] + c[1] * np.cos(tau) + c[2] * np.sin(tau) + c[3] * np.cos(2 * tau) + c[4] * np.sin(2 * tau)

    return PathPair(tau=tau, q=trig(), p=trig(), q_b=trig(), p_b=trig())


def test_criterion_1_force_budget_table():
    started = time.perf_counter()
    rows = table_comparison()
    numeric = [r for r in rows if not r["degenerate"]]
    assert len(numeric) == 8
    for row in numeric:
        assert row["rel_error"] <= 0.05, row
    degenerate = [r for r in rows if r["degenerate"]]
    assert len(degenerate) == 1 and degenerate[0]["platform"] == "piezo"
    worst = max(r["rel_error"] for r in numeric)
    _report(1, "platform force budget vs published values", started, 1.0,
            f"worst relative error {worst:.2%}")


def test_criterion_2_split_product_and_phase_expansion_convergence():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    slopes_bch, slopes_infl = [], []
    for trial in range(3):
        pair = _random_pair(100 + trial)
        state = QubitState(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0, 2 * math.pi)))
        rb = verify_bch(pair, state, G_LADDER)
        ri = verify_influence_expansion(pair, state, G_LADDER)
        assert rb["slope"] >= 2.7, rb
        assert ri["slope"] >= 2.7, ri
        slopes_bch.append(rb["slope"])
        slopes_infl.append(ri["slope"])
    _report(2, "third-order convergence of the qubit-trace expansion", started, 30.0,
            f"split-product slopes {min(slopes_bch):.2f}+, overlap slopes {min(slopes_infl):.2f}+")


def test_criterion_3_noise_kernel_fidelity():
    started = time.perf_counter()
    grid = np.linspace(0.0, 4.0 * math.pi, 64)
    worst = 0.0
    for p in (0.0, 0.3, 0.5):
        for phi in (0.0, 1.0):
            state = QubitState(p, phi)
            zetas = sample_zetas(state, seed=90_000 + int(100 * p + phi), indices=range(100_000))
            emp = empirical_covariance_from_zetas(zetas, grid)
            err = float(np.max(np.abs(emp - kernel_block_matrix(grid, state))))
            assert err <= 0.02, (p, phi, err)
            worst = max(worst, err)
            info = kernel_rank_check(grid, state)
            assert info["rank"] <= 2
            assert info["min_eigenvalue"] >= -1e-10 * info["max_eigenvalue"]
    rng = np.random.default_rng(7)
    for _ in range(1000):
        s = QubitState(float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * math.pi)))
        assert abs(quad_coeffs(s).det - (1.0 - 4.0 * s.p * (1.0 - s.p))) <= 1e-14
    _report(3, "sampler faithful to the two-time kernel", started, 60.0,
            f"worst covariance error {worst:.4f} over 6 states x 1e5 draws")


def test_criterion_4_nonstationary_mode_switch():
    started = time.perf_counter()
    dp = DimensionlessParams(g=0.05, r=0.5, T=20.0)
    details = []
    for p in (0.0, 1.0, 0.5):
        state = QubitState(p, 0.35)
        cfg = SimConfig(dt=0.02, n_traj=100_000, seed=424242)
        stats = run_ensemble(dp, state, cfg)
        ns = estimate_nonstationary(stats)
        if p in (0.0, 1.0):
            u, v = ns["mode_components"]
            su, sv = ns["mode_component_stderr"]
            assert abs(u) <= 3.0 * su, (p, ns)
            assert abs(v) <= 3.0 * sv, (p, ns)
            details.append(f"p={p}: mode consistent with 0")
        else:
            assert ns["amplitude_hat"] == pytest.approx(0.5, rel=0.10), ns
            details.append(f"p=1/2: amplitude {ns['amplitude_hat']:.3f}")
    _report(4, "tau+tau' covariance mode appears only for superpositions", started, 120.0,
            "; ".join(details))


def test_criterion_5_mean_response_agreement():
    started = time.perf_counter()
    dp = DimensionlessParams(g=0.05, r=0.5, T=40.0)
    for (p, phi) in ((0.5, 0.0), (0.3, math.pi / 3)):
        state = QubitState(p, phi)
        cfg = SimConfig(dt=0.02, n_traj=10_000, seed=20260809)
        stats = run_ensemble(dp, state, cfg)
        stderr = np.sqrt(np.maximum(stats.var_q, 0.0) / stats.n_traj)
        resid = np.abs(stats.mean_q - mean_closed_form(dp, state, stats.tau))
        assert resid[0] == 0.0
        assert np.all(resid[1:] <= 3.0 * stderr[1:]), float(np.max(resid[1:] / stderr[1:]))

    # solver cross-validation at dt = 1e-3
    dp50 = DimensionlessParams(g=0.05, r=0.5, T=50.0)
    state = QubitState(0.3, 1.0)
    tau = time_grid(dp50.T, 1e-3)
    zetas = sample_zetas(state, seed=5, indices=range(10))
    Z = _closed_form_batch(dp50, state, zetas, 0j, tau, "eq37")
    Q, P = _rk4_batch(dp50, state, zetas, 0j, tau, "eq37")
    solver_gap = max(float(np.max(np.abs(Z.real - Q))), float(np.max(np.abs(Z.imag - P))))
    assert solver_gap <= 1e-8
    _report(5, "ensemble mean matches the closed form within CLT bands", started, 60.0,
            f"solver cross-check gap {solver_gap:.1e}")


def test_criterion_6_quantum_oracle_validation():
    started = time.perf_counter()
    dp = DimensionlessParams(g=0.04, r=0.5, T=20.0)
    state = QubitState(0.5, 0.0)
    report = compare_classical_quantum(dp, state, SimConfig(dt=0.02, n_fock=40),
                                       g_values=(0.04, 0.02, 0.01))
    preferred = report["preferred_sign_convention"]
    assert report["conventions"][preferred]["scaling_exponent"] >= 1.7, report
    # the report must adjudicate the sign convention; record the verdict
    assert preferred in ("eq37", "eq35", "canonical")
    assert report["preferred_among_printed_pair"] in ("eq37", "eq35")
    _report(6, "exact quantum model validates the effective dynamics", started, 120.0,
            f"oracle prefers '{preferred}' (printed pair: '{report['preferred_among_printed_pair']}'), "
            f"discrepancy exponent {report['conventions'][preferred]['scaling_exponent']:.2f}")


def test_criterion_7_reconstruction_round_trip():
    started = time.perf_counter()
    dp = DimensionlessParams(g=0.05, r=0.5, T=40.0)
    truth = QubitState(0.3, 1.0)
    cfg = SimConfig(dt=0.02, n_traj=100_000, seed=777)
    stats = run_ensemble(dp, truth, cfg)
    result = reconstruct_from_stats(stats)
    assert abs(result.eta_f_hat - truth.eta_f) / truth.eta_f <= 0.05, result
    assert abs(result.phi_hat - truth.phi) <= 0.05, result
    assert len(result.p_branches) == 2
    assert min(result.p_branches) == pytest.approx(0.3, abs=0.05)
    assert max(result.p_branches) == pytest.approx(0.7, abs=0.05)

    # population-flip degeneracy: independent ensembles from p and 1-p are
    # statistically indistinguishable
    recovered = {}
    for p, seed in ((0.2, 1001), (0.8, 2002)):
        st = run_ensemble(dp, QubitState(p, 1.0), SimConfig(dt=0.02, n_traj=100_000, seed=seed))
        recovered[p] = reconstruct_from_stats(st)
    a, b = recovered[0.2], recovered[0.8]
    gap = abs(a.eta_f_hat - b.eta_f_hat)
    assert gap <= 3.0 * math.hypot(a.eta_f_stderr, b.eta_f_stderr)
    _report(7, "state recovered from classical trajectories", started, 120.0,
            f"eta_f {result.eta_f_hat:.4f} (truth {truth.eta_f:.4f}), "
            f"phi {result.phi_hat:.4f} (truth {truth.phi:.4f}), flip gap {gap:.2e}")


def test_criterion_8_bloch_map_extrema():
    started = time.perf_counter()
    bmap = bloch_map(129)
    assert np.allclose(bmap.eta_f[0, :], 0.0, atol=1e-14)
    assert np.allclose(bmap.eta_f[-1, :], 0.0, atol=1e-7)  # sin(pi/2...) rounding at the far pole
    assert np.allclose(bmap.eta_st[0, :], 1.0, atol=1e-14)
    assert np.allclose(bmap.eta_st[-1, :], 1.0, atol=1e-14)
    mid = bmap.theta.shape[0] // 2
    assert np.allclose(bmap.eta_f[mid, :], 0.5, atol=1e-14)
    assert np.allclose(bmap.eta_st[mid, :], 1.0 / math.sqrt(2.0), atol=1e-14)
    assert np.max(np.abs(bmap.eta_st**2 - (1.0 - 2.0 * bmap.eta_f**2))) <= 1e-14
    _report(8, "intensity-map extrema and identity", started, 10.0)


def test_criterion_9_byte_identical_across_thread_counts(tmp_path):
    started = time.perf_counter()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_o_hz = 0.5\nomega_q_hz = 1.0\ng_override = 0.05\n"
                   "p = 0.3\nphi = 1.0\nT = 30.0\ndt = 0.02\nn_traj = 2000\nseed = 99\n")
    outputs = {}
    for threads in (1, 8):
        out = tmp_path / f"stats_{threads}.csv"
        res = subprocess.run(
            [sys.executable, "-m", "qubitkick", "ensemble", "--config", str(cfg),
             "--threads", str(threads), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs[threads] = out.read_bytes() + (tmp_path / f"stats_{threads}.csv.summary.json").read_bytes()
    assert outputs[1] == outputs[8]
    _report(9, "fixed seed reproducible across thread counts", started, 60.0)
