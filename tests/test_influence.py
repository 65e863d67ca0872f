import math
import warnings

import numpy as np
import pytest

from qubitkick.core import InvalidParameterError, QubitState
from qubitkick.influence import (
    IDENTITY2,
    SIGMA_X,
    SIGMA_Y,
    PathFunctionals,
    PathPair,
    bch_product,
    influence_phases,
    path_functionals,
    qubit_propagator_exact,
    verify_bch,
    verify_influence_expansion,
)

G_LADDER = (0.1, 0.05, 0.025, 0.0125)
# a propagator ladder: either sign of g, and the decoupled g = 0
LADDER = [0.1, -0.07, 0.0, 0.025, 0.0125]


def make_pair(tau, q, p, q_b=None, p_b=None):
    zeros = np.zeros_like(tau)
    return PathPair(tau=tau, q=q, p=p,
                    q_b=zeros if q_b is None else q_b,
                    p_b=zeros if p_b is None else p_b)


def random_pair(seed, n=4001, T=2.0 * math.pi):
    rng = np.random.default_rng(seed)
    tau = np.linspace(0.0, T, n)

    def trig():
        c = rng.normal(scale=0.5, size=5)
        return c[0] + c[1] * np.cos(tau) + c[2] * np.sin(tau) + c[3] * np.cos(2 * tau) + c[4] * np.sin(2 * tau)

    return PathPair(tau=tau, q=trig(), p=trig(), q_b=trig(), p_b=trig())


def sequential_propagator(q, p, T, g, substeps):
    """Reference: the substep rotations multiplied on one at a time, later ones on the left."""
    h = T / substeps
    t_mid = (np.arange(substeps) + 0.5) * h
    if callable(q):
        q_mid, p_mid = q(t_mid), p(t_mid)
    else:
        grid = np.linspace(0.0, T, q.size)
        q_mid, p_mid = np.interp(t_mid, grid, q), np.interp(t_mid, grid, p)
    # the rotating-frame drive pair
    f_x = q_mid * np.cos(t_mid) - p_mid * np.sin(t_mid)
    f_y = q_mid * np.sin(t_mid) + p_mid * np.cos(t_mid)
    U = IDENTITY2.copy()
    for a_x, a_y in zip(g * h * f_x, -g * h * f_y):
        theta = math.hypot(a_x, a_y)
        step = IDENTITY2.copy() if theta == 0.0 else (
            math.cos(theta) * IDENTITY2 - 1j * math.sin(theta) / theta * (a_x * SIGMA_X + a_y * SIGMA_Y))
        U = step @ U
    return U


def functionals_from_w(w_x, w_y, w_z=0.0):
    return PathFunctionals(0, 0, 0, 0, 0, 0, w_x, w_y, w_z)


class TestPathPair:
    def test_mismatched_lengths_rejected(self):
        tau = np.linspace(0, 1, 10)
        with pytest.raises(InvalidParameterError):
            PathPair(tau=tau, q=np.zeros(9), p=np.zeros(10), q_b=np.zeros(10), p_b=np.zeros(10))

    def test_nonuniform_grid_rejected(self):
        tau = np.array([0.0, 0.1, 0.3, 0.35])
        z = np.zeros(4)
        with pytest.raises(InvalidParameterError):
            PathPair(tau=tau, q=z, p=z, q_b=z, p_b=z)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidParameterError):
            PathPair(tau=np.array([0.0]), q=np.zeros(1), p=np.zeros(1), q_b=np.zeros(1), p_b=np.zeros(1))

    @pytest.mark.parametrize("start", (1.0, -0.5, 1e-9))
    def test_grid_not_from_zero_rejected(self, start):
        # the propagator samples the paths on [0, tau_end]: a pair on [1, 1 + 2 pi] read
        # a bch slope of 1.15 where the same paths from 0 read 2.94, with no error
        pair = random_pair(12)
        with pytest.raises(InvalidParameterError, match="tau"):
            PathPair(tau=pair.tau + start, q=pair.q, p=pair.p, q_b=pair.q_b, p_b=pair.p_b)


    @pytest.mark.parametrize("name", ("q", "p", "q_b", "p_b"))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_sample_refused(self, name, bad):
        # one NaN at index 200 of 401 gave verify_bch errors [nan, nan, nan] and slope nan
        pair = random_pair(15, n=401)
        arrays = {k: getattr(pair, k).copy() for k in ("tau", "q", "p", "q_b", "p_b")}
        arrays[name][200] = bad
        with pytest.raises(InvalidParameterError, match=rf"{name} must be finite, got -?(nan|inf) at index 200"):
            PathPair(**arrays)

    @pytest.mark.parametrize("tau", (-np.linspace(0.0, 2.0 * math.pi, 401), np.zeros(401)),
                             ids=("descending", "all-zero"))
    def test_grid_not_running_forward_rejected(self, tau):
        # a descending grid read a bch slope of 0.99 where ~3 is right; an all-zero one
        # divided by zero in the slope fit
        z = np.zeros_like(tau)
        with pytest.raises(InvalidParameterError, match="tau must run forward"):
            PathPair(tau=tau, q=z, p=z, q_b=z, p_b=z)


class TestPathFunctionals:
    def test_constant_forward_path_analytic(self):
        # q = 1, p = 0 gives f_x = cos, f_y = sin:
        #   F_x = sin(T), F_y = 1 - cos(T), F_z = -(T - sin(T))
        T = math.pi
        tau = np.linspace(0.0, T, 20001)
        pair = make_pair(tau, np.ones_like(tau), np.zeros_like(tau))
        f = path_functionals(pair)
        assert f.F_x == pytest.approx(0.0, abs=1e-8)
        assert f.F_y == pytest.approx(2.0, abs=1e-8)
        assert f.F_z == pytest.approx(-(T - math.sin(T)), abs=1e-7)
        assert f.W_x == pytest.approx(-f.F_x, abs=0)
        assert f.W_y == pytest.approx(f.F_y, abs=0)

    def test_zero_paths_vanish(self):
        tau = np.linspace(0.0, 3.0, 100)
        f = path_functionals(make_pair(tau, np.zeros_like(tau), np.zeros_like(tau)))
        assert (f.F_x, f.F_y, f.F_z, f.W_x, f.W_y, f.W_z) == (0, 0, 0, 0, 0, 0)

    def test_equal_paths_cancel_exactly(self):
        pair = random_pair(11)
        f = path_functionals(PathPair(tau=pair.tau, q=pair.q, p=pair.p, q_b=pair.q, p_b=pair.p))
        assert f.W_x == 0.0
        assert f.W_y == 0.0
        assert f.W_z == 0.0

    def test_double_integral_second_order_convergence(self):
        # q = cos, p = sin gives f_x = cos 2t, f_y = sin 2t and the exact
        # value F_z(T) = -T/2 + sin(2T)/4
        T = 5.0
        exact = -T / 2.0 + math.sin(2.0 * T) / 4.0

        def fz_error(n):
            tau = np.linspace(0.0, T, n)
            pair = make_pair(tau, np.cos(tau), np.sin(tau))
            return abs(path_functionals(pair).F_z - exact)

        ratio = fz_error(501) / fz_error(1001)
        assert ratio >= 3.5


class TestInfluencePhases:
    def test_decoupled_limit(self):
        f = path_functionals(random_pair(3))
        ph = influence_phases(f, QubitState(0.3, 1.0), g=0.0)
        assert ph.fluctuation_exponent == 0.0
        assert ph.force_phase == 0.0
        assert ph.dissipative_phase == 0.0

    def test_pole_state_has_no_linear_force(self):
        f = path_functionals(random_pair(4))
        ph = influence_phases(f, QubitState(0.0, 0.0), g=0.05)
        assert ph.force_phase == 0.0

    def test_hand_evaluated_fluctuation_coefficient(self):
        # W_x = 1, W_y = 0 at the equator with phi = 0: the W_x^2 coefficient
        # 1 - 2 p(1-p)(1 + cos 2 phi) vanishes
        ph = influence_phases(functionals_from_w(1.0, 0.0), QubitState(0.5, 0.0), g=0.05)
        assert ph.fluctuation_exponent == pytest.approx(0.0, abs=1e-16)

    def test_fluctuation_exponent_nonpositive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = QubitState(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            f = functionals_from_w(rng.normal(), rng.normal(), rng.normal())
            ph = influence_phases(f, s, g=0.08)
            assert ph.fluctuation_exponent <= 1e-12

    def test_qubit_count_scales_both_phases(self):
        f = path_functionals(random_pair(6))
        s = QubitState(0.3, 0.7)
        one = influence_phases(f, s, g=0.05, n_qubits=1)
        three = influence_phases(f, s, g=0.05, n_qubits=3)
        assert three.fluctuation_exponent == pytest.approx(3 * one.fluctuation_exponent, rel=1e-14)
        assert three.force_phase == pytest.approx(3 * one.force_phase, rel=1e-14)
        assert three.dissipative_phase == pytest.approx(3 * one.dissipative_phase, rel=1e-14)


class TestClosedForm:
    """The split-product overlap <psi| e^{igW_x sx} e^{igW_y sy} e^{ig^2 W_z sz} |psi>."""

    @staticmethod
    def overlap(f, state, g):
        psi = np.array(state.amplitudes(), dtype=complex)
        return complex(psi.conj() @ bch_product(f, g) @ psi)

    def test_decoupled_limit_is_unity(self):
        f = path_functionals(random_pair(7))
        assert self.overlap(f, QubitState(0.3, 0.5), g=0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_equal_paths_give_unity(self):
        pair = random_pair(8)
        f = path_functionals(PathPair(tau=pair.tau, q=pair.q, p=pair.p, q_b=pair.q, p_b=pair.p))
        assert self.overlap(f, QubitState(0.7, 2.0), g=0.1) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            f = functionals_from_w(rng.normal(scale=3), rng.normal(scale=3), rng.normal(scale=3))
            s = QubitState(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            assert abs(self.overlap(f, s, g=0.15)) <= 1.0 + 1e-10


class TestPropagator:
    def test_decoupled_limit_identity(self):
        tau = np.linspace(0, 2, 101)
        U = qubit_propagator_exact(np.cos(tau), np.sin(tau), 2.0, g=0.0, substeps=100)
        assert np.allclose(U, IDENTITY2, atol=1e-15)

    def test_zero_path_identity(self):
        U = qubit_propagator_exact(np.zeros(64), np.zeros(64), 5.0, g=0.1, substeps=63)
        assert np.allclose(U, IDENTITY2, atol=1e-15)

    def test_unitarity(self):
        pair = random_pair(12)
        U = qubit_propagator_exact(pair.q, pair.p, float(pair.tau[-1]), g=0.1, substeps=pair.tau.size - 1)
        assert np.linalg.norm(U.conj().T @ U - IDENTITY2) <= 1e-12

    def test_corotating_path_matches_fixed_axis_rotation(self):
        # q = cos, p = -sin makes the drive components constant (f_x = 1,
        # f_y = 0), so the exact propagator is exp(-i g T sigma_x)
        g, T = 0.08, 7.0
        U = qubit_propagator_exact(np.cos, lambda t: -np.sin(t), T, g, substeps=5000)
        expected = math.cos(g * T) * IDENTITY2 - 1j * math.sin(g * T) * SIGMA_X
        assert np.linalg.norm(U - expected) <= 1e-10

    def test_substeps_validation(self):
        with pytest.raises(InvalidParameterError):
            qubit_propagator_exact(np.zeros(100), np.zeros(100), 1.0, 0.1, substeps=50)

    @pytest.mark.parametrize("substeps", (2.5, 0))
    def test_non_integral_or_nonpositive_substeps_refused(self, substeps):
        with pytest.raises(InvalidParameterError, match="substeps"):
            qubit_propagator_exact(np.cos, np.sin, 1.0, 0.1, substeps)

    def test_numpy_integer_substeps_accepted(self):
        U = qubit_propagator_exact(np.cos, np.sin, 1.0, 0.1, np.int64(7))
        assert np.array_equal(U, qubit_propagator_exact(np.cos, np.sin, 1.0, 0.1, 7))

    def test_two_dimensional_g_refused(self):
        with pytest.raises(InvalidParameterError, match="g must be"):
            qubit_propagator_exact(np.cos, np.sin, 1.0, np.full((2, 2), 0.1), 8)

    @pytest.mark.parametrize("T", (-2.0, math.nan, math.inf, -math.inf))
    def test_backward_or_non_finite_horizon_refused(self, T):
        # arrays on a decreasing grid were interpolated as if it ran forward: at T = -2
        # the result sat 0.26 from that of the same paths as callables
        tau = np.linspace(0.0, 2.0, 201)
        for q, p in ((np.cos(tau), np.sin(tau)), (np.cos, np.sin)):
            with pytest.raises(InvalidParameterError, match="T must be"):
                qubit_propagator_exact(q, p, T, 0.1, 200)

    def test_zero_horizon_is_identity(self):
        tau = np.linspace(0.0, 2.0, 201)
        for q, p in ((np.cos(tau), np.sin(tau)), (np.cos, np.sin)):
            assert np.array_equal(qubit_propagator_exact(q, p, 0.0, 0.1, 200), IDENTITY2)

    def test_unequal_path_lengths_refused(self):
        with pytest.raises(InvalidParameterError, match="q and p"):
            qubit_propagator_exact(np.zeros(100), np.zeros(50), 1.0, 0.1, 100)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_sample_refused(self, bad):
        # an array holding inf gave a NaN propagator; the callables' samples are checked too
        tau = np.linspace(0.0, 2.0, 201)
        q, p = np.cos(tau), np.sin(tau)
        q[37] = bad
        for args, name, index in (((q, np.sin(tau)), "q", 37), ((np.cos(tau), q), "p", 37),
                                  ((np.cos, lambda t: np.where(t > 1.0, bad, 0.0)), "p", 100)):
            with pytest.raises(InvalidParameterError, match=rf"{name} must be finite, got (nan|inf) at index {index}"):
                qubit_propagator_exact(*args, 2.0, 0.1, 200)

    @pytest.mark.parametrize("order", ("callable first", "array first"))
    def test_one_callable_and_one_array_refused(self, order):
        # was a bare TypeError from float() of a numpy ufunc
        paths = (np.cos, np.zeros(11)) if order == "callable first" else (np.zeros(11), np.cos)
        with pytest.raises(InvalidParameterError, match="q and p must both be callables or both 1-D arrays"):
            qubit_propagator_exact(*paths, 1.0, 0.1, 10)

    def test_two_dimensional_paths_refused(self):
        # were refused as "substeps must be >= the number of grid intervals"
        with pytest.raises(InvalidParameterError, match=r"both 1-D arrays of one length, got shapes \(3, 11\) and \(3, 11\)"):
            qubit_propagator_exact(np.zeros((3, 11)), np.zeros((3, 11)), 1.0, 0.1, 100)

    @pytest.mark.parametrize("g", (math.nan, math.inf, [0.1, math.nan, 0.05]))
    def test_non_finite_coupling_refused(self, g):
        # g = nan gave a NaN propagator; g = inf warned and gave NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="g must be a finite scalar"):
                qubit_propagator_exact(np.cos, np.sin, 1.0, g, 8)

    def test_ladder_matches_scalar_calls(self):
        pair = random_pair(14)
        T = float(pair.tau[-1])
        ladder = qubit_propagator_exact(pair.q, pair.p, T, LADDER, 4000)
        assert ladder.shape == (len(LADDER), 2, 2)
        for g, U in zip(LADDER, ladder):
            assert np.abs(U - qubit_propagator_exact(pair.q, pair.p, T, g, 4000)).max() <= 1e-15

    @pytest.mark.parametrize("substeps", (1, 2, 7, 4000, 4001))
    def test_matches_sequential_product(self, substeps):
        # odd and even counts pad differently in the pairwise reduction; a
        # ladder call gives every coupling's propagator at once
        pair = random_pair(13)
        T, g = float(pair.tau[-1]), 0.1
        paths = [(np.cos, lambda t: 0.5 - np.sin(2 * t))]
        if substeps >= pair.tau.size - 1:
            paths.append((pair.q, pair.p))
        for q, p in paths:
            U = qubit_propagator_exact(q, p, T, g, substeps)
            assert U.shape == (2, 2)
            assert np.linalg.norm(U - sequential_propagator(q, p, T, g, substeps)) <= 1e-13
            ladder = qubit_propagator_exact(q, p, T, LADDER, substeps)
            for g_k, U_k in zip(LADDER, ladder):
                assert np.linalg.norm(U_k - sequential_propagator(q, p, T, g_k, substeps)) <= 1e-13
                assert np.linalg.norm(U_k.conj().T @ U_k - IDENTITY2) <= 1e-13
            assert np.array_equal(ladder[LADDER.index(0.0)], IDENTITY2)

class TestVerifyBch:
    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_coupling_refused(self, bad):
        # (0.1, 0.05, nan) ended in LinAlgError: SVD did not converge
        for check in (lambda g: verify_bch(random_pair(23, n=401), g),
                      lambda g: verify_influence_expansion(random_pair(23, n=401), QubitState(0.3, 1.0), g)):
            with pytest.raises(InvalidParameterError, match=r"coupling values must lie in \(0, 0.2\]"):
                check((0.1, 0.05, bad))

    def test_cubic_convergence_on_random_paths(self):
        report = verify_bch(random_pair(21), G_LADDER)
        assert report["slope"] >= 2.7

    def test_errors_decrease_monotonically(self):
        report = verify_bch(random_pair(22), G_LADDER)
        errs = report["error"]
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))

    def test_equal_paths_are_exact(self):
        pair = random_pair(23)
        diag = PathPair(tau=pair.tau, q=pair.q, p=pair.p, q_b=pair.q, p_b=pair.p)
        report = verify_bch(diag, G_LADDER)
        assert max(report["error"]) <= 1e-10

    def test_g_value_validation(self):
        pair = random_pair(24)
        with pytest.raises(InvalidParameterError):
            verify_bch(pair, (0.1, 0.05))
        with pytest.raises(InvalidParameterError):
            verify_bch(pair, (0.5, 0.25, 0.125, 0.0625))


class TestVerifyInfluenceExpansion:
    def test_cubic_convergence(self):
        report = verify_influence_expansion(random_pair(31), QubitState(0.3, 1.0), G_LADDER)
        assert report["slope"] >= 2.7

    def test_pole_states_still_converge(self):
        for p in (0.0, 1.0):
            report = verify_influence_expansion(random_pair(32), QubitState(p, 0.0), G_LADDER)
            assert report["slope"] >= 2.7

    def test_smallest_coupling_error_is_small(self):
        report = verify_influence_expansion(random_pair(33), QubitState(0.4, 0.9), G_LADDER)
        assert report["error"][-1] < 1e-4
