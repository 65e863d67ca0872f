import contextlib
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import traceback
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubitkick import _g17, cli, core, dynamics, noise, reconstruct

CMD = [sys.executable, "-m", "qubitkick"]

CONFIG = """
omega_o_hz = 0.5
omega_q_hz = 1.0
g_override = 0.05
p = 0.5
phi = 0.0
T = 30.0
dt = 0.02
n_traj = 400
seed = 7
"""


def run_cli(*args):
    """`cli.main` run in this process with its output captured, as a finished subprocess.

    An uncaught exception exits 1 with its traceback on stderr, as the
    interpreter would; `TestUsageErrors.test_unknown_command` runs the real
    `python -m qubitkick` to pin the module's exit code.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except Exception:
            traceback.print_exc()
            code = 1
    return subprocess.CompletedProcess(CMD + list(args), code, stdout.getvalue(), stderr.getvalue())


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


def reference_csv(header, columns):
    """The row-wise "%.17g" formatting that `cli._csv` must reproduce byte for byte."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "".join([",".join(header) + "\n", *(",".join("%.17g" % v for v in row) + "\n" for row in rows)])


def decade_edges():
    """+-1 ulp around every decade, where %g switches form and 17 digits carry."""
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below = np.nextafter(decades, 0.0)
    above = np.nextafter(decades, np.inf)
    x = np.concatenate([decades, below, above])
    return np.concatenate([x, -x])


def near_ties():
    """Doubles m 2**k whose value times 10**(16 - e) lies 1/B or 1/(2B) off a half-integer,
    B the denominator of 2**k 10**(16 - e): the closest a 17-digit rounding comes to a tie."""
    values = []
    for k in range(-1074, 971):
        for e in {math.floor((52 + k) * math.log10(2)), math.floor((53 + k) * math.log10(2))}:
            scale = Fraction(2) ** k * Fraction(10) ** (16 - e)
            num, den = scale.numerator, scale.denominator
            if den < 3:
                continue
            half = den // 2
            for target in ((half + 1, half - 1) if den % 2 == 0 else (half, half + 1)):
                m = target * pow(num, -1, den) % den
                m += -(-(2**52 - m) // den) * den if m < 2**52 else 0
                if m < 2**53 and 10**16 <= m * scale < 10**17:
                    values.append(math.ldexp(m, k))
    return np.array(values)


SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                     2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                     1e-280, 1e280, 0.5, 1.0, 2.0**53, 2.0**53 + 2.0, 2.0**63, 2.0**64,
                     # 18 significant digits ending in 5: ties at 17 digits
                     1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375, -(1e15 + 0.25)])


class TestCsvFormat:
    def assert_matches(self, header, columns):
        assert cli._csv(header, columns) == reference_csv(header, columns)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20251018).integers(0, 2**64, size=200_000, dtype=np.uint64,
                                                        endpoint=False)
        values = bits.view(np.float64)
        self.assert_matches(["a", "b", "c", "d"], list(values.reshape(4, -1)))

    def test_decade_edges(self):
        # 1e-5/1e-4 and 1e16/1e17 among them
        self.assert_matches(["x"], [decade_edges()])

    def test_near_rounding_ties(self):
        x = near_ties()
        assert x.size > 200
        self.assert_matches(["x", "neg"], [x, -x])

    def test_subnormals_zeros_and_non_finite(self):
        subnormals = np.random.default_rng(3).integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
        self.assert_matches(["s"], [np.concatenate([SPECIALS, subnormals, -subnormals])])
        assert cli._csv(["z", "n", "i"], [[-0.0, 0.0], [np.nan, -np.nan], [np.inf, -np.inf]]) == \
            "z,n,i\n-0,nan,inf\n0,nan,-inf\n"

    @pytest.mark.parametrize("T, dt", ((50.0, 1e-3), (40.0, 0.02), (200.0, 0.02), (30.0, 0.02)))
    def test_time_grids(self, T, dt):
        tau = dynamics.time_grid(T, dt)
        self.assert_matches(["tau", "sin", "scaled"], [tau, np.sin(tau), 1e-3 * tau])

    def test_zero_rows_give_the_header_alone(self):
        assert cli._csv(["tau", "q"], [np.empty(0), np.empty(0)]) == "tau,q\n"

    def test_unequal_columns_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            cli._csv(["a", "b"], [np.zeros(3), np.zeros(2)])

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.floats())
    def test_any_float(self, x):
        assert cli._csv(["x"], [[x]]) == "x\n" + "%.17g\n" % x

    def test_fixed_form_at_every_point_position(self):
        # 10**k with k in 0..16 puts the point after digit k: inside the digits up to k = 15,
        # pushing the 17th digit out of words 1-2; trailing zeros cut the text short
        digits = ["12345678901234567", "12345678901234560", "12345678900000000", "10000000000000001",
                  "12000000000000000", "10000000000000000", "99999999999999999"]
        x = np.array([float(f"{d[0]}.{d[1:]}e{k}") for k in range(17) for d in digits])
        self.assert_matches(["x", "neg"], [x, -x])

    @pytest.mark.parametrize("rows", (cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1,
                                      2 * cli._CSV_BLOCK + 1))
    def test_block_edges(self, rows):
        rng = np.random.default_rng(rows)
        fixed = rng.integers(1, 10**9, rows) * 10.0 ** rng.integers(-10, 8, rows)  # inner points
        small = rng.random(rows) * 10.0 ** rng.integers(-4, 0, rows)             # 0.000 lead
        exponent = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        mixed = np.choose(np.arange(rows) % 3, [fixed, small, exponent])
        self.assert_matches(["fixed", "small", "exponent", "mixed"], [fixed, small, exponent, mixed])

    def test_last_byte_of_every_row_is_free(self):
        bits = np.random.default_rng(7).integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
        x = np.concatenate([decade_edges(), near_ties(), SPECIALS, bits])
        cells = _g17.format_g17(x)
        assert cells.shape == x.shape + (_g17.WIDTH,)
        assert not cells[:, -1].any()


def reference_jsonable(obj):
    """The recursive conversion that `cli._jsonable` must reproduce."""
    if isinstance(obj, dict):
        return {k: reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return reference_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return reference_jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return reference_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


class FloatSubclass(float):
    pass


@dataclasses.dataclass(frozen=True)
class Pair:
    x: float
    y: float


class TestJsonEnvelope:
    def test_conversion_matches_reference(self):
        values = [1.5, -0.0, math.nan, math.inf, -math.inf, np.float64(2.5), np.float64(math.nan),
                  np.float32(0.1), np.int64(7), FloatSubclass(3.25), FloatSubclass(math.inf), True, False, None, "s", 0,
                  (1.0, math.nan), np.array([[1.0, math.nan], [math.inf, 2.0]]),
                  Pair(0.5, math.nan)]
        obj = {"values": values, "nested": {"x": values}}
        assert json.dumps(cli._jsonable(obj)) == json.dumps(reference_jsonable(obj))
        assert all(type(a) is type(b) for a, b in zip(cli._jsonable(values), reference_jsonable(values)))

    @pytest.mark.parametrize("argv", (
        ("simulate", "--solver", "rk4"),
        ("verify", "bch", "--seed", "3"),
        ("reconstruct",),
    ))
    def test_bytes_match_reference(self, argv, config_file, tmp_path, monkeypatch):
        seen = []
        envelope = cli._envelope

        def recording(command, config_echo, data):
            seen.append((command, config_echo, data))
            return envelope(command, config_echo, data)

        monkeypatch.setattr(cli, "_envelope", recording)
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--config", config_file, "--format", "json", "--out", str(out)]) == 0
        [(command, config_echo, data)] = seen
        doc = {"schema": cli.SCHEMA, "command": command,
               "config_echo": reference_jsonable(config_echo), "data": reference_jsonable(data)}
        assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestTable1:
    def test_exits_zero_and_prints_platforms(self):
        res = run_cli("table1")
        assert res.returncode == 0
        for name in ("ion", "nanodiamond", "piezo"):
            assert name in res.stdout
        assert "degen" in res.stdout  # piezo deterministic scale

    def test_json_output(self, tmp_path):
        out = tmp_path / "table.json"
        res = run_cli("table1", "--out", str(out), "--format", "json")
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "qubit-kick/2"
        assert len(doc["data"]) == 9

    def test_json_without_out_prints_the_envelope(self, tmp_path):
        out = tmp_path / "table.json"
        run_cli("table1", "--out", str(out), "--format", "json")
        res = run_cli("table1", "--format", "json")
        assert res.returncode == 0
        # stdout holds the envelope alone, the same bytes --out writes
        assert res.stdout == out.read_text()


class TestSimulate:
    def test_missing_config_exits_2_naming_path(self):
        res = run_cli("simulate", "--config", "missing.cfg")
        assert res.returncode == 2
        assert "missing.cfg" in res.stderr

    def test_writes_trajectory_csv(self, config_file, tmp_path):
        out = tmp_path / "traj.csv"
        res = run_cli("simulate", "--config", config_file, "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,q,p"
        assert len(lines) == 1502  # header + grid

    def test_rk4_solver_flag(self, config_file, tmp_path):
        out = tmp_path / "traj.csv"
        res = run_cli("simulate", "--config", config_file, "--solver", "rk4", "--out", str(out))
        assert res.returncode == 0

    def test_draws_once_through_the_dynamics_sampler(self, tmp_path, monkeypatch):
        # one draw, index 0 of the seed's stream, taken through dynamics.sample_zetas,
        # and the rows are that draw's trajectory to the bit
        cfg = tmp_path / "off-equator.cfg"
        cfg.write_text(CONFIG.replace("p = 0.5", "p = 0.3"))
        drawn = []

        def recording_sampler(state, seed, indices):
            zetas = noise.sample_zetas(state, seed, indices)
            drawn.append((seed, indices, zetas))
            return zetas

        monkeypatch.setattr(dynamics, "sample_zetas", recording_sampler)
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "31", "--out", str(out)]) == 0
        assert len(drawn) == 1
        seed, indices, zetas = drawn[0]
        assert seed == 31 and indices == range(0, 1)
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        setup = core.load_config(str(cfg))
        _, Q, P = dynamics.solve_trajectory(setup.dimensionless, setup.state, zetas, setup.sim)
        assert np.array_equal(rows[:, 1], Q[0]) and np.array_equal(rows[:, 2], P[0])

    def test_eom_sign_flag_changes_output(self, config_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_cli("simulate", "--config", config_file, "--out", str(out_a))
        run_cli("simulate", "--config", config_file, "--eom-sign", "canonical", "--out", str(out_b))
        assert out_a.read_bytes() != out_b.read_bytes()


class TestEnsemble:
    def test_thread_count_does_not_change_bytes(self, config_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out8 = tmp_path / "b.csv"
        r1 = run_cli("ensemble", "--config", config_file, "--threads", "1", "--out", str(out1))
        r8 = run_cli("ensemble", "--config", config_file, "--threads", "8", "--out", str(out8))
        assert r1.returncode == 0 and r8.returncode == 0
        assert out1.read_bytes() == out8.read_bytes()
        assert (tmp_path / "a.csv.summary.json").read_bytes() == (tmp_path / "b.csv.summary.json").read_bytes()

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        out = tmp_path / "a.csv"
        run_cli("ensemble", "--config", config_file, "--out", str(out))
        first = out.read_bytes()
        run_cli("ensemble", "--config", config_file, "--out", str(out))
        assert out.read_bytes() == first

    def test_seed_flag_overrides_config(self, config_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_cli("ensemble", "--config", config_file, "--out", str(out1))
        run_cli("ensemble", "--config", config_file, "--seed", "99", "--out", str(out2))
        assert out1.read_bytes() != out2.read_bytes()

    def test_psd_output(self, config_file, tmp_path):
        out = tmp_path / "stats.csv"
        psd = tmp_path / "psd.csv"
        res = run_cli("ensemble", "--config", config_file, "--out", str(out), "--psd-out", str(psd))
        assert res.returncode == 0
        assert psd.read_text().splitlines()[0] == "freq,psd"

    def test_csv_header(self, config_file, tmp_path):
        out = tmp_path / "stats.csv"
        run_cli("ensemble", "--config", config_file, "--out", str(out))
        assert out.read_text().splitlines()[0] == "tau,mean_q,mean_p,var_q"

    def test_welch_runs_only_for_psd_out(self, config_file, tmp_path, monkeypatch):
        welch = dynamics._signal.welch

        def refuse(*args, **kwargs):
            raise AssertionError("Welch ran without --psd-out")

        monkeypatch.setattr(dynamics._signal, "welch", refuse)
        out = tmp_path / "stats.csv"
        assert cli.main(["ensemble", "--config", config_file, "--out", str(out)]) == 0
        assert cli.main(["ensemble", "--config", config_file, "--format", "json",
                         "--out", str(tmp_path / "stats.json")]) == 0
        monkeypatch.setattr(dynamics._signal, "welch", welch)
        psd = tmp_path / "psd.csv"
        assert cli.main(["ensemble", "--config", config_file, "--out", str(out), "--psd-out", str(psd)]) == 0
        lines = psd.read_text().splitlines()
        # one segment over the whole 1501-point grid: 751 one-sided bins
        assert lines[0] == "freq,psd" and len(lines) == 1 + 751


class TestConfigKeys:
    """Every config key has a reader: changed alone, it changes the CSV bytes that
    `simulate` or `ensemble` writes (the JSON envelopes echo every key, read or not)."""

    BASE = {"omega_o_hz": 0.5, "omega_q_hz": 1.0, "g_override": 0.05, "p": 0.3, "phi": 1.0,
            "T": 5.0, "dt": 0.05, "n_traj": 20, "seed": 3, "n_fock": 40, "n_qubits": 1}
    # coupling_hz is read only where g_override is absent
    COUPLING_BASE = {**{k: v for k, v in BASE.items() if k != "g_override"}, "coupling_hz": 0.2}

    @staticmethod
    def outputs(directory, values):
        directory.mkdir()
        cfg = directory / "run.cfg"
        cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        written = []
        for command in ("simulate", "ensemble"):
            out = directory / f"{command}.csv"
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            written.append(out.read_bytes())
        return written

    @pytest.mark.parametrize("key", sorted(core._CONFIG))
    def test_every_key_changes_an_output(self, tmp_path, key):
        base = self.COUPLING_BASE if key == "coupling_hz" else self.BASE
        value = base.get(key, 1.0)
        changed = {**base, key: value + 1 if type(value) is int else 1.25 * value}
        same = self.outputs(tmp_path / "base", base) == self.outputs(tmp_path / "changed", changed)
        # n_fock is the one key without a reader: the oracle's truncation is fixed at
        # quantum.ORACLE_N_FOCK, and the key stays while the benchmark's configs set it
        assert same == (key == "n_fock"), key


class TestVerify:
    def test_bch_report(self, tmp_path):
        out = tmp_path / "bch.json"
        res = run_cli("verify", "bch", "--out", str(out), "--format", "json")
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["data"]["slope"] >= 2.7
        assert len(doc["data"]["g"]) == len(doc["data"]["error"]) == 4

    def test_influence_report(self, tmp_path):
        out = tmp_path / "infl.json"
        res = run_cli("verify", "influence", "--out", str(out), "--format", "json")
        assert res.returncode == 0
        assert json.loads(out.read_text())["data"]["slope"] >= 2.7

    def test_noise_report(self, config_file, tmp_path):
        out = tmp_path / "noise.json"
        res = run_cli("verify", "noise", "--config", config_file, "--draws", "20000",
                      "--out", str(out), "--format", "json")
        assert res.returncode == 0
        data = json.loads(out.read_text())["data"]
        assert data["max_cov_error"] < 0.05
        assert data["rank"] <= 2
        assert data["min_eigenvalue"] >= -1e-10 * 128

    def test_oracle_report(self, tmp_path):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("omega_o_hz = 0.5\nomega_q_hz = 1.0\ng_override = 0.02\n"
                       "p = 0.5\nphi = 0.0\nT = 20.0\ndt = 0.02\n")
        out = tmp_path / "oracle.json"
        res = run_cli("verify", "oracle", "--config", str(cfg), "--out", str(out), "--format", "json")
        assert res.returncode == 0
        data = json.loads(out.read_text())["data"]
        assert data["preferred_sign_convention"] == "canonical"
        assert data["scaling_exponent"] >= 1.7


class TestReconstruct:
    def test_inline_generation(self, tmp_path):
        cfg = tmp_path / "rec.cfg"
        cfg.write_text("omega_o_hz = 0.5\nomega_q_hz = 1.0\ng_override = 0.05\n"
                       "p = 0.3\nphi = 1.0\nT = 40.0\ndt = 0.02\nn_traj = 2000\nseed = 5\n")
        out = tmp_path / "rec.json"
        res = run_cli("reconstruct", "--config", str(cfg), "--out", str(out), "--format", "json")
        assert res.returncode == 0
        data = json.loads(out.read_text())["data"]
        assert abs(data["eta_f_hat"] - 0.458) < 0.05
        assert len(data["p_branches"]) == 2

    def test_pole_state_phase_is_null(self, tmp_path):
        # p = 0: the fitted drive amplitude is noise, under 3 of its stderrs
        cfg = tmp_path / "pole.cfg"
        cfg.write_text("omega_o_hz = 0.5\nomega_q_hz = 1.0\ng_override = 0.05\np = 0.0\nphi = 1.0\n"
                       "n_fock = 40\nT = 40.0\ndt = 0.02\nn_traj = 100000\nseed = 1\n")
        out = tmp_path / "rec.json"
        res = run_cli("reconstruct", "--config", str(cfg), "--out", str(out), "--format", "json")
        assert res.returncode == 0
        data = json.loads(out.read_text())["data"]
        assert data["phase_indeterminate"] is True
        assert data["phi_hat"] is None and data["phi_stderr"] is None
        assert data["eta_f_stderr"] > 0.0

    def test_from_existing_csv(self, config_file, tmp_path):
        stats = tmp_path / "stats.csv"
        run_cli("ensemble", "--config", config_file, "--out", str(stats))
        out = tmp_path / "rec.json"
        res = run_cli("reconstruct", "--config", config_file, "--ensemble-csv", str(stats),
                      "--out", str(out), "--format", "json")
        assert res.returncode == 0
        data = json.loads(out.read_text())["data"]
        assert abs(data["eta_f_hat"] - 0.5) < 0.05
        # fit residuals of a Monte Carlo mean carry no error estimate
        assert data["eta_f_stderr"] is None and data["phi_stderr"] is None

    @pytest.mark.parametrize("conv", ("eq37", "eq35", "canonical"))
    def test_csv_honours_eom_sign(self, config_file, tmp_path, conv):
        stats = tmp_path / "stats.csv"
        run_cli("ensemble", "--config", config_file, "--eom-sign", conv, "--out", str(stats))
        data = {}
        for name, extra in (("csv", ("--ensemble-csv", str(stats))), ("inline", ())):
            out = tmp_path / f"{name}.json"
            res = run_cli("reconstruct", "--config", config_file, "--eom-sign", conv, *extra,
                          "--out", str(out), "--format", "json")
            assert res.returncode == 0
            data[name] = json.loads(out.read_text())["data"]
        csv, inline = data["csv"], data["inline"]
        assert csv["eom_sign"] == conv
        # the CSV holds the same ensemble's mean, so both paths give the same fit
        assert csv["eta_f_hat"] == pytest.approx(inline["eta_f_hat"], rel=1e-9)
        # the in-memory batch stderr widens the bounds where 400 draws are
        # too few for them (eq35: 0.14 in eta_f at p = 1/2)
        assert abs(csv["eta_f_hat"] - 0.5) < 0.05 + 3.0 * inline["eta_f_stderr"]
        assert abs(math.remainder(csv["phi_hat"], 2.0 * math.pi)) < 0.1 + 3.0 * inline["phi_stderr"]

    @pytest.mark.parametrize("conv", dynamics.EOM_CONVENTIONS)
    def test_csv_round_trip_is_exact(self, config_file, tmp_path, conv):
        stats_csv = tmp_path / "stats.csv"
        assert cli.main(["ensemble", "--config", config_file, "--eom-sign", conv,
                         "--out", str(stats_csv)]) == 0
        setup = core.load_config(config_file)
        dp = setup.dimensionless
        stats = dynamics.run_ensemble(dp, setup.state, setup.sim, eom_sign=conv)
        data = cli._read_ensemble_csv(str(stats_csv), conv, dp)
        assert np.array_equal(data["tau"], stats.tau) and np.array_equal(data["mean_q"], stats.mean_q)
        out = tmp_path / "rec.json"
        assert cli.main(["reconstruct", "--config", config_file, "--eom-sign", conv,
                         "--ensemble-csv", str(stats_csv), "--format", "json", "--out", str(out)]) == 0
        result = reconstruct.recover_state(reconstruct.fit_mean(stats.tau, stats.mean_q, dp, conv))
        assert out.read_text() == cli._envelope("reconstruct", setup.raw, result)

    def test_missing_csv_exits_2(self, config_file):
        res = run_cli("reconstruct", "--config", config_file, "--ensemble-csv", "nope.csv")
        assert res.returncode == 2
        assert "nope.csv" in res.stderr

    def test_csv_convention_mismatch_exits_2(self, config_file, tmp_path):
        stats = tmp_path / "stats.csv"
        run_cli("ensemble", "--config", config_file, "--eom-sign", "canonical", "--out", str(stats))
        res = run_cli("reconstruct", "--config", config_file, "--ensemble-csv", str(stats))
        assert res.returncode == 2
        assert "canonical" in res.stderr and "eq37" in res.stderr
        # without the summary there is nothing to check against
        (tmp_path / "stats.csv.summary.json").unlink()
        out = tmp_path / "rec.json"
        res = run_cli("reconstruct", "--config", config_file, "--ensemble-csv", str(stats),
                      "--out", str(out), "--format", "json")
        assert res.returncode == 0
        assert json.loads(out.read_text())["data"]["eom_sign"] == "eq37"

    @pytest.mark.parametrize("key, value", (("g_override", "0.025"), ("omega_o_hz", "0.7")))
    def test_csv_config_mismatch_exits_2(self, config_file, tmp_path, capsys, key, value):
        # read under another g or r, the mean was fitted to the wrong rows and exited 0
        stats = tmp_path / "stats.csv"
        assert cli.main(["ensemble", "--config", config_file, "--out", str(stats)]) == 0
        other = tmp_path / "other.cfg"
        other.write_text("".join(f"{key} = {value}\n" if line.startswith(key) else line + "\n"
                                 for line in CONFIG.splitlines()))
        assert cli.main(["reconstruct", "--config", str(other), "--ensemble-csv", str(stats)]) == 2
        assert str(stats) in capsys.readouterr().err

    @pytest.mark.parametrize("text, reason", (("time,q\n0,0\n1,1\n", "'tau'"),
                                              ("tau,mean_q\n0,1\n1,2,3\n", "unreadable"),
                                              ("tau,mean_q,var_q\n", "no data rows"),
                                              ("", "is empty"), ("\n# no rows\n", "is empty")))
    def test_malformed_csv_exits_2(self, config_file, tmp_path, text, reason):
        stats = tmp_path / "stats.csv"
        stats.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning on the way is a traceback here
            res = run_cli("reconstruct", "--config", config_file, "--ensemble-csv", str(stats))
        assert res.returncode == 2
        assert str(stats) in res.stderr and reason in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("column", ("tau", "mean_q"))
    def test_non_finite_cell_exits_2(self, config_file, tmp_path, column):
        stats = tmp_path / "stats.csv"
        run_cli("ensemble", "--config", config_file, "--out", str(stats))
        lines = stats.read_text().splitlines()
        cells = lines[4].split(",")
        cells[lines[0].split(",").index(column)] = ""  # the cell of data row 4
        lines[4] = ",".join(cells)
        stats.write_text("\n".join(lines) + "\n")
        res = run_cli("reconstruct", "--config", config_file, "--ensemble-csv", str(stats))
        assert res.returncode == 2
        assert repr(column) in res.stderr and "row 4" in res.stderr
        assert "Traceback" not in res.stderr

    def test_summary_with_an_unknown_key_exits_2(self, config_file, tmp_path):
        # a summary whose config echo holds mass_kg, a key the config no longer takes
        stats = tmp_path / "stats.csv"
        assert cli.main(["ensemble", "--config", config_file, "--out", str(stats)]) == 0
        summary = tmp_path / "stats.csv.summary.json"
        doc = json.loads(summary.read_text())
        doc["config_echo"]["mass_kg"] = "1.5e-26"
        summary.write_text(json.dumps(doc))
        res = run_cli("reconstruct", "--config", config_file, "--ensemble-csv", str(stats))
        assert res.returncode == 2
        assert "'mass_kg'" in res.stderr and "Traceback" not in res.stderr

    def test_single_row_csv_refused_cleanly(self, config_file, tmp_path):
        stats = tmp_path / "stats.csv"
        stats.write_text("tau,mean_q\n0,0\n")
        res = run_cli("reconstruct", "--config", config_file, "--ensemble-csv", str(stats))
        assert res.returncode == 1
        assert "grid must cover" in res.stderr and "Traceback" not in res.stderr


class TestBlochMap:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "map.csv"
        res = run_cli("bloch-map", "--resolution", "16", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,phi,eta_f,eta_st"
        assert len(lines) == 1 + 16 * 16


    def test_json_rows_match_csv(self, tmp_path):
        csv_out, json_out = tmp_path / "map.csv", tmp_path / "map.json"
        assert run_cli("bloch-map", "--resolution", "8", "--out", str(csv_out)).returncode == 0
        res = run_cli("bloch-map", "--resolution", "8", "--format", "json", "--out", str(json_out))
        assert res.returncode == 0
        rows = json.loads(json_out.read_text())["data"]["rows"]
        assert len(rows) == 8 * 8
        table = np.loadtxt(csv_out, delimiter=",", skiprows=1)
        header = ["theta", "phi", "eta_f", "eta_st"]
        assert np.array_equal([[row[k] for k in header] for row in rows], table)


# the flags each command and verify check accepts, and a value each parses
RUN_FLAGS = ("--config", "--seed", "--out", "--format", "--eom-sign")
REPORT_FLAGS = ("--config", "--seed", "--out", "--format")
ACCEPTED = {
    ("table1",): ("--out", "--format"),
    ("simulate",): (*RUN_FLAGS, "--solver"),
    ("ensemble",): (*RUN_FLAGS, "--threads", "--psd-out"),
    ("verify", "bch"): REPORT_FLAGS,
    ("verify", "influence"): REPORT_FLAGS,
    ("verify", "noise"): (*REPORT_FLAGS, "--draws"),
    ("verify", "oracle"): ("--config", "--out", "--format"),
    ("reconstruct",): (*RUN_FLAGS, "--threads", "--ensemble-csv"),
    ("bloch-map",): ("--out", "--format", "--resolution"),
}
# flags a command would ignore, so it refuses them
REFUSED = {
    ("table1",): ("--config", "--seed", "--eom-sign", "--threads"),
    ("bloch-map",): ("--config", "--seed", "--eom-sign", "--threads"),
    ("simulate",): ("--threads",),
    ("verify", "bch"): ("--eom-sign", "--threads", "--draws"),
    ("verify", "influence"): ("--eom-sign", "--threads", "--draws"),
    ("verify", "noise"): ("--eom-sign", "--threads"),
    ("verify", "oracle"): ("--eom-sign", "--threads", "--draws", "--seed"),
}
FLAG_VALUES = {"--config": "run.cfg", "--seed": "3", "--threads": "2", "--out": "out.csv",
               "--format": "json", "--eom-sign": "eq35", "--solver": "rk4", "--psd-out": "psd.csv",
               "--draws": "100", "--ensemble-csv": "stats.csv", "--resolution": "16"}


def flag_pairs(table):
    return [pytest.param(words, flag, id=" ".join((*words, flag)))
            for words, flags in table.items() for flag in flags]


class TestOptionSurface:
    def test_pair_counts(self):
        assert (len(flag_pairs(ACCEPTED)), len(flag_pairs(REFUSED))) == (41, 21)

    @pytest.mark.parametrize("words,flag", flag_pairs(ACCEPTED))
    def test_accepted_flag_parses(self, words, flag):
        args = cli.build_parser().parse_args([*words, flag, FLAG_VALUES[flag]])
        assert str(getattr(args, flag[2:].replace("-", "_"))) == FLAG_VALUES[flag]
        assert callable(args.handler)

    @pytest.mark.parametrize("words,flag", flag_pairs(REFUSED))
    def test_refused_flag_exits_2(self, words, flag, capsys):
        assert cli.main([*words, flag, FLAG_VALUES[flag]]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("words", ACCEPTED, ids=" ".join)
    def test_help_lists_only_the_commands_flags(self, words, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no line break inside a flag name
        assert cli.main([*words, "--help"]) == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == {"--help", *ACCEPTED[words]}


class TestParser:
    def test_built_once_and_reused_after_failures(self, config_file, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert run_cli("simulate", "--config", config_file, "--out", str(first)).returncode == 0
        # a usage error part-way through options that would change the output
        assert run_cli("simulate", "--config", config_file, "--solver", "rk4", "--eom-sign", "eq35",
                       "--bogus").returncode == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace("p = 0.5", "p = abc"))
        assert run_cli("simulate", "--config", str(bad), "--solver", "rk4").returncode == 1
        res = run_cli("simulate", "--help")
        assert res.returncode == 0 and "--solver" in res.stdout
        assert run_cli("simulate", "--config", config_file, "--out", str(again)).returncode == 0
        assert again.read_bytes() == first.read_bytes()


class TestUsageErrors:
    def test_unknown_command(self):
        res = subprocess.run(CMD + ["frobnicate"], capture_output=True, text=True)
        assert res.returncode == 2

    def test_unknown_flag(self):
        assert run_cli("table1", "--bogus").returncode == 2

    def test_validation_failure_exit_code(self, tmp_path):
        # resonant config: reconstruct cannot fit and must exit 1
        cfg = tmp_path / "res.cfg"
        cfg.write_text("omega_o_hz = 1.0\nomega_q_hz = 1.0\ng_override = 0.05\n"
                       "T = 40.0\ndt = 0.02\nn_traj = 100\nseed = 5\n")
        res = run_cli("reconstruct", "--config", str(cfg))
        assert res.returncode == 1
        assert res.stderr.strip()

    def test_malformed_config_value_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG.replace("p = 0.5", "p = abc"))
        res = run_cli("reconstruct", "--config", str(cfg))
        assert res.returncode == 1
        assert "error: config key 'p'" in res.stderr and "Traceback" not in res.stderr

    def test_mass_key_exits_1(self, tmp_path):
        cfg = tmp_path / "mass.cfg"
        cfg.write_text(CONFIG + "mass_kg = 1.5e-26\n")
        res = run_cli("simulate", "--config", str(cfg))
        assert res.returncode == 1
        assert "'mass_kg'" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("draws", ["1", "0", "-3"])
    def test_too_few_noise_draws_exits_2(self, draws, capsys):
        assert cli.main(["verify", "noise", "--draws", draws]) == 2
        assert "--draws" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", ["7", "0", "-3"])
    def test_too_coarse_bloch_map_exits_2(self, resolution, capsys):
        assert cli.main(["bloch-map", "--resolution", resolution]) == 2
        assert "--resolution" in capsys.readouterr().err

    def test_unwritable_output_path_exits_2(self, config_file, tmp_path):
        res = run_cli("simulate", "--config", config_file,
                      "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"))
        assert res.returncode == 2
        assert res.stderr.strip()
