"""Command-line entry point.

Subcommands: table1, simulate, ensemble, verify bch, verify influence,
verify noise, verify oracle, reconstruct, bloch-map.  `build_parser` is the
one command table: each command accepts only the flags it declares there,
and any other flag exits 2.  Outputs are written atomically (temp file +
rename), with the permission bits a plain `open(path, "w")` would give them,
and CSV carries full double precision so reruns diff byte-identically.
Exit codes: 0 success; 1 a refused parameter or config value (a malformed or
out-of-range config key, among others) or a failed check or fit; 2 a usage
error: a bad flag or flag value, a missing config file, an unreadable or
mismatched ensemble CSV, or an output path that cannot be written.  The
errors that exit 1 are all defined in `core`, so `main` maps them without
importing the modules that raise them.

Start-up imports `core` and `dynamics` (for the parser's `--eom-sign` and
`--solver` choices) and, through them, `noise` and `spectral`.  Each handler
imports the other modules it calls, so `simulate` and `ensemble` never load
`forces`, `influence`, `quantum` or `reconstruct`.

Every CSV number is C's "%.17g" of the float64: 17 significant digits,
trailing zeros and a bare point dropped, the exponent form unless the rounded
decimal exponent is in [-4, 16], and `nan`, `inf`, `-inf`, `-0` spelled so.
`_csv` formats `_CSV_BLOCK` rows at a time with `_g17`, a numpy kernel that
writes each value into a 32-byte cell padded with NUL, without a per-value
call; the cell's spare last byte takes the delimiter, and one `translate` per
block drops the padding.  The values the kernel cannot prove exact (non-finite,
zeros, extreme exponents, decade edges, near rounding ties) go to Python's
"%.17g" one at a time.  `tests/test_cli.py` pins it to the row-wise
reference.  The blocks are decoded as they are made, so the text exists twice
at most: as blocks and joined.  `_write_atomic` encodes it `_WRITE_CHUNK`
characters at a time.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import core, dynamics  # the handlers import every other module they call

SCHEMA = "qubit-kick/2"
_CSV_BLOCK = 4096  # CSV rows formatted per array pass, bounding scratch memory
# in slices: one unsliced write raised validate's peak RSS from 46.6-46.8 to 49.3-49.5 MB
# (three fresh processes each)
_WRITE_CHUNK = 1 << 20  # characters of output encoded and written at a time

# the keys core has no default for; `core.realize_config` fills in the rest
_DEFAULT_CONFIG = {"omega_o_hz": "0.5", "omega_q_hz": "1.0", "g_override": "0.05"}


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _new_file_mode(path: str) -> int:
    """The permission bits `open(path, "w")` would leave: those of the file it
    replaces, or 0o666 less the umask for a new one."""
    try:
        return os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0o022)  # read by setting; put back at once
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        # mkstemp makes the file 0600; the output takes the mode a plain open would give it
        os.fchmod(fd, _new_file_mode(path))
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # in slices, so that encoding never holds a second full copy of a long text
            for start in range(0, len(text), _WRITE_CHUNK):
                fh.write(text[start:start + _WRITE_CHUNK])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV text of equal-length float columns, every cell as `_fmt` writes it."""
    from . import _g17  # imported on first use, not at CLI start-up

    columns = [np.asarray(c, dtype=float) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns must have equal length, got {lengths}")
    parts = [",".join(header) + "\n"]
    seps = np.array([ord(",")] * (len(columns) - 1) + [ord("\n")], dtype=np.uint8)
    for start in range(0, lengths[0] if columns else 0, _CSV_BLOCK):
        cells = _g17.format_g17(np.stack([c[start:start + _CSV_BLOCK] for c in columns], axis=-1))
        cells[..., -1] = seps  # each cell's spare last byte
        parts.append(cells.tobytes().translate(None, b"\0").decode())
    return "".join(parts)


def _jsonable(obj):
    # scalars first: a simulate envelope holds one float per grid value and column
    if type(obj) is float:
        return obj if math.isfinite(obj) else None
    if obj is None or type(obj) in (str, int, bool):
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # field by field: `dataclasses.asdict` would deep-copy every array first
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _envelope(command: str, config_echo: dict, data) -> str:
    doc = {"schema": SCHEMA, "command": command, "config_echo": _jsonable(config_echo),
           "data": _jsonable(data)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(args, command: str, config_echo: dict, csv_text: str | None, data) -> None:
    """Write csv or a json envelope to --out, or print to stdout."""
    if args.format == "json" or csv_text is None:
        payload = _envelope(command, config_echo, data)
    else:
        payload = csv_text
    if args.out:
        _write_atomic(args.out, payload)
    else:
        sys.stdout.write(payload)


def _emit_table(args, command: str, config_echo: dict, header: list[str], columns: list) -> None:
    """`_emit` equal-length columns as CSV, or as json `{"rows": [{header: value, ...}, ...]}`."""
    if args.format == "json":
        rows = [dict(zip(header, row)) for row in zip(*(c.tolist() for c in columns))]
        _emit(args, command, config_echo, None, {"rows": rows})
    else:
        _emit(args, command, config_echo, _csv(header, columns), None)


def _load_setup(args) -> core.RunSetup:
    if args.config:
        if not os.path.exists(args.config):
            raise UsageError(f"config file not found: {args.config}")
        setup = core.load_config(args.config)
    else:
        setup = core.realize_config(_DEFAULT_CONFIG)
    seed = getattr(args, "seed", None)  # `verify oracle` draws nothing and takes no --seed
    if seed is not None:
        # SimConfig refuses a bad seed as realize_config would; nothing else needs building again
        setup = dataclasses.replace(setup, sim=dataclasses.replace(setup.sim, seed=seed),
                                    raw={**setup.raw, "seed": str(seed)})
    return setup


# --- subcommand implementations -------------------------------------------

def _cmd_table1(args) -> int:
    from . import forces

    rows = forces.table_comparison()
    failed = any(not row["degenerate"] and not row["rel_error"] <= forces.TABLE_TOLERANCE for row in rows)
    if args.format == "json" and not args.out:
        # stdout carries the envelope alone, as for every other subcommand
        _emit(args, "table1", {}, None, rows)
        return 1 if failed else 0
    width = 14
    print(f"{'platform':<12} {'quantity':<8} {'computed [N]':>{width}} {'printed [N]':>{width}} {'rel err':>9}")
    for row in rows:
        if row["degenerate"]:
            comp = "-" if row["computed"] is None else f"{row['computed']:.3e}"
            print(f"{row['platform']:<12} {row['quantity']:<8} {comp:>{width}} {'-':>{width}} {'(degen)':>9}")
            continue
        ok = row["rel_error"] <= forces.TABLE_TOLERANCE
        print(f"{row['platform']:<12} {row['quantity']:<8} {row['computed']:>{width}.3e} "
              f"{row['printed']:>{width}.3e} {row['rel_error']:>8.2%}{'' if ok else '  <-- FAIL'}")
    if args.out:
        lines = ["platform,quantity,computed,printed,rel_error"]
        for row in rows:
            vals = [row["platform"], row["quantity"]] + [
                "" if row[k] is None else _fmt(row[k]) for k in ("computed", "printed", "rel_error")
            ]
            lines.append(",".join(vals))
        _emit(args, "table1", {}, "\n".join(lines) + "\n", rows)
    return 1 if failed else 0


def _cmd_simulate(args) -> int:
    setup = _load_setup(args)
    zetas = dynamics.sample_zetas(setup.state, setup.sim.seed, range(1))
    tau, Q, P = dynamics.solve_trajectory(setup.dimensionless, setup.state, zetas, setup.sim,
                                          eom_sign=args.eom_sign, solver=args.solver)
    _emit_table(args, "simulate", setup.raw, ["tau", "q", "p"], [tau, Q[0], P[0]])
    return 0


def _cmd_ensemble(args) -> int:
    setup = _load_setup(args)
    stats = dynamics.run_ensemble(setup.dimensionless, setup.state, setup.sim, eom_sign=args.eom_sign)
    csv_text = _csv(["tau", "mean_q", "mean_p", "var_q"],
                    [stats.tau, stats.mean_q, stats.mean_p, stats.var_q])
    summary = {
        "n_traj": stats.n_traj, "seed": setup.sim.seed, "eom_sign": stats.eom_sign,
        "coarse_tau": stats.coarse_tau, "cov_qq": stats.cov_qq, "max_var_q": float(stats.var_q.max()),
    }
    if args.format == "json":
        _emit(args, "ensemble", setup.raw, None, {"summary": summary, "stats_csv": csv_text})
    else:
        _emit(args, "ensemble", setup.raw, csv_text, None)
        if args.out:
            _write_atomic(args.out + ".summary.json", _envelope("ensemble", setup.raw, summary))
    if args.psd_out:
        _write_atomic(args.psd_out, _csv(["freq", "psd"], list(stats.psd())))
    return 0


def _random_path_pair(seed: int, n_grid: int = 4001, T: float = 2.0 * np.pi):
    """An `influence.PathPair` of random two-harmonic forward and backward paths."""
    from . import influence

    rng = np.random.default_rng(seed)
    tau = np.linspace(0.0, T, n_grid)
    cos1, sin1, cos2, sin2 = np.cos(tau), np.sin(tau), np.cos(2 * tau), np.sin(2 * tau)

    def trig(rng):
        c = rng.normal(scale=0.5, size=5)
        return c[0] + c[1] * cos1 + c[2] * sin1 + c[3] * cos2 + c[4] * sin2

    return influence.PathPair(tau=tau, q=trig(rng), p=trig(rng), q_b=trig(rng), p_b=trig(rng))


_G_VALUES = (0.1, 0.05, 0.025, 0.0125)  # couplings of the bch and influence convergence checks


def _bch_report(args, setup: core.RunSetup) -> dict:
    from . import influence

    return influence.verify_bch(_random_path_pair(setup.sim.seed), _G_VALUES)


def _influence_report(args, setup: core.RunSetup) -> dict:
    from . import influence

    return influence.verify_influence_expansion(_random_path_pair(setup.sim.seed), setup.state, _G_VALUES)


def _noise_report(args, setup: core.RunSetup) -> dict:
    from . import noise

    if args.draws < 2:
        raise UsageError(f"--draws must be at least 2 for the noise check, got {args.draws}")
    zetas = noise.sample_zetas(setup.state, setup.sim.seed, range(args.draws))
    grid = np.linspace(0.0, 4.0 * np.pi, 33)
    emp = noise.empirical_covariance_from_zetas(zetas, grid)
    kern = noise.kernel_block_matrix(grid, setup.state)
    rank_info = noise.kernel_rank_check(np.linspace(0.0, 4.0 * np.pi, 64), setup.state)
    return {
        "state": {"p": setup.state.p, "phi": setup.state.phi},
        "max_cov_error": float(np.max(np.abs(emp - kern))),
        "rank": rank_info["rank"],
        "min_eigenvalue": rank_info["min_eigenvalue"],
        "n_draws": args.draws,
    }


def _oracle_report(args, setup: core.RunSetup) -> dict:
    from . import quantum

    return quantum.compare_classical_quantum(setup.dimensionless, setup.state, setup.sim)


def _cmd_verify(args) -> int:
    """Every `verify` check: its parser names the `report` this emits as JSON."""
    setup = _load_setup(args)
    _emit(args, f"verify {args.check}", setup.raw, None, args.report(args, setup))
    return 0


def _read_ensemble_csv(path: str, eom_sign: str, dp: core.DimensionlessParams) -> np.ndarray:
    """Rows of an `ensemble` CSV, refused if it is empty, if its summary names another
    convention or a config of another (g, r, n_qubits), if it has no data rows, or if a
    `tau`/`mean_q` cell is not a finite number."""
    if not os.path.exists(path):
        raise UsageError(f"ensemble csv not found: {path}")
    with open(path, "rb") as fh:
        # genfromtxt would warn and then fail on a file of blank or comment lines alone
        if not any(line.partition(b"#")[0].strip() for line in fh):
            raise UsageError(f"ensemble csv {path} is empty")
    summary = path + ".summary.json"
    if os.path.exists(summary):
        try:
            with open(summary, encoding="utf-8") as fh:
                doc = json.load(fh)
            made_with = doc["data"]["eom_sign"]
            made = core.realize_config(doc["config_echo"]).dimensionless
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"unreadable ensemble summary {summary}: {exc}") from exc
        if made_with != eom_sign:
            raise UsageError(f"{path} was made with --eom-sign {made_with}, but the fit "
                             f"would use {eom_sign}; pass --eom-sign {made_with}")
        if (made.g, made.r, made.n_qubits) != (dp.g, dp.r, dp.n_qubits):
            raise UsageError(f"{path} was made at g = {made.g}, r = {made.r}, n_qubits = {made.n_qubits}, "
                             f"but --config gives g = {dp.g}, r = {dp.r}, n_qubits = {dp.n_qubits}")
    try:
        data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    except (ValueError, IndexError) as exc:
        raise UsageError(f"unreadable ensemble csv {path}: {exc}") from exc
    if data.size == 0:
        raise UsageError(f"ensemble csv {path} has no data rows")
    for column in ("tau", "mean_q"):
        if column not in (data.dtype.names or ()):
            raise UsageError(f"ensemble csv {path} has no {column!r} column")
        # genfromtxt reads an empty or unparseable cell as NaN
        bad = np.flatnonzero(~np.isfinite(data[column]))
        if bad.size:
            raise UsageError(f"ensemble csv {path} has a non-finite {column!r} value "
                             f"in data row {bad[0] + 1}")
    return data


def _cmd_reconstruct(args) -> int:
    from . import reconstruct

    setup = _load_setup(args)
    dp = setup.dimensionless
    if args.ensemble_csv:
        data = _read_ensemble_csv(args.ensemble_csv, args.eom_sign, dp)
        # the CSV carries no batch means, so the stderrs come back NaN
        fit = reconstruct.fit_mean(data["tau"], data["mean_q"], dp, args.eom_sign)
        result = reconstruct.recover_state(fit)
    else:
        stats = dynamics.run_ensemble(dp, setup.state, setup.sim, eom_sign=args.eom_sign)
        result = reconstruct.reconstruct_from_stats(stats)
    _emit(args, "reconstruct", setup.raw, None, result)
    return 0


def _cmd_bloch_map(args) -> int:
    from . import forces

    if args.resolution < forces.MIN_BLOCH_RESOLUTION:
        raise UsageError(f"--resolution must be at least {forces.MIN_BLOCH_RESOLUTION}, "
                         f"got {args.resolution}")
    bmap = forces.bloch_map(args.resolution)
    header = ["theta", "phi", "eta_f", "eta_st"]
    _emit_table(args, "bloch-map", {"resolution": args.resolution}, header,
                [getattr(bmap, name).ravel() for name in header])
    return 0


# every flag a command can take; a command declares the ones it accepts below
_FLAGS = {
    "--config": {"help": "flat key=value run configuration file"},
    "--seed": {"type": int, "help": "master seed (overrides config)"},
    "--threads": {"type": int,
                  "help": "accepted for compatibility; has no effect (ensembles reduce from moments)"},
    "--out": {"help": "output path (written atomically)"},
    "--format": {"choices": ("csv", "json"), "default": "csv",
                 "help": "csv or a json envelope; reconstruct and verify always write json"},
    "--eom-sign": {"choices": dynamics.EOM_CONVENTIONS, "default": dynamics.DEFAULT_EOM,
                   "help": "equation-of-motion sign convention"},
    "--solver": {"choices": dynamics.SOLVERS, "default": dynamics.SOLVERS[0]},
    "--psd-out": {"help": "also write the Welch PSD as CSV"},
    "--draws": {"type": int, "default": 100_000, "help": "sampler draws (at least 2)"},
    "--ensemble-csv": {"help": "existing ensemble CSV (tau,mean_q,...); its .summary.json, if "
                               "present, must match --eom-sign and the g, r and n_qubits of --config"},
    "--resolution": {"type": int, "default": 64},
}
_RUN = ("--config", "--seed", "--out", "--format", "--eom-sign")


def _add_command(subparsers, name: str, handler, help: str, flags, **defaults) -> None:
    parser = subparsers.add_parser(name, help=help)
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])
    parser.set_defaults(handler=handler, **defaults)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command table: each command and `verify` check names its handler and the flags
    it accepts.  Built once per process; `parse_args` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="qubitkick",
        description="Qubit-induced forces on a classical oscillator: simulation, "
                    "verification, and state reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "table1", _cmd_table1, "platform force budget vs published values",
                 ("--out", "--format"))
    _add_command(sub, "simulate", _cmd_simulate, "solve a single trajectory", (*_RUN, "--solver"))
    _add_command(sub, "ensemble", _cmd_ensemble, "Monte Carlo ensemble statistics",
                 (*_RUN, "--threads", "--psd-out"))
    verify = sub.add_parser("verify", help="consistency and convergence reports")
    checks = verify.add_subparsers(dest="check", required=True)
    report_flags = ("--config", "--seed", "--out", "--format")
    _add_command(checks, "bch", _cmd_verify, "BCH split-product convergence", report_flags,
                 report=_bch_report)
    _add_command(checks, "influence", _cmd_verify, "influence phase-expansion convergence",
                 report_flags, report=_influence_report)
    _add_command(checks, "noise", _cmd_verify, "sampled draws vs the noise kernel",
                 (*report_flags, "--draws"), report=_noise_report)
    _add_command(checks, "oracle", _cmd_verify, "effective dynamics vs the exact quantum model",
                 ("--config", "--out", "--format"), report=_oracle_report)
    _add_command(sub, "reconstruct", _cmd_reconstruct, "infer the qubit state from an ensemble",
                 (*_RUN, "--threads", "--ensemble-csv"))
    _add_command(sub, "bloch-map", _cmd_bloch_map, "state-dependence maps over the Bloch sphere",
                 ("--out", "--format", "--resolution"))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (core.InvalidParameterError, core.DegenerateBasisError, core.UndersampledError,
            core.TruncationError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
