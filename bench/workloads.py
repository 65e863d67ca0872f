"""The benchmark's workloads: config files and CLI command sequences.

Every workload uses the frequency ratio r = omega_o_hz / omega_q_hz = 0.5.
The seed given to the benchmark is the only varying input; it goes to each
command through `--seed` and into every config file.

This module imports only the standard library, so a set-up probe can load
it before timing the program's own imports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# the state every ensemble is generated from and reconstructs
STATE = {"omega_o_hz": 0.5, "omega_q_hz": 1.0, "g_override": 0.05, "p": 0.3, "phi": 1.0, "n_fock": 40}

# worker threads of the reconstruct command: nproc of the 2-core reference box
RECONSTRUCT_THREADS = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `{dir}` and `{seed}` in argv are filled in per run."""

    label: str
    argv: tuple[str, ...]
    gate: str | None = None       # gate in gates.GATES, checked after the command
    config: str | None = None     # config stem the gate reads
    trajectories: int = 0         # trajectories it completes, for traj_per_s
    threads: int | None = None    # its --threads value, recorded with results


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict              # stem -> config values at full size
    warmup: dict               # stem -> overrides for the small warm-up pass
    commands: tuple[Command, ...] = field(default=())

    def config_values(self, stem: str, seed: int, warm: bool = False) -> dict:
        values = dict(self.configs[stem], seed=seed)
        if warm:
            values.update(self.warmup.get(stem, {}))
        return values


def _cfg(stem: str) -> tuple[str, str]:
    return ("--config", "{dir}/" + stem + ".cfg")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="reconstruct-1e5",
            why="state inversion from 1e5 short trajectories: sampler, closed-form solve and "
                "reduction take nearly all the time; PSD off",
            configs={"state": dict(STATE, T=40.0, dt=0.02, n_traj=100_000)},
            warmup={"state": {"n_traj": 10_240}},
            commands=(
                Command("reconstruct",
                        ("reconstruct", *_cfg("state"), "--seed", "{seed}",
                         "--threads", str(RECONSTRUCT_THREADS), "--format", "json",
                         "--out", "{dir}/reconstruct.json"),
                        gate="reconstruct", config="state", trajectories=100_000,
                        threads=RECONSTRUCT_THREADS),
            ),
        ),
        Workload(
            name="spectra-long",
            why="same ensemble layer with few long rows and PSD on at the library default of "
                "one thread: Welch-heavy, sampler near idle",
            configs={"spectra": dict(STATE, T=200.0, dt=0.02, n_traj=10_000)},
            warmup={"spectra": {"n_traj": 400}},
            commands=(
                Command("ensemble",
                        ("ensemble", *_cfg("spectra"), "--seed", "{seed}", "--threads", "1",
                         "--out", "{dir}/ensemble.csv", "--psd-out", "{dir}/psd.csv"),
                        gate="ensemble", config="spectra", trajectories=10_000, threads=1),
            ),
        ),
        Workload(
            name="validate",
            why="validation path that never touches the ensemble: quantum oracle, RK4 step "
                "loop, time-ordered propagator and CSV output",
            configs={
                "oracle": dict(STATE, g_override=0.04, p=0.5, phi=0.0, T=40.0, dt=0.02, n_fock=80),
                "simulate": dict(STATE, T=50.0, dt=1e-3),
            },
            warmup={"oracle": {"T": 4.0}, "simulate": {"T": 2.0}},
            commands=(
                Command("table1", ("table1", "--out", "{dir}/table1.csv")),
                Command("verify-oracle",
                        ("verify", "oracle", *_cfg("oracle"), "--format", "json",
                         "--out", "{dir}/oracle.json"),
                        gate="oracle"),
                Command("verify-bch",
                        ("verify", "bch", "--seed", "{seed}", "--format", "json",
                         "--out", "{dir}/bch.json"),
                        gate="bch"),
                Command("verify-influence",
                        ("verify", "influence", "--seed", "{seed}", "--format", "json",
                         "--out", "{dir}/influence.json"),
                        gate="influence"),
                Command("simulate-rk4",
                        ("simulate", *_cfg("simulate"), "--seed", "{seed}", "--solver", "rk4",
                         "--out", "{dir}/sim_rk4.csv"),
                        trajectories=1),
                Command("simulate",
                        ("simulate", *_cfg("simulate"), "--seed", "{seed}",
                         "--out", "{dir}/sim_cf.csv"),
                        gate="simulate", trajectories=1),
            ),
        ),
    )
}


def cli_seed(seed: int) -> int:
    """Map the benchmark seed onto the non-negative seeds the CLI accepts."""
    return seed % 2**32


def argv(cmd: Command, directory: str, seed: int) -> list[str]:
    return [a.format(dir=directory, seed=cli_seed(seed)) for a in cmd.argv]


def write_configs(workload: Workload, directory: str, seed: int, warm: bool = False) -> list[str]:
    """Write the workload's config files into `directory`; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for stem in workload.configs:
        values = workload.config_values(stem, cli_seed(seed), warm)
        path = os.path.join(directory, stem + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        paths.append(path)
    return paths
