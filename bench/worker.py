"""Run one workload in a fresh interpreter and write its measurements as JSON.

Started by `run.py`, one process per workload:

    python3 bench/worker.py --workload NAME --seed N --dir WORK --seconds S --trace 0|1 \
        --budget B --result RESULT.json
    python3 bench/worker.py --setup-only --workload NAME --dir WORK

The CLI runs in-process through `qubitkick.cli.main(argv)`.  Only the
standard library is imported before set-up is timed, so `setup_s` covers
importing `qubitkick.cli`, building its parser and loading the workload's
config files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict

from workloads import WORKLOADS, argv, cli_seed, write_configs

MIN_ITERATIONS = 3      # timed passes per untraced run, however long a pass takes
MIN_TRACED_PAIRS = 2    # untraced + traced pass pairs per traced run


def setup(workload, directory: str):
    """Import the CLI, build its parser and load the configs; returns (seconds, cli module)."""
    t0 = time.perf_counter()
    from qubitkick import cli, core

    cli.build_parser()
    for stem in workload.configs:
        core.load_config(os.path.join(directory, stem + ".cfg"))
    return time.perf_counter() - t0, cli


def run_command(cli, cmd, directory: str, seed: int, configs: dict, gate: bool, tracer=None):
    """One CLI call; returns (wall seconds, cpu seconds, failure messages)."""
    import gates

    sink = io.StringIO()  # table1 prints its table; stdout stays free for results
    span = tracer.span("cli.main/" + cmd.label) if tracer else contextlib.nullcontext()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), span:
            rc = cli.main(argv(cmd, directory, seed))
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        rc = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    fails = gates.check_exit(cmd.label, rc)
    if not fails and gate and cmd.gate:
        try:
            fails = gates.GATES[cmd.gate](directory, configs.get(cmd.config))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            fails = [f"{cmd.label}: unreadable output ({type(exc).__name__}: {exc})"]
    return wall, cpu, fails


def run_pass(cli, workload, directory: str, seed: int, configs: dict, gate: bool = True, tracer=None) -> dict:
    """The workload's command sequence once; times cover the CLI calls only."""
    rec = {"wall_s": 0.0, "cpu_s": 0.0, "traj": 0, "traj_wall_s": 0.0, "commands": 0, "failed": 0,
           "failures": []}
    for cmd in workload.commands:
        wall, cpu, fails = run_command(cli, cmd, directory, seed, configs, gate, tracer)
        rec["wall_s"] += wall
        rec["cpu_s"] += cpu
        rec["commands"] += 1
        rec["failed"] += bool(fails)
        rec["failures"] += fails
        if cmd.trajectories:
            rec["traj"] += cmd.trajectories
            rec["traj_wall_s"] += wall
    return rec


def environment(cli) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "qubitkick": os.path.dirname(cli.__file__),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=150.0)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args()
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]

    setup_s, cli = setup(workload, args.dir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing

    configs = {stem: workload.config_values(stem, cli_seed(args.seed)) for stem in workload.configs}
    warm_dir = os.path.join(args.dir, "warmup")
    write_configs(workload, warm_dir, args.seed, warm=True)
    warm = run_pass(cli, workload, warm_dir, args.seed, configs, gate=False)

    def time_left(last_pass_s: float) -> bool:
        return time.perf_counter() - started + 1.5 * last_pass_s < args.budget

    plain, traced, layer_runs, tracers = [], [], [], []
    t_measure = time.perf_counter()
    while True:
        rec = run_pass(cli, workload, args.dir, args.seed, configs)
        plain.append(rec)
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                trec = run_pass(cli, workload, args.dir, args.seed, configs, tracer=tracer)
            trec["top_level_s"] = sum(s.duration for s in tracer.spans if s.parent is None)
            traced.append(trec)
            layer_runs.append(tracing.layer_metrics(tracer.spans))
            tracers.append(tracer)
        enough = len(plain) >= (MIN_TRACED_PAIRS if args.trace else MIN_ITERATIONS)
        last = rec["wall_s"] + (traced[-1]["wall_s"] if args.trace else 0.0)
        if (enough and time.perf_counter() - t_measure >= args.seconds) or not time_left(last):
            break

    passes = [warm, *plain, *traced]
    out = {
        "attempted": sum(r["commands"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "failures": [m for r in passes for m in r["failures"]][:20],
        "passes": len(plain),
        "pass_wall_s": [r["wall_s"] for r in plain],
        "env": environment(cli),
        "metrics": {},
    }
    if args.trace:
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers = {}
        mismatched = []
        for name in layer_runs[0]:
            values = [run[name] for run in layer_runs]
            if name in tracing.EXACT_COUNTS:
                layers[name] = values[0]
                if len(set(values)) > 1:
                    mismatched.append(f"{name}: {values}")
            else:
                layers[name] = statistics.median(values)
        layers["trace.overhead_s"] = traced_wall - plain_wall
        out["metrics"] = layers
        out["count_mismatches"] = mismatched
        out["traced_pass_wall_s"] = [r["wall_s"] for r in traced]
        out["top_level_s"] = [r["top_level_s"] for r in traced]
        out["untraced_wall_s"] = plain_wall
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"workload": workload.name, "seed": args.seed,
                           "passes": [[asdict(s) for s in t.spans] for t in tracers]}, fh)
    else:
        traj = [r["traj"] / r["traj_wall_s"] for r in plain if r["traj_wall_s"] > 0]
        out["metrics"] = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "traj_per_s": statistics.median(traj) if traj else 0.0,
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
