"""qubitkick benchmark: drives the real CLI on one named workload.

    python3 bench/run.py --workload reconstruct-1e5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  Each run starts fresh
interpreters: a few set-up probes, then one worker process that warms up,
repeats the workload's CLI command sequence for `--seconds` and checks every
output against its correctness gate.  BLAS is capped at one thread, so the
load is at most the `--threads` value of the busiest command (2).

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a traced pass interleaved with untraced passes.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object `{"correct", "attempted", "failed", "metrics"}`.  The full record,
with the run environment, goes to `bench/.out/`; a traced run also writes
its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, ".out")
sys.path.insert(0, BENCH)

from tracing import COMPUTED, EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, cli_seed, write_configs  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "traj_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TIME_LIMIT_S = 170.0   # the whole run, probes included
SETUP_PROBES = {0: 5, 1: 3}
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def source_digest() -> str:
    """Hash of the program and benchmark sources, standing in for a commit id."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "qubitkick"), BENCH):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def importtime_s(stderr: str, module: str) -> float | None:
    """Cumulative import time of `module` from `python -X importtime` output."""
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e6
    return None


def setup_probe(workload: str, work: str, importtime: bool, timeout: float):
    """Set-up time of a fresh interpreter, and its import time of qubitkick.dynamics."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           os.path.join(BENCH, "worker.py"), "--setup-only", "--workload", workload, "--dir", work]
    res = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                         timeout=timeout)
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-4000:])
        raise RuntimeError(f"set-up probe exited {res.returncode}")
    setup_s = json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]
    return setup_s, importtime_s(res.stderr, "qubitkick.dynamics") if importtime else None


def check_repeat(counts: dict, workload: str, seed: int) -> list[str]:
    """Compare exact counts with an earlier traced run of the same sources and seed."""
    path = os.path.join(OUT, "counts", f"{source_digest()}-{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        return [f"{k}: {before.get(k)} earlier, {v} now" for k, v in counts.items() if before.get(k) != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "qubitkick", "cli.py")):
        print(f"error: no qubitkick sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - started)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    result_path = os.path.join(work, "worker.json")
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.json")
    try:
        write_configs(WORKLOADS[args.workload], work, args.seed)
        probes = [setup_probe(args.workload, work, bool(args.trace), remaining())
                  for _ in range(SETUP_PROBES[args.trace])]
        worker = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--dir", work, "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--budget", str(remaining() - 5.0),
                  "--result", result_path] + (["--spans", spans_path] if args.trace else [])
        res = subprocess.run(worker, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                             timeout=remaining())
        if res.returncode != 0 or not os.path.exists(result_path):
            print(f"error: worker exited {res.returncode}", file=sys.stderr)
            return 2
        with open(result_path, encoding="utf-8") as fh:
            rec = json.load(fh)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(rec["metrics"])
    mismatches = []
    if args.trace:
        imports = [p[1] for p in probes if p[1] is not None]
        values["dynamics.import_s"] = statistics.median(imports) if imports else 0.0
        counts = {k: values[k] for k in EXACT_COUNTS}
        mismatches = rec["count_mismatches"] + check_repeat(counts, args.workload, args.seed)
        units = {k: LAYER_METRICS[k][0] for k in LAYER_METRICS}
    else:
        values["setup_s"] = statistics.median(p[0] for p in probes)
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    attempted, failed = rec["attempted"], rec["failed"]
    correct = failed == 0 and not mismatches

    env = dict(rec["env"], nproc=os.cpu_count(), cpu=cpu_model(), git_sha=git_sha(),
               source_digest=source_digest(), seed=args.seed, cli_seed=cli_seed(args.seed),
               threads={c.label: c.threads for c in WORKLOADS[args.workload].commands if c.threads},
               workload=args.workload, seconds=args.seconds, trace=args.trace)
    record = {"env": env, "correct": correct, "attempted": attempted, "failed": failed,
              "failures": rec["failures"], "count_mismatches": mismatches,
              "passes": rec["passes"], "pass_wall_s": rec["pass_wall_s"], "metrics": metrics}
    if args.trace:
        record.update({k: rec[k] for k in ("traced_pass_wall_s", "top_level_s", "untraced_wall_s")})
        record["computed_from_sizes"] = list(COMPUTED)
        record["spans"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for key in ("workload", "seed", "nproc", "cpu", "python", "numpy", "scipy", "blas",
                "blas_threads", "threads", "git_sha", "source_digest"):
        print(f"# {key}: {env[key]}")
    for message in rec["failures"] + mismatches:
        print(f"# FAIL {message}")
    if args.trace:
        print(f"# top-level spans {statistics.median(rec['top_level_s']):.4f} s per traced pass, "
              f"untraced wall {rec['untraced_wall_s']:.4f} s")
    print(f"{'fail_ratio':<46} {failed / attempted:<14.6g} ratio  ({failed}/{attempted})")
    for name, m in metrics.items():
        note = "  (computed from sizes)" if name in COMPUTED else ""
        print(f"{name:<46} {m['value']:<14.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
