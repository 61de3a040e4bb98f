"""Deployment benchmark for qfairdeploy: one command, two gated workloads
and one more for profiling by hand.

    python3 perfbench/run.py --workload toy4-cold --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload runs in a fresh worker process (perfbench/worker.py) that
calls the package's public entry points one call at a time: a closed loop
with one client, no extra threads and one BLAS thread. Outputs go to
.perfbench/ in the checkout, never to the config's own output_dir. `--seed`
reaches the program only as the config `seed` override. With `--trace 0` the
last line holds the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a separate traced run. See perfbench/README.md for what
each workload exercises and what is left out.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy4-cold", "toy4-fairness-scan")   # the ones BENCHMARK.json gates
UNGATED = ("toy4-sweep",)  # for profiling by hand; see README.md for why it is not gated
SETUP_SAMPLES = 7          # worker start-ups per run; setup_s is their median
BLAS_THREADS = 1
QUALITY_CALLS = 3          # worker.COLD_CALLS: quality comes from calls every run makes
RUN_DEADLINE_S = 170.0     # a run must finish well inside the 180 s limit
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "quality": "1"}
REQUIRED = ("src/qfairdeploy/pipeline.py", "configs/toy4.config", "configs/toy4_params.txt")


def _worker_env() -> dict[str, str]:
    # The matrices are at most 256 x 256; on 2 CPUs a second BLAS thread made
    # a sweep call slower (21.6 s against 17.3 s) and burned more CPU.
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS), PYTHONDONTWRITEBYTECODE="1")
    return env


def _start_worker(args, work: Path, env, deadline: float, setup_only: bool):
    """Start a worker; return (seconds until it reported ready, the process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        _stop(proc, deadline)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return ready, proc


def _stop(proc, deadline: float) -> str:
    """Collect the rest of a worker's output, killing it past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or ""


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
    }


def run_workload(args) -> tuple[dict, dict]:
    """Run one workload; returns the printed result and a full record."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = _worker_env()
    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env["QFAIRDEPLOY_OUTPUT_DIR"] = str(work / "out")
    load_start = os.getloadavg()
    proc = None
    try:
        setups = []
        for i in range(SETUP_SAMPLES):
            ready, proc = _start_worker(args, work, env, deadline, setup_only=i < SETUP_SAMPLES - 1)
            setups.append(ready)
            out = _stop(proc, deadline)
        if proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exited {proc.returncode}")
        rec = json.loads(out.strip().splitlines()[-1])
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    iters = rec["iterations"]
    # (d): calls of one invocation with the same config seed must write
    # byte-identical outputs
    first: dict[int, dict] = {}
    for it in iters:
        if "digests" in it and first.setdefault(it["seed"], it["digests"]) != it["digests"]:
            it["problems"].append(f"outputs differ from the first call at seed {it['seed']}")
    if rec.get("leftover"):
        for it in iters:
            it["problems"].append("tracer missed: " + ", ".join(rec["leftover"]))
    failed = sum(1 for it in iters if it["problems"])
    ok = [it for it in iters if not it["problems"]]
    untraced = [it["wall"] for it in ok if not it["traced"]]
    traced = [it for it in ok if it["traced"]]

    if args.trace:
        if not traced or not untraced:
            raise RuntimeError("traced run produced no clean traced and untraced call")
        metrics = {k: statistics.median(it["layers"][k] for it in traced) for k in traced[0]["layers"]}
        traced_wall = statistics.median(it["wall"] for it in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
        metrics["trace.spans"] = statistics.median(it["spans"] for it in traced)
        units = {k: _layer_unit(k) for k in metrics}
    else:
        if not untraced:
            raise RuntimeError("no call finished with correct outputs")
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setups) + rec["cache_s"],
            "peak_rss_mb": next(it["peak_rss_mb"] for it in iters if "peak_rss_mb" in it),
            "quality": statistics.median(it["quality"] for it in ok[:QUALITY_CALLS]),
        }
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": _machine(), "load_avg_start": load_start, "load_avg_end": os.getloadavg(),
        "setup_samples_s": setups, "cache_build_s": rec["cache_s"],
        "call_seeds": [it["seed"] for it in iters], "walls_s": [it.get("wall") for it in iters],
        "rl_reward": next((it["rl_reward"] for it in ok if it["seed"] == args.seed and "rl_reward" in it), None),
        "k_hat": next((it["k_hat"] for it in ok if it["seed"] == args.seed and "k_hat" in it), None),
        "sha256": first.get(args.seed), "problems": [p for it in iters for p in it["problems"]],
        "spans_file": rec.get("spans_file"),
    }
    result = {
        "correct": failed == 0, "attempted": len(iters), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "1"
    return "count"


def _print_summary(result: dict, record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"  machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, blas {m['blas']} ({m['blas_threads']} threads)")
    print(f"  load average: start {record['load_avg_start'][0]:.2f}, end {record['load_avg_end'][0]:.2f}")
    print(f"  calls: {result['attempted']} attempted, {result['failed']} failed; "
          f"walls {[round(w, 3) for w in record['walls_s'] if w is not None]}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    rl_reward = "n/a (no RL scheme)" if record["rl_reward"] is None else f"{record['rl_reward']:.6f}"
    print(f"  rl_reward = {rl_reward} 1")
    if record["k_hat"] is not None:
        print(f"  k_hat = {record['k_hat']:.12g} 1")
    for name, h in (record["sha256"] or {}).items():
        print(f"  sha256 {name} {h}")
    for p in record["problems"]:
        print(f"  FAILED CHECK: {p}")
    print("record " + json.dumps(record))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + UNGATED + ("all",))
    ap.add_argument("--seed", type=int, default=7, help="config seed override (toy4 ships 7)")
    ap.add_argument("--seconds", type=float, default=50.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a qfairdeploy checkout, missing {missing}", file=sys.stderr)
        return 2
    names = WORKLOADS + UNGATED if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            result, record = run_workload(one)
        except (RuntimeError, KeyError, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        _print_summary(result, record)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
