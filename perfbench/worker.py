"""One benchmark process: set up a workload, then run it in a closed loop.

`run.py` starts this file as a subprocess. It prints `ready` once imports
and the config, model, device and data are loaded (the end of set-up), and,
unless `--setup-only` is given, runs the workload's verb one call at a time
until `--seconds` are used, checking each call's outputs. The last line of
its output is a JSON record for `run.py`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from qfairdeploy.cli import main as cli_main  # noqa: E402
from qfairdeploy.partition import partition  # noqa: E402
from qfairdeploy.pipeline import (  # noqa: E402
    load_config, load_data, load_device_ref, load_model, run_experiment, synthesize,
)
from tracer import Tracer, layer_metrics  # noqa: E402

TOY4 = ROOT / "configs" / "toy4.config"
SWEEP_SCHEMES = "quest,random,rl1,rl2,rl3,rl4,rl5"
SCAN_ROWS, SCAN_EPS, SCAN_DELTA = 2000, 0.3, 0.1
EVALUATE_OUTPUTS = ("reports.csv", "curves_*.csv")
SCAN_OUTPUTS = ("lipschitz.csv", "bias_pairs.csv")
COLD_CALLS = 3  # least calls, so seeds a cold run averages over; run.py's QUALITY_CALLS


class Workload:
    """Loads one workload's inputs and runs its verb against `out_dir`."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.out_dir = name, work / "out"
        self.overrides: dict[str, str] = {}
        if name == "toy4-fairness-scan":
            # the verb reads every key from a file, so the row count goes there
            self.config = work / "scan.config"
            self.config.write_text(TOY4.read_text() + f"\nmodel.params {ROOT / 'configs' / 'toy4_params.txt'}"
                                   f"\ndata.synthetic.rows {SCAN_ROWS}\n")
        else:
            self.config = TOY4
            if name == "toy4-sweep":
                self.overrides["schemes"] = SWEEP_SCHEMES
        self.load(seed)

    def load(self, seed: int) -> None:
        """Load the config, model, device and data for one config seed."""
        self.seed = seed
        self.cfg = load_config(self.config, {**self.overrides, "seed": str(seed)})
        if Path(self.cfg.output_dir).resolve() != self.out_dir.resolve():
            raise RuntimeError(f"output dir {self.cfg.output_dir} is not the benchmark's {self.out_dir}")
        self.model = load_model(self.cfg)
        self.device = load_device_ref(self.cfg.device_ref)
        self.data = load_data(self.cfg)

    def build_cache(self) -> float:
        """Synthesize the candidate cache the sweep reuses; returns seconds."""
        started = time.perf_counter()
        synthesize(self.cfg, self.model)
        return time.perf_counter() - started

    def prepare(self) -> None:
        """Empty the output directory; the sweep keeps its synthesis cache."""
        if self.name != "toy4-sweep":
            shutil.rmtree(self.out_dir, ignore_errors=True)
            return
        for p in self.out_dir.glob("*"):
            if p.name != "cache":
                shutil.rmtree(p) if p.is_dir() else p.unlink()

    def call(self) -> None:
        if self.name != "toy4-fairness-scan":
            run_experiment(self.cfg)
            return
        argv = ["fairness-scan", str(self.config), "--seed", str(self.seed), "--split", "train",
                "--eps", str(SCAN_EPS), "--delta", str(SCAN_DELTA)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"fairness-scan exited {code}")

    def check(self) -> dict:
        """Output checks (a)-(c) or (e); returns problems, quality and digests."""
        if self.name == "toy4-fairness-scan":
            problems, k_hat = checks.check_scan(
                self.out_dir, self.data.features, self.data.split("train"), SCAN_EPS, SCAN_DELTA)
            return {"problems": problems, "k_hat": k_hat, "quality": 1.0 / k_hat,
                    "digests": checks.output_digests(self.out_dir, SCAN_OUTPUTS)}
        parts = partition(self.model.circuit, self.cfg.s_blk)
        problems = checks.check_candidates(self.out_dir / "cache", parts, self.cfg.eps_syn)
        report_problems, rows = checks.check_reports(self.out_dir)
        quest = next(r for r in rows if r["scheme"] == "quest")
        rl = [r for r in rows if r["scheme"].startswith("rl")]
        gains = []
        for r in rl:
            alpha, beta = checks.WEIGHTS[r["scheme"]]
            gains.append(r["reward"] / (alpha * quest["fairness"] + beta * quest["accuracy"]))
        return {"problems": problems + report_problems,
                "rl_reward": statistics.fmean(r["reward"] for r in rl),
                "quality": statistics.fmean(gains),
                "digests": checks.output_digests(self.out_dir, EVALUATE_OUTPUTS)}


def call_seed(workload: str, seed: int, call: int, trace: bool) -> int:
    """Config seed of a call. Each cold call pays for the whole pipeline
    anyway, so its calls walk through seeds derived from `seed` and the
    median averages seed-to-seed variation. The sweep reuses one seed's cache,
    and the scan's cost does not depend on the seed, so they repeat `seed`.
    A traced run gives each seed one untraced and one traced call."""
    j = call // 2 if trace else call
    if workload != "toy4-cold" or j == 0:
        return seed
    return int(hashlib.sha256(f"{seed}/{j}".encode()).hexdigest()[:7], 16)


def run_loop(wl: Workload, base_seed: int, seconds: float, trace: bool,
             tracer: Tracer | None) -> list[dict]:
    """Closed loop, one call at a time, until `seconds` are used. A traced
    run alternates untraced and traced calls so both walls come from one
    process; an untraced cold run makes at least COLD_CALLS calls."""
    iterations: list[dict] = []
    min_calls = 2 if trace else COLD_CALLS if wl.name == "toy4-cold" else 1
    started = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        seed = call_seed(wl.name, base_seed, len(iterations), trace)
        rec: dict = {"traced": traced, "seed": seed}
        try:
            if seed != wl.seed:
                wl.load(seed)
            wl.prepare()
            t0 = time.perf_counter()
            if traced:
                tracer.begin()
                tracer.active = True
                tracer.span("workload", wl.call)
            else:
                wl.call()
            rec["wall"] = time.perf_counter() - t0
            # peak so far; run.py reports it after the first call, so the
            # figure does not depend on how many calls fit in the run
            rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if traced:
                tracer.active = False
                rec["layers"] = layer_metrics(tracer.spans)
                rec["spans"] = len(tracer.spans)
            rec.update(wl.check())
        except Exception:
            traceback.print_exc()
            rec["problems"] = [traceback.format_exc(limit=1).strip().splitlines()[-1]]
        finally:
            if tracer:
                tracer.active = False
        iterations.append(rec)
        walls = [it["wall"] for it in iterations if "wall" in it]
        if len(iterations) >= min_calls and (
                time.perf_counter() - started + (statistics.median(walls) if walls else 0) > seconds):
            return iterations


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = Workload(args.workload, args.seed, args.work)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    record: dict = {"cache_s": wl.build_cache() if args.workload == "toy4-sweep" else 0.0}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        record["leftover"] = tracer.leftover_references()
    record["iterations"] = run_loop(wl, args.seed, args.seconds, bool(args.trace), tracer)
    if tracer:
        spans_path = args.work.parent / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
