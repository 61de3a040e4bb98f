"""Command-line entry point.

Verbs share one experiment config file; --scheme/--device/--seed override its
keys. Exit codes: 0 success, 2 config error, 3 synthesis failure, 4
simulation/evaluation failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .device import UnroutedGateError
# estimate_lipschitz, find_bias_pairs: unused, but perfbench/tracer.py TRACED wraps them here (ROADMAP item 1)
from .fairness import (estimate_lipschitz, fairness_scan, find_bias_pairs, write_bias_pairs_csv,
                       write_lipschitz_csv)
from .synthesis import SynthesisError
from .pipeline import (
    ConfigError,
    StageError,
    check_routable,
    emit_report,
    load_config,
    load_data,
    load_device_ref,
    load_model,
    read_report_json,
    run_experiment,
    synthesize,
)

EXIT_CONFIG = 2
EXIT_SYNTHESIS = 3
EXIT_SIMULATION = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="experiment config file")
    parser.add_argument("--scheme", help="override the schemes key (comma-separated)")
    parser.add_argument("--device", help="override the device key")
    parser.add_argument("--seed", help="override the master seed")


def _config(args: argparse.Namespace):
    overrides = {"schemes": args.scheme, "device": args.device, "seed": args.seed}
    return load_config(args.config, overrides)


def cmd_synthesize(args) -> int:
    cfg = _config(args)
    model = load_model(cfg)
    check_routable(model, load_device_ref(cfg.device_ref))
    parts, lists = synthesize(cfg, model)
    for cl in lists:
        sizes = [(c.cnots, round(c.distance, 9)) for c in cl.candidates]
        print(f"partition {cl.partition_index}: {len(cl)} candidates {sizes}")
    print(f"{len(parts)} partitions synthesized (config {cfg.config_hash})")
    return 0


def cmd_deploy(args) -> int:
    cfg = _config(args)
    schemes = [s for s in cfg.schemes if s.startswith("rl")]
    if not schemes:
        print("no RL schemes configured; nothing to deploy", file=sys.stderr)
        return EXIT_CONFIG
    cfg = replace(cfg, schemes=tuple(schemes))
    reports = run_experiment(cfg)
    for r in reports:
        print(f"{r.scheme}: reward {r.reward:.6f} "
              f"(accuracy {r.accuracy:.6f}, fairness {r.fairness:.6f})")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    reports = run_experiment(cfg)
    for r in reports:
        print(f"{r.scheme}: accuracy {r.accuracy:.6f} fairness {r.fairness:.6f} "
              f"reward {r.reward:.6f} cnots {r.cnot_count} depth {r.depth}")
    print(f"reports written under {cfg.output_dir}")
    return 0


def cmd_report(args) -> int:
    cfg = _config(args)
    src = Path(cfg.output_dir) / "reports.json"
    if not src.exists():
        print(f"no reports at {src}; run `evaluate` first", file=sys.stderr)
        return EXIT_CONFIG
    reports = read_report_json(src)
    out = Path(args.out) if args.out else Path(cfg.output_dir) / "reports.csv"
    emit_report(reports, args.format, out)
    print(f"wrote {out}")
    return 0


def cmd_fairness_scan(args) -> int:
    if not (0.0 < args.eps <= 1.0 and 0.0 < args.delta <= 1.0) or args.max_rows < 0:
        raise ConfigError("--eps and --delta must lie in (0, 1], and --max-rows must not be negative")
    cfg = _config(args)
    model = load_model(cfg)
    device = load_device_ref(cfg.device_ref)
    check_routable(model, device)
    data = load_data(cfg)
    rows = data.split(args.split)[: args.max_rows or None]
    if len(rows) < 2:
        raise ConfigError(f"fairness-scan needs at least 2 rows; {len(rows)} of the {args.split} split left")
    pairs, est = fairness_scan(model, device, data, args.eps, args.delta, rows=rows)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bias_pairs_csv(pairs, out_dir / "bias_pairs.csv")
    write_lipschitz_csv(est, out_dir / "lipschitz.csv")
    print(f"{len(pairs)} bias pairs at eps={args.eps}, delta={args.delta}; "
          f"k_hat={est.k_hat:.6f} over {est.pairs_examined} pairs "
          f"({est.degenerate_pairs} degenerate)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfairdeploy",
        description="Deploy a trained quantum classifier onto a simulated noisy "
                    "device, trading off accuracy against the noise-derived "
                    "fairness score.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synthesize", help="build or refresh the candidate cache")
    _add_common(p)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("deploy", help="run the RL schemes and save their deployments")
    _add_common(p)
    p.set_defaults(fn=cmd_deploy)

    p = sub.add_parser("evaluate", help="run every configured scheme and write reports")
    _add_common(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="re-emit reports from a previous evaluate run")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: <output_dir>/reports.csv)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("fairness-scan", help="bias-pair and Lipschitz analysis")
    _add_common(p)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--max-rows", type=int, default=0)
    p.set_defaults(fn=cmd_fairness_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.stage == "synthesize" or isinstance(exc.cause, SynthesisError):
            return EXIT_SYNTHESIS
        return EXIT_SIMULATION
    except SynthesisError as exc:
        print(f"synthesis error: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS
    except UnroutedGateError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
