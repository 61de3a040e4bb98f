"""End-to-end orchestration: experiment configuration, the synthesis cache,
baseline and RL deployment schemes, evaluation, and report emission."""
from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .agent import (
    DeploymentEnv,
    RewardWeights,
    SearchResult,
    TrainConfig,
    run_search,
    save_curves,
    save_selections,
)
from .circuits import Circuit, circuit_to_text, cnot_count, depth, save_circuit
# estimate_p: unused, but perfbench/tracer.py TRACED wraps it here (ROADMAP item 1)
from .device import (
    BUNDLED_DEVICES,
    DeviceModel,
    UnroutedGateError,
    accumulate_p,
    bundled_device,
    estimate_p,
    load_device,
)
from .partition import Partition, partition, space_size
from .quantum import STATEVECTOR_QUBIT_CAP
# accuracy: unused, but perfbench/tracer.py TRACED wraps it here (ROADMAP item 1)
from .qnn import (
    Dataset,
    QnnModel,
    accuracy,
    build_qnn,
    load_dataset,
    load_params,
    load_schema,
    synthetic_dataset,
)
from .seeding import spawn
# generate_candidates: unused, but perfbench/tracer.py TRACED wraps it here (ROADMAP item 1)
from .synthesis import (
    CacheError,
    DEFAULT_MAX_CANDIDATES,
    DESCENT,
    CandidateList,
    OptimizerConfig,
    generate_candidate_lists,
    generate_candidates,
    load_candidate_lists,
    save_candidate_lists,
    verify_candidate_lists,
)

OUTPUT_DIR_ENV = "QFAIRDEPLOY_OUTPUT_DIR"

SCHEME_WEIGHTS = {
    "quest": RewardWeights(0.5, 0.5),
    "random": RewardWeights(0.5, 0.5),
    "rl1": RewardWeights(0.1, 0.9),
    "rl2": RewardWeights(0.4, 0.5),  # shipped verbatim; sums to 0.9 unlike the rest
    "rl3": RewardWeights(0.5, 0.5),
    "rl4": RewardWeights(0.6, 0.4),
    "rl5": RewardWeights(0.9, 0.1),
}


class ConfigError(ValueError):
    pass


# config key -> (field, parser) of TrainConfig and OptimizerConfig; a key
# left out of the file keeps the dataclass default
_TRAIN_KEYS = {
    "train.iterations": ("iterations", int),
    "train.learning_rate": ("learning_rate", float),
    "train.gamma": ("gamma", float),
    "train.epsilon_start": ("epsilon_start", float),
    "train.epsilon_final": ("epsilon_final", float),
    "train.target_sync_period": ("target_sync_period", int),
    "train.replay_capacity": ("replay_capacity", int),
    "train.batch_size": ("batch_size", int),
    "train.hidden": ("hidden_sizes", lambda v: tuple(int(x) for x in v.split(","))),
}
_OPT_KEYS = {
    "opt.starts": ("starts", int),
    "opt.iterations": ("iterations", int),
}

# every key load_config reads; `weights.<scheme>` keys come on top
CONFIG_KEYS = frozenset({
    "model.arch", "model.qubits", "model.layers", "model.params", "model.measure_qubit",
    "device", "data.csv", "data.schema", "data.synthetic.rows", "data.synthetic.flip",
    "s_blk", "eps_syn", "k_max", "max_candidates", "schemes",
    "eval.split", "seed", "output_dir",
    *_TRAIN_KEYS, *_OPT_KEYS,
})


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and config hash."""

    def __init__(self, stage: str, config_hash: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed (config {config_hash}): {cause}")
        self.stage = stage
        self.config_hash = config_hash
        self.cause = cause


@dataclass(frozen=True)
class ExperimentConfig:
    arch: str
    num_qubits: int
    layers: int
    params_path: str
    measure_qubit: int
    device_ref: str                  # bundled name or a file path (resolved; see load_config)
    data_csv: str | None
    data_schema: str | None
    synthetic_rows: int
    synthetic_flip: float
    s_blk: int
    eps_syn: float
    k_max: int
    max_candidates: int
    opt: OptimizerConfig
    schemes: tuple[str, ...]
    weights: dict[str, RewardWeights]
    train: TrainConfig
    eval_split: str
    seed: int
    output_dir: str
    config_hash: str

    def scheme_weights(self, scheme: str) -> RewardWeights:
        if scheme in self.weights:
            return self.weights[scheme]
        if scheme in SCHEME_WEIGHTS:
            return SCHEME_WEIGHTS[scheme]
        raise ConfigError(f"no weights for scheme {scheme!r}")


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if not value.strip():
            raise ConfigError(f"config line {line!r} has no value")
        out[key] = value.strip()
    return out


def _present_fields(kv: dict[str, str], keys: dict) -> dict:
    return {name: parse(kv[key]) for key, (name, parse) in keys.items() if key in kv}


def _hash_config(kv: dict[str, str]) -> str:
    canon = "\n".join(f"{k} {v}" for k, v in sorted(kv.items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse the flat key-value experiment file; overrides replace keys before
    hashing so a changed run is a different config. Unknown keys, values that
    do not parse, bad synthesis, optimizer, training, weight, evaluation
    and scheme settings, and a data schema that does not load raise
    ConfigError here, before any stage runs.

    Relative paths the file names (model.params, data.*, a device that is
    not bundled) resolve against the file's directory; a device path given
    as an override stays as given, relative to the working directory."""
    path = Path(path)
    try:
        kv = _parse_kv(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if overrides:
        kv.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(k for k in kv if k not in CONFIG_KEYS and not k.startswith("weights."))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")

    def get(key: str, default=None) -> str:
        if key in kv:
            return kv[key]
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return str(default)

    base = path.parent

    def resolve(p: str) -> str:
        q = Path(p)
        return str(q if q.is_absolute() else base / q)

    try:
        weights = {}
        for key, value in kv.items():
            if key.startswith("weights."):
                try:
                    a, b = (float(v) for v in value.split(","))
                except ValueError:
                    raise ConfigError(f"bad weights {value!r} for {key}")
                weights[key.removeprefix("weights.")] = RewardWeights(a, b)

        train = TrainConfig(**_present_fields(kv, _TRAIN_KEYS), seed=int(get("seed", "0")))
        opt = OptimizerConfig(**_present_fields(kv, _OPT_KEYS))
        s_blk = int(get("s_blk", "2"))
        if s_blk not in (2, 3):
            raise ConfigError(f"s_blk must be 2 or 3, got {s_blk}")

        output_dir = os.environ.get(OUTPUT_DIR_ENV) or resolve(get("output_dir", "out"))
        device, device_override = get("device"), (overrides or {}).get("device") is not None
        data_csv = kv.get("data.csv")
        cfg = ExperimentConfig(
            arch=get("model.arch"),
            num_qubits=int(get("model.qubits")),
            layers=int(get("model.layers", "1")),
            params_path=resolve(get("model.params")),
            measure_qubit=int(get("model.measure_qubit", "0")),
            device_ref=device if device in BUNDLED_DEVICES or device_override else resolve(device),
            data_csv=resolve(data_csv) if data_csv else None,
            data_schema=resolve(kv["data.schema"]) if "data.schema" in kv else None,
            synthetic_rows=int(get("data.synthetic.rows", "40")),
            synthetic_flip=float(get("data.synthetic.flip", "0")),
            s_blk=s_blk,
            eps_syn=float(get("eps_syn", "1e-2")),
            k_max=int(get("k_max", "4")),
            max_candidates=int(get("max_candidates", DEFAULT_MAX_CANDIDATES)),
            opt=opt,
            schemes=tuple(s.strip() for s in get("schemes", "quest,random,rl3").split(",")),
            weights=weights,
            train=train,
            eval_split=get("eval.split", DeploymentEnv.split),  # absent: the env's default
            seed=int(get("seed", "0")),
            output_dir=output_dir,
            config_hash=_hash_config(kv),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if cfg.eval_split not in ("train", "test"):
        raise ConfigError(f"eval.split must be train or test, got {cfg.eval_split!r}")
    if cfg.layers < 1:
        raise ConfigError(f"model.layers must be >= 1, got {cfg.layers}")
    if cfg.data_schema and not cfg.data_csv:  # else the synthetic set would run in its place
        raise ConfigError("data.schema is set but data.csv is not")
    if cfg.data_csv and not cfg.data_schema:
        raise ConfigError("data.csv is set but data.schema is not")
    if not 0.0 < cfg.eps_syn <= 1.0:  # a unitary distance is at most 1; NaN fails too
        raise ConfigError(f"eps_syn must lie in (0, 1], got {cfg.eps_syn}")
    if cfg.k_max < 0:
        raise ConfigError(f"k_max must be >= 0, got {cfg.k_max}")
    if cfg.s_blk == 3 and cfg.k_max >= 40:  # 3^k_max placement patterns overflow int64
        raise ConfigError(f"k_max must be below 40 with s_blk 3, got {cfg.k_max}")
    if cfg.max_candidates < 1:
        raise ConfigError(f"max_candidates must be >= 1, got {cfg.max_candidates}")
    if cfg.synthetic_rows < 1:
        raise ConfigError(f"data.synthetic.rows must be >= 1, got {cfg.synthetic_rows}")
    if not 0.0 <= cfg.synthetic_flip <= 1.0:  # NaN fails too
        raise ConfigError(f"data.synthetic.flip must lie in [0, 1], got {cfg.synthetic_flip}")
    if len(set(cfg.schemes)) != len(cfg.schemes):  # reports.csv needs one row per scheme
        raise ConfigError(f"schemes lists a scheme twice: {','.join(cfg.schemes)}")
    for scheme in cfg.schemes:
        if scheme not in ("quest", "random") and not scheme.startswith("rl"):
            raise ConfigError(f"unknown scheme {scheme!r}")
        cfg.scheme_weights(scheme)  # raises when an rl scheme has no weights
    missing = [p for p in (cfg.params_path, cfg.data_csv, cfg.data_schema) if p and not Path(p).is_file()]
    if missing:
        raise ConfigError(f"referenced files do not exist or are not files: {missing}")
    if cfg.device_ref not in BUNDLED_DEVICES and not Path(cfg.device_ref).is_file():
        raise ConfigError(f"bad device file {cfg.device_ref}: neither bundled nor a file")
    if cfg.data_schema:  # so that verbs which never load the data refuse a bad schema too
        try:
            load_schema(cfg.data_schema)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad data schema {cfg.data_schema}: {exc}") from exc
    out = Path(cfg.output_dir)
    # a file on the path would fail its mkdir only once the stages have run
    if not next(d for d in (out, *out.parents) if d.exists()).is_dir():
        raise ConfigError(f"output_dir {cfg.output_dir} is not a directory")
    return cfg


# --- stage loaders ------------------------------------------------------------


def load_model(cfg: ExperimentConfig) -> QnnModel:
    if cfg.num_qubits > STATEVECTOR_QUBIT_CAP:
        raise ConfigError(f"bad model: {cfg.num_qubits} qubits exceeds the simulator's "
                          f"{STATEVECTOR_QUBIT_CAP}-qubit cap")
    try:
        params = load_params(cfg.params_path)
        return build_qnn(cfg.arch, cfg.num_qubits, cfg.layers, params, cfg.measure_qubit)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad model: {exc}") from exc


def load_device_ref(ref: str) -> DeviceModel:
    if ref in BUNDLED_DEVICES:
        return bundled_device(ref)
    try:
        return load_device(ref)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad device file {ref}: {exc}") from exc


def check_routable(model: QnnModel, device: DeviceModel) -> None:
    """ConfigError unless every 2-qubit gate of the ansatz sits on a coupling
    edge of the device, so an unroutable pair stops a run before synthesis."""
    try:
        accumulate_p(model.circuit, device)
    except UnroutedGateError as exc:
        raise ConfigError(f"the model does not fit the device: {exc}") from exc


def load_data(cfg: ExperimentConfig) -> Dataset:
    try:
        if cfg.data_csv:
            data = load_dataset(cfg.data_csv, load_schema(cfg.data_schema), cfg.seed)
        else:
            data = synthetic_dataset(cfg.synthetic_rows, cfg.num_qubits, cfg.seed,
                                     cfg.synthetic_flip)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad data: {exc}") from exc
    if data.num_features != cfg.num_qubits:  # the encoder puts feature k on qubit k
        raise ConfigError(f"bad data: rows of {data.num_features} features do not fit "
                          f"{cfg.num_qubits} qubits")
    return data


# --- synthesis with an on-disk cache --------------------------------------------


def _synthesis_key(cfg: ExperimentConfig, model: QnnModel) -> str:
    payload = "\n".join([
        circuit_to_text(model.circuit),
        f"s_blk {cfg.s_blk}",
        f"eps_syn {'%.17g' % cfg.eps_syn}",
        f"k_max {cfg.k_max}",
        f"max_candidates {cfg.max_candidates}",
        f"opt {cfg.opt}",
        f"descent {DESCENT}",
        f"seed {cfg.seed}",
    ])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def synthesize(cfg: ExperimentConfig, model: QnnModel) -> tuple[list[Partition], list[CandidateList]]:
    """Partition the ansatz and produce candidate lists, cached on disk keyed
    by the synthesis-relevant part of the config. A cache that cannot be read
    or fails re-verification against the partitions counts as a miss and is
    replaced."""
    parts = partition(model.circuit, cfg.s_blk)
    cache_dir = Path(cfg.output_dir) / "cache" / f"synth-{_synthesis_key(cfg, model)}"
    if cache_dir.exists():
        try:
            lists = load_candidate_lists(cache_dir)
            verify_candidate_lists(lists, parts, cfg.eps_syn)
            return parts, lists
        except CacheError:
            shutil.rmtree(cache_dir, ignore_errors=True)
    lists = generate_candidate_lists(parts, cfg.eps_syn, cfg.k_max, cfg.opt,
                                     seed=cfg.seed, max_candidates=cfg.max_candidates)
    tmp = cache_dir.with_name(cache_dir.name + f".tmp-{os.getpid()}")
    save_candidate_lists(lists, tmp)
    if cache_dir.exists():
        shutil.rmtree(tmp)
    else:
        os.replace(tmp, cache_dir)
    return parts, lists


# --- baselines --------------------------------------------------------------------


def baseline_min_cnot(lists: list[CandidateList]) -> tuple[int, ...]:
    """Per partition the fewest-CNOT candidate, ties by distance then ordinal:
    ordinal 0, since a CandidateList is sorted by (cnots, distance)."""
    return (0,) * len(lists)


def baseline_random(lists: list[CandidateList], rng: np.random.Generator) -> tuple[int, ...]:
    return tuple(int(rng.integers(0, len(cl))) for cl in lists)


# --- reports ------------------------------------------------------------------------


@dataclass(frozen=True)
class DeploymentReport:
    scheme: str
    accuracy: float
    fairness: float
    reward: float
    cnot_count: int
    depth: int
    space_size: int
    wall_time: float
    config_hash: str


# wall_time is deliberately absent: reports must be byte-identical across
# reruns of the same config, and it lives in the JSON emission instead
CSV_COLUMNS = ("scheme", "accuracy", "fairness", "reward",
               "cnot_count", "depth", "space_size", "config_hash")


def emit_report(reports: list[DeploymentReport], fmt: str, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in reports:
                writer.writerow([
                    r.scheme, "%.6f" % r.accuracy, "%.6f" % r.fairness, "%.6f" % r.reward,
                    r.cnot_count, r.depth, r.space_size, r.config_hash,
                ])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump([asdict(r) for r in reports], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def read_report_json(path: str | Path) -> list[DeploymentReport]:
    with open(path) as fh:
        return [DeploymentReport(**rec) for rec in json.load(fh)]


# --- the experiment driver ------------------------------------------------------------


def _evaluate_selections(
    env: DeploymentEnv, selections: tuple[int, ...], deployed: Circuit, cfg: ExperimentConfig, scheme: str,
) -> DeploymentReport:
    reward = env.reward(selections)
    acc, p_hat = env.evaluate(selections)
    return DeploymentReport(
        scheme=scheme,
        accuracy=acc,
        fairness=p_hat,
        reward=reward,
        cnot_count=cnot_count(deployed),
        depth=depth(deployed),
        space_size=space_size(env.lists),
        wall_time=0.0,
        config_hash=cfg.config_hash,
    )


def run_experiment(cfg: ExperimentConfig) -> list[DeploymentReport]:
    """Load everything, synthesize (cached), run each configured scheme, and
    write reports, curves, and winning circuits under the output directory."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def stage(name: str, fn):
        try:
            return fn()
        except (ConfigError, StageError):
            raise
        except Exception as exc:
            raise StageError(name, cfg.config_hash, exc)

    model = stage("load-model", lambda: load_model(cfg))
    device = stage("load-device", lambda: load_device_ref(cfg.device_ref))
    check_routable(model, device)
    data = stage("load-data", lambda: load_data(cfg))
    if not data.split(cfg.eval_split):
        raise ConfigError(f"eval.split {cfg.eval_split!r} has no rows")
    parts, lists = stage("synthesize", lambda: synthesize(cfg, model))

    reports = []
    # one env for every scheme: each re-weights it and reuses its evaluations
    env = DeploymentEnv(parts, lists, model, device, data, cfg.scheme_weights(cfg.schemes[0]),
                        split=cfg.eval_split)
    for scheme in cfg.schemes:
        started = time.perf_counter()
        env.weights = cfg.scheme_weights(scheme)
        if scheme == "quest":
            selections = baseline_min_cnot(lists)
        elif scheme == "random":
            selections = stage(scheme, lambda: baseline_random(lists, spawn(cfg.seed, "random-baseline")))
        elif scheme.startswith("rl"):
            train = replace(cfg.train, seed=int(spawn(cfg.seed, "scheme", scheme).integers(0, 2**31)))
            result: SearchResult = stage(scheme, lambda: run_search(env, train))
            selections = result.best_selections
            save_curves(result, out_dir / f"curves_{scheme}.csv")
        else:
            raise ConfigError(f"unknown scheme {scheme!r}")
        deployed = stage(f"evaluate-{scheme}", lambda: env.deployed_circuit(selections))
        report = stage(f"evaluate-{scheme}",
                       lambda: _evaluate_selections(env, selections, deployed, cfg, scheme))
        report = replace(report, wall_time=time.perf_counter() - started)
        reports.append(report)
        save_selections(selections, out_dir / f"selections_{scheme}.txt")
        save_circuit(deployed, out_dir / f"deployed_{scheme}.qc")

    emit_report(reports, "csv", out_dir / "reports.csv")
    emit_report(reports, "json", out_dir / "reports.json")
    return reports
