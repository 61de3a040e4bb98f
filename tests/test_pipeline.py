import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qfairdeploy import pipeline
from qfairdeploy.agent import DeploymentEnv, RewardWeights, TrainConfig, compute_reward
from qfairdeploy.pipeline import (
    OUTPUT_DIR_ENV,
    SCHEME_WEIGHTS,
    ConfigError,
    DeploymentReport,
    baseline_min_cnot,
    baseline_random,
    emit_report,
    load_config,
    load_data,
    load_model,
    read_report_json,
    run_experiment,
)
from qfairdeploy.circuits import Circuit, cnot_count, depth, load_circuit
from qfairdeploy.cli import main as cli_main
from qfairdeploy.partition import partition
from qfairdeploy.seeding import spawn
from qfairdeploy.synthesis import (
    DEFAULT_MAX_CANDIDATES,
    Candidate,
    CandidateList,
    OptimizerConfig,
    load_candidate_lists,
    verify_candidate_lists,
)
from qfairdeploy.toys import two_partition_instance

from conftest import gate

REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy4.config"
GOLDEN_REPORTS = Path(__file__).resolve().parent / "golden" / "toy4_reports.csv"


def _candidate(cnots: int, distance: float) -> Candidate:
    gates = tuple(gate("cnot", 0, 1) for _ in range(cnots))
    return Candidate(Circuit(2, gates), distance)


class TestBaselines:
    def test_min_cnot_prefers_zero(self):
        lists = [CandidateList(0, (_candidate(0, 1e-3), _candidate(1, 1e-5)))]
        assert baseline_min_cnot(lists) == (0,)

    def test_min_cnot_priority_over_distance(self):
        lists = [CandidateList(0, (_candidate(1, 9e-3), _candidate(2, 1e-3)))]
        assert baseline_min_cnot(lists) == (0,)

    def test_tie_broken_by_distance(self):
        cands = (_candidate(1, 5e-3), _candidate(1, 8e-3))
        lists = [CandidateList(0, cands)]
        assert baseline_min_cnot(lists) == (0,)

    def test_random_single_candidate(self):
        lists = [CandidateList(0, (_candidate(0, 1e-3),))]
        assert baseline_random(lists, spawn(0, "r")) == (0,)

    def test_random_deterministic_per_seed(self):
        lists = [CandidateList(i, tuple(_candidate(k, 1e-3) for k in range(3))) for i in range(4)]
        a = baseline_random(lists, spawn(5, "r"))
        b = baseline_random(lists, spawn(5, "r"))
        assert a == b

    def test_random_uniform_frequencies(self):
        lists = [CandidateList(0, tuple(_candidate(k, 1e-3) for k in range(3)))]
        rng = spawn(11, "freq")
        counts = np.zeros(3)
        for _ in range(10_000):
            counts[baseline_random(lists, rng)[0]] += 1
        freqs = counts / 10_000
        assert all(0.31 <= f <= 0.36 for f in freqs)


class TestConfig:
    def test_loads_repo_toy(self):
        cfg = load_config(REPO_CONFIG)
        assert cfg.arch == "c14" and cfg.num_qubits == 4
        assert cfg.schemes == ("quest", "random", "rl3")
        assert len(cfg.config_hash) == 12

    def test_missing_key_is_config_error(self, tmp_path):
        p = tmp_path / "bad.config"
        p.write_text("model.arch c14\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_params_file_is_config_error(self, tmp_path):
        p = tmp_path / "bad.config"
        p.write_text("model.arch c14\nmodel.qubits 2\nmodel.params nope.txt\ndevice ring14\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unreadable_model_or_data_file_is_config_error(self, tmp_path):
        # a path that passed load_config but cannot be read when its stage loads it
        cfg = load_config(REPO_CONFIG)
        with pytest.raises(ConfigError, match="bad model"):
            load_model(replace(cfg, params_path=str(tmp_path)))
        with pytest.raises(ConfigError, match="bad data"):
            load_data(replace(cfg, data_csv=str(tmp_path), data_schema=str(tmp_path)))

    def test_synthesis_key_names_the_descent(self, monkeypatch):
        # a cache fitted by another descent passes re-verification, so only
        # the key keeps a warm run from reusing it
        cfg = load_config(REPO_CONFIG)
        model = load_model(cfg)
        key = pipeline._synthesis_key(cfg, model)
        monkeypatch.setattr(pipeline, "DESCENT", "first-order")
        assert pipeline._synthesis_key(cfg, model) != key

    def test_override_changes_hash(self):
        a = load_config(REPO_CONFIG)
        b = load_config(REPO_CONFIG, {"seed": "8"})
        assert a.config_hash != b.config_hash
        assert b.seed == 8

    def test_bad_s_blk(self, tmp_path):
        src = REPO_CONFIG.read_text().replace("s_blk 2", "s_blk 4")
        p = tmp_path / "c.config"
        p.write_text(src)
        shutil.copy(REPO_CONFIG.parent / "toy4_params.txt", tmp_path / "toy4_params.txt")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_absent_train_and_opt_keys_take_the_dataclass_defaults(self, tmp_path):
        shutil.copy(REPO_CONFIG.parent / "toy4_params.txt", tmp_path / "toy4_params.txt")
        p = tmp_path / "minimal.config"
        p.write_text("model.arch c14\nmodel.qubits 4\nmodel.params toy4_params.txt\ndevice ring14\n")
        cfg = load_config(p)
        assert cfg.train == TrainConfig(seed=0)
        assert cfg.opt == OptimizerConfig()
        assert repr(cfg.opt) == "OptimizerConfig(starts=8, iterations=500)"  # in the synthesis cache key
        toy = load_config(REPO_CONFIG)
        assert toy.train == TrainConfig(iterations=60, learning_rate=1e-2, epsilon_start=0.25,
                                        epsilon_final=0.05, hidden_sizes=(64, 32), seed=7)
        assert toy.opt == OptimizerConfig(starts=8, iterations=500)

    def test_absent_eval_keys_take_the_env_and_synthesis_defaults(self, tmp_path):
        shutil.copy(REPO_CONFIG.parent / "toy4_params.txt", tmp_path / "toy4_params.txt")
        p = tmp_path / "minimal.config"
        p.write_text("model.arch c14\nmodel.qubits 4\nmodel.params toy4_params.txt\ndevice ring14\n")
        cfg = load_config(p)
        env = DeploymentEnv([], [], None, None, None, RewardWeights(0.5, 0.5))
        assert (cfg.eval_split, cfg.r_twirls) == (env.split, env.r_twirls)
        assert cfg.max_candidates == DEFAULT_MAX_CANDIDATES

    def test_scheme_weights_shipped_verbatim(self):
        assert SCHEME_WEIGHTS["rl1"] == RewardWeights(0.1, 0.9)
        assert SCHEME_WEIGHTS["rl2"] == RewardWeights(0.4, 0.5)
        assert SCHEME_WEIGHTS["rl3"] == RewardWeights(0.5, 0.5)
        assert SCHEME_WEIGHTS["rl4"] == RewardWeights(0.6, 0.4)
        assert SCHEME_WEIGHTS["rl5"] == RewardWeights(0.9, 0.1)


class TestEmitReport:
    def _report(self, scheme="quest"):
        return DeploymentReport(scheme, 0.75, 0.21, 0.48, 8, 21, 144, 1.5, "abc123def456")

    def test_empty_is_header_only(self, tmp_path):
        emit_report([], "csv", tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scheme,accuracy,fairness,reward")

    def test_csv_row_count_and_format(self, tmp_path):
        emit_report([self._report("a"), self._report("b")], "csv", tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert "0.750000" in lines[1]

    def test_json_round_trip_exact(self, tmp_path):
        reports = [self._report()]
        emit_report(reports, "json", tmp_path / "r.json")
        assert read_report_json(tmp_path / "r.json") == reports

    def test_json_keeps_wall_time(self, tmp_path):
        emit_report([self._report()], "json", tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text())[0]["wall_time"] == 1.5

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", tmp_path / "r.xml")


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """One full experiment on the bundled toy, in an isolated output dir.

    The directory comes from the environment, not an override, so the config
    hash written into reports.csv is the shipped config's own."""
    out = tmp_path_factory.mktemp("toy4-run")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(OUTPUT_DIR_ENV, str(out))
        cfg = load_config(REPO_CONFIG)
        reports = run_experiment(cfg)
    return cfg, reports, out


class TestRunExperiment:
    def test_one_row_per_scheme_plus_artifacts(self, toy_run):
        cfg, reports, out = toy_run
        assert [r.scheme for r in reports] == ["quest", "random", "rl3"]
        assert (out / "curves_rl3.csv").exists()
        assert (out / "reports.csv").exists()
        assert (out / "reports.json").exists()
        for scheme in ("quest", "random", "rl3"):
            assert (out / f"selections_{scheme}.txt").exists()
            assert (out / f"deployed_{scheme}.qc").exists()

    def test_reward_recomputation_identity(self, toy_run):
        cfg, reports, _ = toy_run
        for r in reports:
            w = cfg.scheme_weights(r.scheme)
            assert r.reward == pytest.approx(compute_reward(r.fairness, r.accuracy, w), abs=1e-12)

    def test_space_size_consistent(self, toy_run):
        _, reports, _ = toy_run
        assert len({r.space_size for r in reports}) == 1
        assert reports[0].space_size > 1

    def test_metrics_in_range(self, toy_run):
        _, reports, _ = toy_run
        for r in reports:
            assert 0.0 <= r.accuracy <= 1.0
            assert 0.0 <= r.fairness <= 1.0
            assert r.cnot_count >= 0 and r.depth >= 0
            assert r.wall_time > 0.0

    def test_config_hash_embedded(self, toy_run):
        cfg, reports, out = toy_run
        assert all(r.config_hash == cfg.config_hash for r in reports)
        assert cfg.config_hash in (out / "reports.csv").read_text()

    def test_reports_match_golden_copy(self, toy_run):
        _, _, out = toy_run
        assert (out / "reports.csv").read_bytes() == GOLDEN_REPORTS.read_bytes()

    def test_warm_cache_rerun_changes_nothing(self, toy_run):
        cfg, _, out = toy_run
        first = (out / "reports.csv").read_bytes()
        run_experiment(cfg)  # cache is warm now
        assert (out / "reports.csv").read_bytes() == first


def test_sweep_evaluates_each_selection_once(toy_run, tmp_path, monkeypatch):
    # one env serves all seven schemes, re-weighted per scheme, so each
    # distinct selection gets one (accuracy, p); accuracy evolves the split
    # block by block (`measured_distribution`), never through qnn.accuracy's
    # gate-by-gate path; and on the warm cache each candidate's unitary is
    # built once, when the cache is re-verified, and the env reuses it
    import qfairdeploy.agent as agent
    import qfairdeploy.pipeline as pipeline
    import qfairdeploy.synthesis as synthesis
    _, _, out = toy_run
    shutil.copytree(out / "cache", tmp_path / "cache")
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    cfg = load_config(REPO_CONFIG, {"schemes": "quest,random,rl1,rl2,rl3,rl4,rl5",
                                    "train.iterations": "12"})
    calls = {"accuracy": 0, "measured_distribution": 0, "estimate_p": 0}
    selections, stepped, deployed, envs = set(), [], [], {}
    unitaries = {"agent": [], "synthesis": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def reward(self, sel, _orig=DeploymentEnv.reward):
        selections.add(sel)
        envs[id(self)] = self
        return _orig(self, sel)

    def step(self, state, action, _orig=DeploymentEnv.step):
        stepped.append((self, self.weights))  # holding each env keeps its id from being reused
        return _orig(self, state, action)

    def deployed_circuit(self, sel, _orig=DeploymentEnv.deployed_circuit):
        deployed.append(sel)
        return _orig(self, sel)

    def unitary_counter(key, fn):
        def circuit_unitary(circuit):
            unitaries[key].append(circuit)
            return fn(circuit)
        return circuit_unitary

    for name in calls:
        for module in (agent, pipeline):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for key, module in (("agent", agent), ("synthesis", synthesis)):
        monkeypatch.setattr(module, "circuit_unitary", unitary_counter(key, module.circuit_unitary))
    monkeypatch.setattr(DeploymentEnv, "reward", reward)
    monkeypatch.setattr(DeploymentEnv, "step", step)
    monkeypatch.setattr(DeploymentEnv, "deployed_circuit", deployed_circuit)

    run_experiment(cfg)
    assert calls == {"accuracy": 0, "measured_distribution": len(selections),
                     "estimate_p": len(selections)}
    assert len(deployed) == len(selections) + 7  # one per evaluation, then one per reported scheme
    (env,) = envs.values()
    assert {id(e) for e, _ in stepped} == {id(env)}  # the one env steps for every rl scheme
    assert {w for _, w in stepped} == {SCHEME_WEIGHTS[f"rl{i}"] for i in range(1, 6)}
    assert unitaries["agent"] == []
    built = sorted(id(circuit) for circuit in unitaries["synthesis"])
    assert built == sorted(id(c.circuit) for cl in env.lists for c in cl.candidates)


def _swap_candidate(cache: Path) -> None:
    shutil.copyfile(cache / "p001_c00.qc", cache / "p000_c00.qc")


def _delete_candidate(cache: Path) -> None:
    (cache / "p000_c00.qc").unlink()


def _garbage_index(cache: Path) -> None:
    (cache / "index.csv").write_bytes(b"\x00not,a\ncandidate index\xff\n")


@pytest.mark.parametrize("corrupt", [_swap_candidate, _delete_candidate, _garbage_index])
def test_corrupt_cache_is_a_miss_and_rebuilt(corrupt, toy_run, tmp_path, monkeypatch):
    cfg, _, out = toy_run
    shutil.copytree(out / "cache", tmp_path / "cache")
    (cache,) = (tmp_path / "cache").glob("synth-*")
    corrupt(cache)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert cli_main(["evaluate", str(REPO_CONFIG)]) == 0
    assert (tmp_path / "reports.csv").read_bytes() == GOLDEN_REPORTS.read_bytes()
    assert list((tmp_path / "cache").iterdir()) == [cache]
    parts = partition(load_model(cfg).circuit, cfg.s_blk)
    verify_candidate_lists(load_candidate_lists(cache), parts, cfg.eps_syn)


def test_cache_with_stored_cnots_and_depth_is_reused(toy_run, tmp_path, monkeypatch):
    # an index in the older six-column form, which also stored each
    # candidate's CNOT count and depth, loads, verifies and is reused as is
    import qfairdeploy.synthesis as synthesis
    _, _, out = toy_run
    shutil.copytree(out / "cache", tmp_path / "cache")
    (cache,) = (tmp_path / "cache").glob("synth-*")
    with open(cache / "index.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(cache / "index.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["partition", "ordinal", "distance", "cnots", "depth", "file"])
        for row in rows:
            circuit = load_circuit(cache / row["file"])
            writer.writerow([row["partition"], row["ordinal"], row["distance"],
                             cnot_count(circuit), depth(circuit), row["file"]])
    old_index = (cache / "index.csv").read_bytes()

    def no_fit(*args, **kwargs):
        raise AssertionError("a valid cache was refitted")

    monkeypatch.setattr(synthesis, "fit_template", no_fit)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert cli_main(["evaluate", str(REPO_CONFIG)]) == 0
    assert (tmp_path / "reports.csv").read_bytes() == GOLDEN_REPORTS.read_bytes()
    assert (cache / "index.csv").read_bytes() == old_index


def test_rl_beats_random_mean_over_seeds():
    # dominance sanity: the searched deployment is at least as good as the
    # average random one on the toy instance
    from qfairdeploy.agent import run_search
    from qfairdeploy.toys import toy_train_config
    inst = two_partition_instance()
    rl = run_search(inst.env, toy_train_config(iterations=100, seed=0)).best_reward
    randoms = []
    for s in range(5):
        sel = baseline_random(inst.lists, spawn(s, "rand-baseline"))
        randoms.append(inst.env.reward(sel))
    assert rl >= np.mean(randoms) - 1e-12


def test_paper_shape_check_weighted_baseline():
    # the weighted sum of the published baseline metrics rounds to the
    # published overall score
    r = compute_reward(0.5101, 0.656, RewardWeights(0.5, 0.5))
    assert r == pytest.approx(0.58305, abs=1e-12)
    assert round(r, 3) == 0.583
