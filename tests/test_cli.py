import shutil
from importlib import resources
from pathlib import Path

import pytest

from qfairdeploy.cli import main

REPO_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def toy_config(tmp_path):
    """Copy of the bundled toy config pointing at an isolated output dir."""
    shutil.copy(REPO_DIR / "toy4_params.txt", tmp_path / "toy4_params.txt")
    text = (REPO_DIR / "toy4.config").read_text()
    text = text.replace("output_dir ../out/toy4", f"output_dir {tmp_path}/out")
    # a shorter RL run keeps the CLI tests quick
    text = text.replace("train.iterations 60", "train.iterations 12")
    cfg = tmp_path / "toy.config"
    cfg.write_text(text)
    return cfg


def test_synthesize_exit_zero(toy_config, capsys):
    assert main(["synthesize", str(toy_config)]) == 0
    out = capsys.readouterr().out
    assert "partitions synthesized" in out


def test_evaluate_writes_reports(toy_config, tmp_path, capsys):
    assert main(["evaluate", str(toy_config)]) == 0
    assert (tmp_path / "out" / "reports.csv").exists()
    out = capsys.readouterr().out
    assert "quest:" in out and "rl3:" in out


def test_report_after_evaluate(toy_config, tmp_path, capsys):
    assert main(["evaluate", str(toy_config)]) == 0
    assert main(["report", str(toy_config), "--format", "csv"]) == 0


def test_fairness_scan(toy_config, tmp_path, capsys):
    assert main(["fairness-scan", str(toy_config), "--eps", "0.5", "--delta", "0.05"]) == 0
    assert (tmp_path / "out" / "bias_pairs.csv").exists()
    assert (tmp_path / "out" / "lipschitz.csv").exists()
    assert "k_hat=" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.config"
    bad.write_text("model.arch c14\n")
    assert main(["evaluate", str(bad)]) == 2


def test_synthesis_failure_exit_code(toy_config, capsys):
    # an impossibly tight budget with no entangling slots cannot synthesize
    text = toy_config.read_text().replace("eps_syn 1e-2", "eps_syn 1e-12")
    text = text.replace("k_max 3", "k_max 0")
    toy_config.write_text(text)
    assert main(["synthesize", str(toy_config)]) == 3


def test_scheme_override(toy_config, tmp_path, capsys):
    assert main(["evaluate", str(toy_config), "--scheme", "quest"]) == 0
    out = capsys.readouterr().out
    assert "quest:" in out and "rl3:" not in out


def test_deploy_requires_rl_scheme(toy_config, capsys):
    assert main(["deploy", str(toy_config), "--scheme", "quest"]) == 2


def test_output_dir_env_override(toy_config, tmp_path, monkeypatch, capsys):
    alt = tmp_path / "elsewhere"
    monkeypatch.setenv("QFAIRDEPLOY_OUTPUT_DIR", str(alt))
    assert main(["synthesize", str(toy_config)]) == 0
    assert (alt / "cache").exists()


@pytest.mark.parametrize("line", [
    "train.gamma 1.5",
    "train.iterations abc",
    "weights.rl3 -1,0.5",
    "eval.fill bogus",
    "eval.split bogus",
    "eval.r_twirls 0",
    "schemes quest,rl9",
    "schemes quest,greedy",
    "train.iteratons 5",
    "eval.twirls 4",
    "eps_syn 0",
    "eps_syn -1",
    "eps_syn nan",
    "eps_syn 1.5",
    "eps_syn inf",
    "k_max -1",
    "max_candidates 0",
    "opt.starts 0",
    "opt.starts -2",
    "opt.iterations -3",
    "train.iterations 0",
    "train.batch_size 0",
    "train.replay_capacity 0",
    "train.target_sync_period 0",
    "train.hidden 0",
    "train.learning_rate nan",
    "train.learning_rate -1",
    "data.synthetic.rows 1",  # an empty test split
])
def test_bad_config_value_exits_2_before_synthesis(toy_config, tmp_path, capsys, line):
    toy_config.write_text(toy_config.read_text() + line + "\n")  # the last value of a key wins
    assert main(["evaluate", str(toy_config)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cache").exists()


@pytest.mark.parametrize("flag, value", [
    ("--eps", "0"),
    ("--eps", "1.5"),
    ("--delta", "0"),
    ("--delta", "-0.1"),
    ("--max-rows", "1"),  # one row makes no pair
    ("--max-rows", "-5"),  # would slice off the last five rows
])
def test_bad_scan_argument_exits_2(toy_config, tmp_path, capsys, flag, value):
    assert main(["fairness-scan", str(toy_config), flag, value]) == 2
    assert "config error" in capsys.readouterr().err
    for name in ("bias_pairs.csv", "lipschitz.csv"):
        assert not (tmp_path / "out" / name).exists()


@pytest.mark.parametrize("verb", ["evaluate", "fairness-scan"])
def test_bad_device_file_exits_2(toy_config, tmp_path, capsys, verb):
    device = tmp_path / "old.device"
    device.write_text("name old\nqubits 4\nshots_default 8192\nedge 0 1 0.01\n")  # a key no longer read
    assert main([verb, str(toy_config), "--device", str(device)]) == 2
    assert "unknown device file key: shots_default" in capsys.readouterr().err


def test_singular_readout_confusion_exits_2_before_synthesis(toy_config, tmp_path, capsys):
    text = resources.files("qfairdeploy.devices").joinpath("ring14.device").read_text()
    device = tmp_path / "ring14-blind-0.device"
    device.write_text(text + "readout 0 0.5 0.5\n")  # qubit 0 reads 0 or 1 at random
    assert main(["evaluate", str(toy_config), "--device", str(device)]) == 2
    assert "singular readout confusion matrix for qubit 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cache").exists()


@pytest.mark.parametrize("verb", ["evaluate", "fairness-scan"])
def test_unroutable_ansatz_exits_2_before_synthesis(toy_config, tmp_path, capsys, verb):
    # ring14 without the edge that closes toy4's 4-qubit ring
    text = resources.files("qfairdeploy.devices").joinpath("ring14.device").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("edge 0 3 ")]
    assert len(lines) == len(text.splitlines()) - 1
    device = tmp_path / "ring14-no-03.device"
    device.write_text("\n".join(lines) + "\n")
    assert main([verb, str(toy_config), "--device", str(device)]) == 2
    assert "rzz on (3, 0) is not a coupling edge" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cache").exists()
