import shutil
from importlib import resources
from pathlib import Path

import pytest

from qfairdeploy.cli import main
from qfairdeploy.pipeline import load_config

REPO_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def toy_config(tmp_path):
    """Copy of the bundled toy config pointing at an isolated output dir."""
    shutil.copy(REPO_DIR / "toy4_params.txt", tmp_path / "toy4_params.txt")
    (tmp_path / "empty_params.txt").write_text("")  # the parameters of a model with no layers
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


def test_synthesis_stage_failure_exits_3(toy_config, capsys):
    text = toy_config.read_text().replace("eps_syn 1e-2", "eps_syn 1e-12")
    toy_config.write_text(text.replace("k_max 3", "k_max 0"))
    assert main(["evaluate", str(toy_config)]) == 3
    assert "stage 'synthesize' failed" in capsys.readouterr().err


def test_failure_after_synthesis_exits_4_naming_stage_and_config(toy_config, monkeypatch, capsys):
    def overflow(env, train):
        raise FloatingPointError("overflow in the value network")

    monkeypatch.setattr("qfairdeploy.pipeline.run_search", overflow)
    assert main(["evaluate", str(toy_config)]) == 4
    err = capsys.readouterr().err
    assert f"stage 'rl3' failed (config {load_config(toy_config).config_hash})" in err
    assert "overflow in the value network" in err


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


@pytest.mark.parametrize("where", ["config", "config-below", "env"])
@pytest.mark.parametrize("verb", ["synthesize", "deploy", "evaluate", "report", "fairness-scan"])
def test_output_dir_on_a_file_exits_2_before_synthesis(toy_config, tmp_path, monkeypatch, capsys, verb, where):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    if where == "env":
        monkeypatch.setenv("QFAIRDEPLOY_OUTPUT_DIR", str(taken))
    else:
        below = "/out" if where == "config-below" else ""
        toy_config.write_text(toy_config.read_text() + f"output_dir {taken}{below}\n")
    assert main([verb, str(toy_config)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


# values the model or the data builder refuses, which every verb must report as config errors
_BAD_MODEL_AND_DATA = [
    "model.measure_qubit 7",
    "model.layers 0",
    "model.layers 0\nmodel.params empty_params.txt",  # no parameters for no layers, still no model
    "model.qubits 5",
    "data.synthetic.rows 0",
    "data.synthetic.rows -3",
    "data.synthetic.flip 2",
    "data.schema missing.schema",
    "model.params .",  # a directory, not a file
    "data.schema .",
    "data.csv .",
]


@pytest.mark.parametrize("line", [
    "train.gamma 1.5",
    "train.iterations abc",
    "weights.rl3 -1,0.5",
    "weights.rl3 nan,1",
    "weights.rl3 inf,1",
    "weights.rl3 1,inf",
    "eval.fill bogus",
    "eval.split bogus",
    "eval.r_twirls 0",
    "schemes quest,rl9",
    "schemes quest,greedy",
    "schemes quest,rl3,rl3",  # two rl3 rows and one overwritten curves_rl3.csv
    "train.iteratons 5",
    "eval.twirls 4",
    "eps_syn 0",
    "eps_syn -1",
    "eps_syn nan",
    "eps_syn 1.5",
    "eps_syn inf",
    "k_max -1",
    "s_blk 3\nk_max 40",  # 3^40 placement patterns overflow the sampler
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
    *_BAD_MODEL_AND_DATA,
])
def test_bad_config_value_exits_2_before_synthesis(toy_config, tmp_path, capsys, line):
    toy_config.write_text(toy_config.read_text() + line + "\n")  # the last value of a key wins
    assert main(["evaluate", str(toy_config)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cache").exists()


@pytest.mark.parametrize("line", _BAD_MODEL_AND_DATA)
@pytest.mark.parametrize("verb", ["synthesize", "evaluate", "fairness-scan"])
def test_bad_model_or_data_exits_2_from_every_verb(toy_config, tmp_path, capsys, verb, line):
    toy_config.write_text(toy_config.read_text() + line + "\n")
    assert main([verb, str(toy_config)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cache").exists()
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("verb", ["synthesize", "deploy", "evaluate", "report", "fairness-scan"])
def test_schema_without_csv_exits_2(toy_config, tmp_path, capsys, verb):
    # a schema alone used to run the synthetic dataset in place of the data it describes
    (tmp_path / "s.schema").write_text(
        "features a,b,c,d\nlabel y\nlabel_positive 1\ntrain_size 20\ntest_size 10\n")
    toy_config.write_text(toy_config.read_text() + "data.schema s.schema\n")
    assert main([verb, str(toy_config)]) == 2
    assert "data.schema is set but data.csv is not" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["synthesize", "deploy", "evaluate", "report", "fairness-scan"])
def test_csv_without_schema_exits_2(toy_config, tmp_path, capsys, verb):
    # `synthesize` never loads the data, so only the config load can refuse it
    (tmp_path / "d.csv").write_text("a,b,c,d,y\n" + "0,1,0,1,1\n" * 30)
    toy_config.write_text(toy_config.read_text() + "data.csv d.csv\n")
    assert main([verb, str(toy_config)]) == 2
    assert "data.csv is set but data.schema is not" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("verb", ["synthesize", "deploy", "evaluate", "report", "fairness-scan"])
def test_device_that_is_not_a_file_exits_2(toy_config, tmp_path, capsys, verb, override):
    # a missing path or a directory, named in the config or on the command line
    for device in (tmp_path / "missing.device", tmp_path):
        if override:
            argv = [verb, str(toy_config), "--device", str(device)]
        else:
            toy_config.write_text(toy_config.read_text() + f"device {device}\n")
            argv = [verb, str(toy_config)]
        assert main(argv) == 2
        assert "neither bundled nor a file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", ["train_size -5", "test_size -3"])
@pytest.mark.parametrize("verb", ["synthesize", "deploy", "evaluate", "report", "fairness-scan"])
def test_negative_schema_size_exits_2_naming_the_key(toy_config, tmp_path, capsys, verb, size):
    # -5 train rows made the test split rows -5..-1, aliases of real rows
    rows = "".join(f"{i % 5},{i % 3},{i % 7},{i % 4},{i % 2}\n" for i in range(40))
    (tmp_path / "d.csv").write_text("a,b,c,d,y\n" + rows)
    sizes = {"train_size": 20, "test_size": 10}
    key, value = size.split()
    sizes[key] = int(value)
    (tmp_path / "d.schema").write_text("features a,b,c,d\nlabel y\nlabel_positive 1\n"
                                       + "".join(f"{k} {v}\n" for k, v in sizes.items()))
    toy_config.write_text(toy_config.read_text() + "data.csv d.csv\ndata.schema d.schema\n")
    assert main([verb, str(toy_config)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{key} must be >= 0, got {value}" in err
    assert not (tmp_path / "out").exists()


def _model_over_the_cap(tmp_path) -> str:
    """A 13-qubit c14 model on a 13-qubit ring: routable, one qubit past the
    statevector cap."""
    (tmp_path / "p13.txt").write_text("0.5\n" * 52)
    ring = "".join(f"edge {q} {(q + 1) % 13} 0.01\n" for q in range(13))
    (tmp_path / "ring13.device").write_text("name ring13\nqubits 13\n" + ring)
    return f"model.qubits 13\nmodel.params p13.txt\ndevice {tmp_path / 'ring13.device'}"


def _data_too_narrow(tmp_path) -> str:
    """A CSV whose schema lists 3 features for the 4-qubit model."""
    rows = "".join(f"{i % 5},{i % 3},{i % 7},{i % 2}\n" for i in range(40))
    (tmp_path / "narrow.csv").write_text("a,b,c,y\n" + rows)
    (tmp_path / "narrow.schema").write_text(
        "features a,b,c\nlabel y\nlabel_positive 1\ntrain_size 20\ntest_size 10\n")
    return "data.csv narrow.csv\ndata.schema narrow.schema"


@pytest.mark.parametrize("bad_input", [_model_over_the_cap, _data_too_narrow])
@pytest.mark.parametrize("verb", ["evaluate", "deploy", "fairness-scan"])
def test_model_or_data_the_simulator_cannot_run_exits_2(toy_config, tmp_path, capsys, verb, bad_input):
    toy_config.write_text(toy_config.read_text() + bad_input(tmp_path) + "\n")
    assert main([verb, str(toy_config)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cache").exists()
    assert not list(tmp_path.glob("out/*.csv"))


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


@pytest.mark.parametrize("verb", ["evaluate", "fairness-scan"])
def test_unreadable_device_file_exits_2(toy_config, tmp_path, capsys, verb):
    device = tmp_path / "dir.device"
    device.mkdir()
    assert main([verb, str(toy_config), "--device", str(device)]) == 2
    assert "bad device file" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["edge 0 1", "crosstalk 0 1 2 3", "readout 3 0.1", "edge 0 1 0.01 7"])
@pytest.mark.parametrize("verb", ["evaluate", "fairness-scan"])
def test_device_line_with_wrong_field_count_exits_2(toy_config, tmp_path, capsys, verb, line):
    text = resources.files("qfairdeploy.devices").joinpath("ring14.device").read_text()
    device = tmp_path / "ring14-cut.device"
    device.write_text(text + line + "\n")
    assert main([verb, str(toy_config), "--device", str(device)]) == 2
    err = capsys.readouterr().err
    assert "bad device file" in err and repr(line) in err
    assert not (tmp_path / "out" / "cache").exists()
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("line", [
    "crosstalk 0 1 2 3 nan",
    "crosstalk 0 1 2 3 -0.1",
    "crosstalk 0 1 2 3 1.5",
    "crosstalk_default 1.5",
    "crosstalk_default nan",
    "readout 14 0.01 0.01",  # ring14's qubits are 0..13
    "readout -1 0.01 0.01",
])
@pytest.mark.parametrize("verb", ["evaluate", "fairness-scan"])
def test_device_value_out_of_range_exits_2(toy_config, tmp_path, capsys, verb, line):
    text = resources.files("qfairdeploy.devices").joinpath("ring14.device").read_text()
    device = tmp_path / "ring14-bad.device"
    device.write_text(text + line + "\n")
    assert main([verb, str(toy_config), "--device", str(device)]) == 2
    assert "bad device file" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cache").exists()
    assert not list(tmp_path.glob("out/*.csv"))


def test_singular_readout_confusion_exits_2_before_synthesis(toy_config, tmp_path, capsys):
    text = resources.files("qfairdeploy.devices").joinpath("ring14.device").read_text()
    device = tmp_path / "ring14-blind-0.device"
    device.write_text(text + "readout 0 0.5 0.5\n")  # qubit 0 reads 0 or 1 at random
    assert main(["evaluate", str(toy_config), "--device", str(device)]) == 2
    assert "singular readout confusion matrix for qubit 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cache").exists()


@pytest.mark.parametrize("verb", ["synthesize", "evaluate", "fairness-scan"])
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


def test_device_file_named_in_the_config_resolves_against_its_directory(toy_config, tmp_path, monkeypatch,
                                                                        capsys):
    # a config moved together with its device file runs from any directory,
    # as its model.params does
    text = resources.files("qfairdeploy.devices").joinpath("ring14.device").read_text()
    (tmp_path / "mine.device").write_text(text)
    toy_config.write_text(toy_config.read_text().replace("device ring14", "device mine.device"))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["fairness-scan", str(toy_config)]) == 0
    assert (tmp_path / "out" / "lipschitz.csv").exists()
    # a --device path on the command line stays relative to the working directory
    assert main(["fairness-scan", str(toy_config), "--device", "../mine.device"]) == 0
    assert main(["fairness-scan", str(toy_config), "--device", "mine.device"]) == 2
    assert "neither bundled nor a file" in capsys.readouterr().err
