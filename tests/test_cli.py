import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from batadal_fixture import write_batadal_csv
from tdcae import preprocess
from tdcae.cli import TRAIN_SCORES_HEADER, _load_train_scores, main
from tdcae.detect import load_detection_flags
from tdcae.metrics import AttackInterval
from tdcae.model import load_model, load_scaler
from tdcae.preprocess import DatasetFrame, load_csv, read_table, save_csv
from tdcae.synth import AttackKind, AttackScenario, TankSystemConfig, simulate


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth + train + detect chain shared across CLI tests."""
    base = tmp_path_factory.mktemp("pipeline")
    assert run("synth", "--out", base / "train", "--horizon", 600,
               "--seed", 3, "--attacks", "none") == 0
    assert run("synth", "--out", base / "test", "--horizon", 600,
               "--seed", 1003, "--attacks", "default") == 0
    assert run("train", "--data", base / "train" / "data.csv",
               "--out", base / "model", "--epochs", 10, "--seed", 3) == 0
    assert run("detect", "--model", base / "model" / "model.json",
               "--data", base / "test" / "data.csv",
               "--train-scores", base / "model" / "train_scores.csv",
               "--out", base / "det") == 0
    return base


class TestSynthCommand:
    def test_default_config_writes_4000_rows(self, tmp_path):
        assert run("synth", "--out", tmp_path / "s", "--attacks", "none") == 0
        frame = load_csv(tmp_path / "s" / "data.csv")
        assert frame.n_rows == 4000
        assert (tmp_path / "s" / "attacks.json").exists()
        assert (tmp_path / "s" / "config.json").exists()

    def test_invalid_hysteresis_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(
            {"tanks": {"pump_on_level": [6.0, 6.0], "pump_off_level": [5.5, 4.8]}}
        ))
        code = run("synth", "--out", tmp_path / "s", "--config", cfg)
        assert code == 1
        assert "pump_on_level" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run("synth", "--out", tmp_path / name, "--horizon", 300,
                       "--seed", 77, "--attacks", "default") == 0
        assert (tmp_path / "a" / "data.csv").read_bytes() == \
               (tmp_path / "b" / "data.csv").read_bytes()

    def test_env_var_overrides_seed(self, tmp_path, monkeypatch):
        assert run("synth", "--out", tmp_path / "plain", "--horizon", 300,
                   "--seed", 5, "--attacks", "none") == 0
        monkeypatch.setenv("TDCAE_SEED", "5")
        assert run("synth", "--out", tmp_path / "env", "--horizon", 300,
                   "--seed", 99, "--attacks", "none") == 0
        assert (tmp_path / "plain" / "data.csv").read_bytes() == \
               (tmp_path / "env" / "data.csv").read_bytes()

    def test_unknown_tank_setting_is_user_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"tanks": {"pump_flo": 10}}))
        assert run("synth", "--out", tmp_path / "s", "--config", cfg) == 1
        assert "pump_flo" in capsys.readouterr().err

    def test_attacks_from_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "tanks": {"horizon": 300, "seed": 1},
            "attacks": [{"kind": "sensor_freeze", "target": 0,
                         "start": 100, "end": 130}],
        }))
        assert run("synth", "--out", tmp_path / "s", "--config", cfg) == 0
        frame = load_csv(tmp_path / "s" / "data.csv")
        assert frame.labels.sum() == 31


class TestTrainCommand:
    def test_artifacts_written(self, pipeline):
        model_dir = pipeline / "model"
        assert (model_dir / "model.json").exists()
        assert (model_dir / "scaler.json").exists()
        lines = (model_dir / "loss_history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,rec_loss,tdc_loss,total"
        assert len(lines) == 11  # header + one row per epoch

    def test_alpha_zero_runs_plain_autoencoder(self, pipeline, tmp_path):
        out = tmp_path / "plain"
        assert run("train", "--data", pipeline / "train" / "data.csv",
                   "--out", out, "--epochs", 2, "--alpha", 0, "--seed", 1) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["config"]["alpha"] == 0

    def test_unknown_training_setting_is_user_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"alpa": 0.1}))
        code = run("train", "--data", pipeline / "train" / "data.csv",
                   "--out", tmp_path / "o", "--config", cfg)
        assert code == 1
        assert "alpa" in capsys.readouterr().err

    def test_edge_selection_on_wrong_schema_fails_cleanly(self, pipeline, capsys):
        code = run("train", "--data", pipeline / "train" / "data.csv",
                   "--out", pipeline / "nope", "--edge", 1)
        assert code == 1
        assert "missing features" in capsys.readouterr().err

    def test_scaler_file_matches_model_document(self, pipeline):
        model_dir = pipeline / "model"
        in_model = json.loads((model_dir / "model.json").read_text())["scaler"]
        assert json.loads((model_dir / "scaler.json").read_text()) == in_model
        scaler, embedded = load_scaler(model_dir / "scaler.json"), load_model(model_dir / "model.json")[1]
        assert scaler.feature_names == embedded.feature_names
        assert np.array_equal(scaler.median, embedded.median)
        assert np.array_equal(scaler.iqr, embedded.iqr)

    def test_train_scores_carry_the_datetime_cells(self, pipeline, tmp_path):
        frame = load_csv(pipeline / "train" / "data.csv")
        stamps = [f"{1 + t // 24:02d}/01/16 {t % 24:02d}" for t in range(frame.n_rows)]
        save_csv(DatasetFrame(frame.feature_names, frame.values, frame.labels,
                              datetimes=stamps), tmp_path / "d.csv")
        assert run("train", "--data", tmp_path / "d.csv", "--out", tmp_path / "m",
                   "--epochs", 1) == 0
        rows = (tmp_path / "m" / "train_scores.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == stamps

    def test_train_scores_of_a_batadal_file_are_read_by_numpy(self, tmp_path, monkeypatch):
        write_batadal_csv(tmp_path / "b.csv", rows=200)
        assert run("train", "--data", tmp_path / "b.csv", "--edge", 1,
                   "--out", tmp_path / "m", "--epochs", 1) == 0
        path = tmp_path / "m" / "train_scores.csv"
        expected = np.array([float(cells[1]) for _, cells in read_table(path, TRAIN_SCORES_HEADER)])

        def refuse(*args):
            raise AssertionError("the reference reader ran")

        monkeypatch.setattr(preprocess, "read_table", refuse)
        assert _load_train_scores(path).tobytes() == expected.tobytes()

    def test_deterministic_model_bytes(self, pipeline, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run("train", "--data", pipeline / "train" / "data.csv",
                       "--out", out, "--epochs", 3, "--seed", 11) == 0
            outs.append((out / "model.json").read_bytes())
        assert outs[0] == outs[1]


class TestDetectCommand:
    def test_detection_csv_schema(self, pipeline):
        lines = (pipeline / "det" / "detection.csv").read_text().splitlines()
        assert lines[0] == "timestamp,raw,smoothed,flag"
        assert len(lines) == 601

    def test_svg_has_threshold_and_shading(self, pipeline):
        svg = (pipeline / "det" / "detection.svg").read_text()
        assert "threshold" in svg
        assert 'fill="#bbbbbb"' in svg  # shaded attack intervals from labels

    def test_flags_in_labeled_window(self, pipeline):
        flags = load_detection_flags(pipeline / "det" / "detection.csv")
        labels = load_csv(pipeline / "test" / "data.csv").labels
        assert flags[labels == 1].sum() >= 1

    def test_threshold_override_used_verbatim(self, pipeline, tmp_path):
        out = tmp_path / "ovr"
        assert run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--threshold", 0.5, "--out", out) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["threshold"] == 0.5
        assert sorted(echoed) == ["command", "data", "model", "percentile", "threshold", "window"]

    @pytest.mark.parametrize("option", [["--smoothing", "centered"], ["--threshold-source", "raw"]])
    def test_retired_options_are_usage_errors(self, pipeline, tmp_path, capsys, option):
        # Smoothing is trailing only and the threshold always comes from
        # smoothed training scores; neither has an option any more.
        with pytest.raises(SystemExit) as info:
            run("detect", "--model", pipeline / "model" / "model.json",
                "--data", pipeline / "test" / "data.csv",
                "--train-scores", pipeline / "model" / "train_scores.csv",
                "--out", tmp_path / "det", *option)
        assert info.value.code == 1
        assert f"error: unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not (tmp_path / "det").exists()

    def test_missing_threshold_source_is_user_error(self, pipeline, capsys):
        code = run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--out", pipeline / "nope2")
        assert code == 1
        assert "threshold" in capsys.readouterr().err

    def test_train_data_threshold_source(self, pipeline, tmp_path):
        out = tmp_path / "fit"
        assert run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--train-data", pipeline / "train" / "data.csv",
                   "--out", out) == 0
        assert (out / "detection.csv").exists()


class TestEvaluateCommand:
    def test_crafted_detections_reproduce_benchmark_row(self, tmp_path, capsys):
        # craft flags/labels realizing the counts (388, 5, 1677, 19) and an
        # immediate detection for every attack run
        tp, fp, tn, fn = 388, 5, 1677, 19
        labels = np.concatenate([
            np.ones(tp, int), np.zeros(fp, int), np.zeros(tn, int), np.ones(fn, int),
        ])
        flags = np.concatenate([
            np.ones(tp, bool), np.ones(fp, bool), np.zeros(tn, bool), np.zeros(fn, bool),
        ])
        det = tmp_path / "det.csv"
        with det.open("w") as fh:
            fh.write("timestamp,raw,smoothed,flag\n")
            for t, f in enumerate(flags):
                fh.write(f"{t},0.0,0.0,{int(f)}\n")
        labels_csv = tmp_path / "labels.csv"
        with labels_csv.open("w") as fh:
            fh.write("x,ATT_FLAG\n")
            for lab in labels:
                fh.write(f"0.0,{lab}\n")
        assert run("evaluate", "--detections", det, "--labels", labels_csv,
                   "--out", tmp_path / "ev") == 0
        doc = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert doc["tpr"] == pytest.approx(0.9533, abs=1e-4)
        assert doc["tnr"] == pytest.approx(0.9970, abs=1e-4)
        assert doc["ppv"] == pytest.approx(0.9873, abs=1e-4)
        assert doc["f1"] == pytest.approx(0.9700, abs=1e-4)
        assert doc["s_clf"] == pytest.approx(0.9752, abs=1e-4)
        table = capsys.readouterr().out
        assert "S_TTD" in table

    def test_perfect_flags_score_one(self, tmp_path):
        labels = np.zeros(40, int)
        labels[10:20] = 1
        det = tmp_path / "det.csv"
        with det.open("w") as fh:
            fh.write("timestamp,raw,smoothed,flag\n")
            for t in range(40):
                fh.write(f"{t},0.0,0.0,{int(labels[t])}\n")
        labels_csv = tmp_path / "labels.csv"
        with labels_csv.open("w") as fh:
            fh.write("x,ATT_FLAG\n")
            for lab in labels:
                fh.write(f"0.0,{lab}\n")
        assert run("evaluate", "--detections", det, "--labels", labels_csv,
                   "--out", tmp_path / "ev") == 0
        doc = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert doc["s"] == 1.0

    def test_fusion_rule_selectable(self, tmp_path):
        labels_csv = tmp_path / "labels.csv"
        with labels_csv.open("w") as fh:
            fh.write("x,ATT_FLAG\n")
            for t in range(10):
                fh.write(f"0.0,{1 if t < 5 else 0}\n")
        dets = []
        for k, pattern in enumerate([(1, 0), (1, 0), (0, 0)]):
            det = tmp_path / f"d{k}.csv"
            with det.open("w") as fh:
                fh.write("timestamp,raw,smoothed,flag\n")
                for t in range(10):
                    fh.write(f"{t},0.0,0.0,{pattern[0] if t < 5 else pattern[1]}\n")
            dets.append(det)
        assert run("evaluate", "--detections", *dets, "--labels", labels_csv,
                   "--fuse", "majority", "--out", tmp_path / "ev") == 0
        doc = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert doc["tpr"] == 1.0 and doc["tnr"] == 1.0


class TestReportCommand:
    def test_latent_trace_and_plots(self, pipeline, tmp_path):
        out = tmp_path / "rep"
        assert run("report", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--out", out) == 0
        header = (out / "latent_trace.csv").read_text().splitlines()[0].split(",")
        doc = json.loads((pipeline / "model" / "model.json").read_text())
        width = 2 * doc["partition"]["n_pairs"] + doc["partition"]["n_stat"]
        assert len(header) == 1 + width  # timestamp + one column per node
        assert header[1] == "z1"
        assert (out / "latent_pairs.svg").exists()
        assert (out / "latent_overlay.svg").exists()

    def test_latent_trace_carries_the_datetime_cells(self, pipeline, tmp_path):
        frame = load_csv(pipeline / "test" / "data.csv")
        stamps = [f"{1 + t // 24:02d}/01/16 {t % 24:02d}" for t in range(frame.n_rows)]
        save_csv(DatasetFrame(frame.feature_names, frame.values, frame.labels,
                              datetimes=stamps), tmp_path / "d.csv")
        assert run("report", "--model", pipeline / "model" / "model.json",
                   "--data", tmp_path / "d.csv", "--out", tmp_path / "rep") == 0
        rows = (tmp_path / "rep" / "latent_trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == stamps


# synth, then train, detect and report on the data with every feature
# renamed to a non-ASCII name. The script text itself stays ASCII, so a C
# locale reads it unchanged.
NON_ASCII_CHAIN = r"""
import sys
from pathlib import Path
from tdcae.cli import main

def run(*argv):
    if main(list(argv)) != 0:
        sys.exit(f"{argv[0]} failed")

run("synth", "--out", "s", "--horizon", "120", "--seed", "5", "--attacks", "default")
data = Path("s/data.csv")
head, sep, rest = data.read_bytes().partition(b"\r\n")
names = [n if n == "ATT_FLAG" else "F\u00fcllstand_" + n for n in head.decode().split(",")]
data.write_bytes(",".join(names).encode("utf-8") + sep + rest)
run("train", "--data", "s/data.csv", "--out", "m", "--epochs", "2", "--seed", "5")
run("detect", "--model", "m/model.json", "--data", "s/data.csv",
    "--train-scores", "m/train_scores.csv", "--out", "d")
run("report", "--model", "m/model.json", "--data", "s/data.csv", "--out", "r")
"""


class TestLocale:
    @staticmethod
    def chain(cwd: Path, **env) -> dict:
        cwd.mkdir()
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, **env}
        done = subprocess.run([sys.executable, "-c", NON_ASCII_CHAIN], cwd=cwd, env=env,
                              capture_output=True, text=True, errors="replace")
        assert done.returncode == 0, done.stderr
        return {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}

    def test_c_locale_writes_the_same_bytes(self, tmp_path):
        default = self.chain(tmp_path / "default")
        ascii_locale = self.chain(tmp_path / "c", LC_ALL="C", PYTHONUTF8="0",
                                  PYTHONCOERCECLOCALE="0")
        assert "F\u00fcllstand_L_T1".encode() in default["r/latent_overlay.svg"]
        assert ascii_locale == default


class TestExitCodes:
    def test_unknown_argument_is_user_error(self):
        assert pytest.raises(SystemExit, run, "synth", "--bogus").value.code == 1

    def test_missing_file_is_user_error(self, tmp_path, capsys):
        code = run("train", "--data", tmp_path / "absent.csv", "--out", tmp_path / "o")
        assert code == 1

    def test_internal_error_is_exit_two(self, tmp_path, capsys, monkeypatch):
        # An exception outside the package's error hierarchy is a bug.
        def broken_loader(path):
            raise RuntimeError("unexpected failure")

        monkeypatch.setattr("tdcae.model.load_model", broken_loader)
        frame = simulate(TankSystemConfig(horizon=120, seed=0))
        save_csv(frame, tmp_path / "d.csv")
        code = run("detect", "--model", tmp_path / "model.json", "--data", tmp_path / "d.csv",
                   "--threshold", 1.0, "--out", tmp_path / "o")
        assert code == 2
        assert "RuntimeError" in capsys.readouterr().err


class TestMalformedModel:
    """A damaged model.json is a user error (exit 1) naming the bad field."""

    @staticmethod
    def detect_with(doc, tmp_path, capsys):
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        code = run("detect", "--model", broken,
                   "--data", tmp_path / "d.csv", "--threshold", 1.0,
                   "--out", tmp_path / "o")
        return code, capsys.readouterr().err

    @pytest.fixture
    def doc(self, pipeline, tmp_path):
        save_csv(load_csv(pipeline / "test" / "data.csv"), tmp_path / "d.csv")
        return json.loads((pipeline / "model" / "model.json").read_text())

    def test_intact_copy_loads(self, doc, tmp_path, capsys):
        assert self.detect_with(doc, tmp_path, capsys)[0] == 0

    def test_truncated_weight_list(self, doc, tmp_path, capsys):
        doc["encoder"]["layers"][0]["weights"].pop()
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert "encoder.layers[0].weights" in err

    def test_missing_decoder(self, doc, tmp_path, capsys):
        del doc["decoder"]
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert "decoder" in err

    def test_binary_file(self, tmp_path, capsys, pipeline):
        save_csv(load_csv(pipeline / "test" / "data.csv"), tmp_path / "d.csv")
        (tmp_path / "model.json").write_bytes(b"\xff\xfe{}")
        code = run("detect", "--model", tmp_path / "model.json",
                   "--data", tmp_path / "d.csv", "--threshold", 1.0, "--out", tmp_path / "o")
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_only_format_field(self, tmp_path, capsys, pipeline):
        save_csv(load_csv(pipeline / "test" / "data.csv"), tmp_path / "d.csv")
        code, err = self.detect_with({"format": "tdcae-model-v1"}, tmp_path, capsys)
        assert code == 1
        assert "partition" in err

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d.update(format="tdcae-model-v0"), "tdcae-model-v1"),
        (lambda d: d["partition"].update(n_pairs="3"), "partition.n_pairs"),
        (lambda d: d["partition"].update(n_stat=5), "latent width"),
        (lambda d: d["encoder"].update(layer_sizes=[8, 0, 7]), "encoder.layer_sizes"),
        (lambda d: d["decoder"]["activations"].__setitem__(0, "relu"), "decoder.activations[0]"),
        (lambda d: d["decoder"]["layers"][1]["bias"].append(0.0), "decoder.layers[1].bias"),
        (lambda d: d["decoder"]["layers"][0]["weights"].__setitem__(2, "x"), "weights[2]"),
        (lambda d: d["scaler"].popitem(), "scaler"),
        (lambda d: next(iter(d["scaler"].values())).pop("iqr"), "iqr"),
        (lambda d: d["config"].pop("alpha"), "config"),
        (lambda d: d["config"].update(seed=-1), "seed must be >= 0"),
    ])
    def test_each_field_is_checked(self, doc, tmp_path, capsys, mutate, field):
        mutate(doc)
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert field in err

    @pytest.mark.parametrize("key", [
        "batch_size", "epochs", "seed", "hidden_size", "n_pairs", "n_stat",
    ])
    @pytest.mark.parametrize("value", [32.7, 3.0])
    def test_integer_config_field_rejects_non_integers(
        self, doc, tmp_path, capsys, key, value
    ):
        doc["config"][key] = value
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert f"config.{key}" in err


class TestMalformedInput:
    """Bad settings and malformed input files are user errors (exit 1)
    whose message names the culprit."""

    @staticmethod
    def train(pipeline, tmp_path, *extra):
        return run("train", "--data", pipeline / "train" / "data.csv",
                   "--out", tmp_path / "m", "--epochs", 1, *extra)

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("flag, env", [(["--seed", -1], None), ([], "-5")])
    def test_negative_seed(self, pipeline, tmp_path, capsys, monkeypatch, command, flag, env):
        if env is not None:
            monkeypatch.setenv("TDCAE_SEED", env)
        if command == "synth":
            code = run("synth", "--out", tmp_path / "s", "--horizon", 200, "--attacks", "none", *flag)
        else:
            code = self.train(pipeline, tmp_path, *flag)
        assert code == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("content, field", [
        (b'{"batch_size": "abc"}', "batch_size"),
        # self.train's --epochs 1 must not hide the file's bad value.
        (b'{"epochs": "abc"}', "epochs: expected int, got 'abc'"),
        (b'{"hidden_size": 2.5}', "hidden_size"),
        (b'{"seed": -1}', "seed"),
        (b'{"seed": "abc"}', "seed"),
        (b'{"seed": null}', "seed"),
        (b'{"seed": 1.5}', "seed"),
        (b'{"seed": true}', "seed"),
        (b"[1, 2]", "expected a JSON object"),
        (b"\xff\xfe{}", "invalid JSON"),
    ])
    def test_training_config_file(self, pipeline, tmp_path, capsys, content, field):
        (tmp_path / "cfg.json").write_bytes(content)
        assert self.train(pipeline, tmp_path, "--config", tmp_path / "cfg.json") == 1
        assert field in capsys.readouterr().err

    def test_seed_variable_does_not_hide_a_bad_config_seed(self, pipeline, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("TDCAE_SEED", "3")
        (tmp_path / "cfg.json").write_text('{"seed": "abc"}')
        assert self.train(pipeline, tmp_path, "--config", tmp_path / "cfg.json") == 1
        assert "seed: expected int, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("attack, field", [
        ({"kind": "bogus", "target": 0, "start": 10, "end": 20}, "attacks[0].kind"),
        ({"kind": "sensor_freeze", "start": 10, "end": 20}, "attacks[0].target"),
        ({"kind": "sensor_freeze", "target": 0, "end": 20}, "attacks[0].start"),
        ({"kind": "sensor_freeze", "target": 0, "start": 10}, "attacks[0].end"),
        ({"kind": "sensor_freeze", "target": 0, "start": 10, "end": 20, "magnitude": "x"},
         "attacks[0].magnitude"),
    ])
    @pytest.mark.parametrize("source", ["attacks", "config"])
    def test_attacks_file(self, tmp_path, capsys, attack, field, source):
        path = tmp_path / "attacks.json"
        if source == "attacks":
            path.write_text(json.dumps([attack]))
            code = run("synth", "--out", tmp_path / "s", "--horizon", 200, "--attacks", path)
        else:
            path.write_text(json.dumps({"attacks": [attack]}))
            code = run("synth", "--out", tmp_path / "s", "--horizon", 200, "--config", path)
        assert code == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("tanks, field", [
        ({"horizon": "abc"}, "tanks.horizon"),
        ({"horizon": 300.0}, "tanks.horizon"),
        ({"seed": "x"}, "tanks.seed"),
        ({"n_tanks": True}, "tanks.n_tanks"),
        ({"pump_flow": "fast"}, "tanks.pump_flow"),
        ({"noise_std": None}, "tanks.noise_std"),
        ({"demand_period": 1e999}, "tanks.demand_period"),
        ({"tank_area": 140}, "tanks.tank_area"),
        ({"tank_height": [7.5, "6.8"]}, "tanks.tank_height[1]"),
        ({"initial_levels": [1.0, None]}, "tanks.initial_levels[1]"),
        (5, "tanks: expected a JSON object"),
    ])
    def test_tank_settings(self, tmp_path, capsys, tanks, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tanks": tanks}))
        assert run("synth", "--out", tmp_path / "s", "--config", path) == 1
        assert field in capsys.readouterr().err

    def test_tank_settings_of_every_type_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tanks": {
            "n_tanks": 1, "horizon": 150, "seed": 3, "pump_flow": 150,
            "noise_std": 0.01, "tank_area": [100], "pump_on_level": [2.0],
            "pump_off_level": [5.0], "tank_height": [7.0], "initial_levels": None,
        }}))
        assert run("synth", "--out", tmp_path / "s", "--config", path, "--attacks", "none") == 0
        echoed = json.loads((tmp_path / "s" / "config.json").read_text())["tanks"]
        assert (echoed["pump_flow"], echoed["tank_area"]) == (150, [100.0])

    @pytest.mark.parametrize("row, message", [
        ("0,1.0", "row 3: expected 4 cells, got 2"),
        ("0,1.0,1.0,2", "row 3: flag must be 0 or 1"),
    ])
    def test_detection_file(self, tmp_path, capsys, row, message):
        det = tmp_path / "det.csv"
        det.write_text(f"timestamp,raw,smoothed,flag\n0,1.0,1.0,1\n{row}\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("x,ATT_FLAG\n0.0,1\n0.0,0\n")
        code = run("evaluate", "--detections", det, "--labels", labels, "--out", tmp_path / "ev")
        assert code == 1
        assert f"det.csv: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["abc", "nan", None, b"\xff", "0.5,extra"])
    def test_train_scores_file(self, pipeline, tmp_path, capsys, cell):
        lines = (pipeline / "model" / "train_scores.csv").read_bytes().splitlines()
        raw = cell if isinstance(cell, bytes) else str(cell).encode()
        lines[2] = b"1" if cell is None else b"1," + raw
        (tmp_path / "scores.csv").write_bytes(b"\n".join(lines) + b"\n")
        code = run("detect", "--model", pipeline / "model" / "model.json",
                   "--data", pipeline / "test" / "data.csv",
                   "--train-scores", tmp_path / "scores.csv", "--out", tmp_path / "o")
        assert code == 1
        where = "not UTF-8 text" if isinstance(cell, bytes) else "row 3"
        assert f"scores.csv: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("plot_rows, data_rows", [(1, 600), (2, 600), (500, 2)])
    def test_report_needs_three_plot_rows(self, pipeline, tmp_path, capsys, plot_rows, data_rows):
        lines = (pipeline / "test" / "data.csv").read_text().splitlines()
        (tmp_path / "d.csv").write_text("\n".join(lines[: 1 + data_rows]) + "\n")
        code = run("report", "--model", pipeline / "model" / "model.json", "--data",
                   tmp_path / "d.csv", "--plot-rows", plot_rows, "--out", tmp_path / "o")
        assert code == 1
        assert "need >= 3 rows to plot" in capsys.readouterr().err
