import json
import os
from pathlib import Path

import numpy as np
import pytest

from tdcae.cli import main
from tdcae.detect import load_detection_flags
from tdcae.metrics import AttackInterval
from tdcae.preprocess import load_csv, save_csv
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
    ])
    def test_each_field_is_checked(self, doc, tmp_path, capsys, mutate, field):
        mutate(doc)
        code, err = self.detect_with(doc, tmp_path, capsys)
        assert code == 1
        assert field in err
