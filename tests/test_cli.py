import argparse
import dataclasses
import importlib.util
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from ttcloc import cli, network, synth, trainer
from ttcloc.errors import NumericalError, ValidationError
from ttcloc.gradcheck import ComponentCheck
from ttcloc.objectives import AGGREGATORS, REG_FORMS, TRAIN_LOCALIZATION, LossConfig
from ttcloc.synth import PRESETS, SynthSpec
from ttcloc.trainer import STRATEGIES, SUPERVISION_MODES, TrainConfig

LIMIT = sys.maxsize  # numpy.intp's largest value


def refuse_to_place(*args):
    """Stands in for ``synth._place_segments`` where no video may be made."""
    raise AssertionError("a video was generated")


def run_cli(*argv):
    return cli.main(list(argv))


def make_dataset(path, seed=1, feature_dim=8):
    code = run_cli(
        "synth",
        "--preset",
        "easy",
        "--num-classes",
        "3",
        "--feature-dim",
        str(feature_dim),
        "--videos-per-class",
        "3",
        "--snippets-min",
        "16",
        "--snippets-max",
        "20",
        "--segment-len-min",
        "4",
        "--segment-len-max",
        "6",
        "--seed",
        str(seed),
        "--out",
        path,
    )
    assert code == 0
    return path


class TestParseIouSpec:
    def test_single(self):
        assert cli.parse_iou_spec("0.5") == (0.5,)

    def test_comma_list(self):
        assert cli.parse_iou_spec("0.3,0.5,0.7") == (0.3, 0.5, 0.7)

    def test_colon_range(self):
        assert cli.parse_iou_spec("0.3:0.7:0.1") == (0.3, 0.4, 0.5, 0.6, 0.7)

    def test_range_endpoint_robust_to_float_steps(self):
        assert cli.parse_iou_spec("0.1:0.3:0.1") == (0.1, 0.2, 0.3)

    @pytest.mark.parametrize("bad", ["", "a", "0.3:0.7", "0.7:0.3:0.1", "0.3:0.7:0", "nan", "0.5,inf", "-inf", "0:1000:1"])
    def test_bad_specs(self, bad):
        with pytest.raises(ValidationError):
            cli.parse_iou_spec(bad)

    def test_range_size_limit(self):
        step = 1 / cli.IOU_MAX_THRESHOLDS
        assert len(cli.parse_iou_spec(f"{step}:1:{step}")) == cli.IOU_MAX_THRESHOLDS

    def test_unbounded_ranges_are_rejected_without_hanging(self):
        # run in a child with a memory cap and a timeout, so a parser that
        # loops forever fails this test instead of hanging the suite
        specs = ["0.1:inf:0.1", "0.1:nan:0.1", "0:1:1e-12", "1e300:1e300:1"]
        code = (
            "import sys\n"
            "from ttcloc.cli import parse_iou_spec\n"
            "from ttcloc.errors import ValidationError\n"
            "for spec in sys.argv[1:]:\n"
            "    try:\n"
            "        parse_iou_spec(spec)\n"
            "        print('accepted')\n"
            "    except ValidationError:\n"
            "        print('rejected')\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        result = subprocess.run(
            [sys.executable, "-c", code, *specs], env=env, preexec_fn=cap_memory, capture_output=True, text=True, timeout=60
        )
        assert result.stdout.split() == ["rejected"] * len(specs), result.stderr[-500:]


class TestConfigBuilding:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"iterations": 50, "batch_size": 7}))
        config = cli.build_train_config(json.loads(cfg.read_text()), {"iterations": 9}, {})
        assert config.iterations == 9  # flag wins
        assert config.batch_size == 7  # file wins over default
        assert config.learning_rate == 1e-4  # default

    def test_nested_loss_config(self):
        config = cli.build_train_config({"loss": {"clas_weight": 0.4}}, {}, {"loc_weight": 7.0})
        assert config.loss.clas_weight == 0.4
        assert config.loss.loc_weight == 7.0

    def test_flags_replace_invalid_file_values(self, tmp_path):
        # flags > config file, also for a file value that no config may hold
        ds = make_dataset(str(tmp_path / "ds"))
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"dropout": 5, "loss": {"loc_weight": -1}}))
        run = str(tmp_path / "run")
        flags = ["--dropout", "0.5", "--loc-weight", "2", "--iterations", "1", "--hidden-dim", "4"]
        assert run_cli("train", "--data", ds, "--config", str(cfg), "--out", run, *flags) == 0
        recorded = json.loads(open(os.path.join(run, cli.TRAIN_CONFIG_NAME)).read())
        assert (recorded["dropout"], recorded["loss"]["loc_weight"]) == (0.5, 2.0)

    @pytest.mark.parametrize(
        "file_cfg, overrides, loss_overrides",
        [({"dropout": "x"}, {"dropout": 0.5}, {}), ({"loss": {"loc_weight": "x"}}, {}, {"loc_weight": 2.0})],
    )
    def test_flags_do_not_excuse_a_file_value_of_the_wrong_type(self, file_cfg, overrides, loss_overrides):
        with pytest.raises(ValidationError, match="must be a number"):
            cli.build_train_config(file_cfg, overrides, loss_overrides)

    def test_unknown_train_key_rejected(self):
        with pytest.raises(ValidationError, match="learning_rte"):
            cli.build_train_config({"learning_rte": 1e-3}, {}, {})

    def test_unknown_loss_key_rejected(self):
        with pytest.raises(ValidationError, match="margin"):
            cli.build_train_config({"loss": {"margin": 2}}, {}, {})

    def test_unknown_synth_key_rejected(self):
        with pytest.raises(ValidationError, match="snippets"):
            cli.build_synth_spec(None, {"snippets": 10}, {})

    def test_preset_base_with_overrides(self):
        spec = cli.build_synth_spec("hard", {"feature_dim": 4}, {"seed": 9})
        assert spec.prototype_scale == 2.0
        assert spec.feature_dim == 4
        assert spec.seed == 9

    @pytest.mark.parametrize(
        "file_cfg",
        [
            {"loss": 5},
            {"loss": None},
            {"loss": []},
            {"hidden_dim": "x"},
            {"learning_rate": None},
            {"loss": {"clas_weight": "0.2"}},
            {"iterations": 2.5},
            {"iterations": 2.0},
            {"semi_k": True},
            {"gating": []},
            {"seed": None},
        ],
    )
    def test_wrong_typed_train_value_rejected(self, file_cfg):
        with pytest.raises(ValidationError, match="must be"):
            cli.build_train_config(file_cfg, {}, {})

    def test_int_for_float_and_null_where_default_is_none(self):
        config = cli.build_train_config({"learning_rate": 1, "loss": {"background_weight": None, "loc_weight": 2}}, {}, {})
        assert (config.learning_rate, config.loss.background_weight, config.loss.loc_weight) == (1, None, 2)

    @pytest.mark.parametrize(
        "file_cfg", [{"num_classes": "x"}, {"num_classes": 3.0}, {"seed": True}, {"noise_scale": None}, {"feature_dim": [4]}]
    )
    def test_wrong_typed_synth_value_rejected(self, file_cfg):
        with pytest.raises(ValidationError, match="must be"):
            cli.build_synth_spec(None, file_cfg, {})

    def test_untrained_gate_needs_topk_pooling(self):
        with pytest.raises(ValidationError, match="topk_eighth"):
            cli.build_train_config({"train_localization": "none"}, {}, {})
        config = cli.build_train_config({"train_localization": "none", "loss": {"aggregator": "topk_eighth"}}, {}, {})
        assert config.train_localization == "none"

    @pytest.mark.parametrize(
        "ablate_cfg",
        [
            {"seeds": "2"},
            {"seeds": 1.5},
            {"iterations": None},
            {"hidden_dim": True},
            {"videos_per_class": "8"},
            {"iou": 0.5},
            {"lambda_sweep": 1},
            {"preset": 3},
        ],
    )
    def test_wrong_typed_ablate_value_fails_cleanly(self, ablate_cfg, tmp_path, capsys):
        cfg = tmp_path / "ablate.json"
        cfg.write_text(json.dumps(ablate_cfg))
        # the flags keep a run that wrongly accepts the file short; they do not mask its check
        small = ["--seeds", "1", "--iterations", "1", "--hidden-dim", "4", "--videos-per-class", "1"]
        assert run_cli("ablate", "--config", str(cfg), *small, "--out", str(tmp_path / "out")) == 1
        assert "error: " in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")


class TestPipeline:
    def test_full_pipeline(self, tmp_path):
        ds = make_dataset(str(tmp_path / "ds"))
        run = str(tmp_path / "run")
        assert (
            run_cli(
                "train",
                "--data",
                ds,
                "--out",
                run,
                "--iterations",
                "60",
                "--hidden-dim",
                "12",
                "--dropout",
                "0.1",
                "--learning-rate",
                "2e-3",
                "--max-clip-len",
                "32",
            )
            == 0
        )
        assert os.path.exists(os.path.join(run, "checkpoint.ttck"))
        metrics = [json.loads(line) for line in open(os.path.join(run, "metrics.ndjson"))]
        assert len(metrics) == 60
        assert metrics[0]["step"] == 1

        det = str(tmp_path / "det.jsonl")
        assert run_cli("infer", "--ckpt", run, "--data", ds, "--mode", "predicted", "--out", det) == 0
        report = str(tmp_path / "report.json")
        assert run_cli("eval", "--det", det, "--gt", os.path.join(ds, "manifest.json"), "--iou", "0.5", "--out", report) == 0
        obj = json.loads(open(report).read())
        assert "average_map" in obj
        assert os.path.exists(str(tmp_path / "report.csv"))

    def test_synth_deterministic(self, tmp_path):
        a = make_dataset(str(tmp_path / "a"), seed=3)
        b = make_dataset(str(tmp_path / "b"), seed=3)
        assert open(os.path.join(a, "manifest.json"), "rb").read() == open(os.path.join(b, "manifest.json"), "rb").read()
        assert open(os.path.join(a, "v00_000.f32"), "rb").read() == open(os.path.join(b, "v00_000.f32"), "rb").read()

    def test_infer_checkpoint_dataset_mismatch(self, tmp_path):
        ds = make_dataset(str(tmp_path / "ds"))
        other = make_dataset(str(tmp_path / "other"), feature_dim=6)
        run = str(tmp_path / "run")
        assert run_cli("train", "--data", ds, "--out", run, "--iterations", "3", "--hidden-dim", "8") == 0
        det = str(tmp_path / "det.jsonl")
        assert run_cli("infer", "--ckpt", run, "--data", other, "--out", det) == 1
        assert not os.path.exists(det)

    @pytest.mark.parametrize("iou", ["0.5,0.5", "0.5,0.5000001"])
    def test_eval_thresholds_with_one_label_fail_cleanly(self, tmp_path, capsys, iou):
        ds = make_dataset(str(tmp_path / "ds"))
        det = tmp_path / "det.jsonl"
        det.write_text("")
        out = str(tmp_path / "report.json")
        assert run_cli("eval", "--det", str(det), "--gt", os.path.join(ds, "manifest.json"), "--iou", iou, "--out", out) == 1
        assert "share report labels" in capsys.readouterr().err
        assert not os.path.exists(out) and not os.path.exists(tmp_path / "report.csv")

    def test_eval_unknown_video_fails_cleanly(self, tmp_path):
        ds = make_dataset(str(tmp_path / "ds"))
        det = tmp_path / "det.jsonl"
        det.write_text(
            json.dumps(
                {"video_id": "ghost", "class_id": 0, "class_name": "class00", "start_s": 0.0, "end_s": 1.0, "score": 0.5}
            )
            + "\n"
        )
        out = str(tmp_path / "report.json")
        assert run_cli("eval", "--det", str(det), "--gt", os.path.join(ds, "manifest.json"), "--out", out) == 1
        assert not os.path.exists(out)


class TestOutputNamesADirectory:
    """A failed write exits 1 and leaves neither the target changed nor a tmp file."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("outdir")
        ds = make_dataset(str(root / "ds"))
        run = str(root / "run")
        assert run_cli("train", "--data", ds, "--out", run, "--iterations", "3", "--hidden-dim", "8") == 0
        return ds, run

    def test_infer(self, trained, tmp_path):
        ds, run = trained
        out = tmp_path / "det"
        out.mkdir()
        assert run_cli("infer", "--ckpt", run, "--data", ds, "--mode", "manual", "--out", str(out)) == 1
        assert os.listdir(tmp_path) == ["det"] and os.listdir(out) == []

    def test_eval(self, trained, tmp_path):
        ds, run = trained
        det = str(tmp_path / "det.jsonl")
        assert run_cli("infer", "--ckpt", run, "--data", ds, "--mode", "manual", "--out", det) == 0
        out = tmp_path / "report.json"
        out.mkdir()
        assert run_cli("eval", "--det", det, "--gt", os.path.join(ds, "manifest.json"), "--out", str(out)) == 1
        assert sorted(os.listdir(tmp_path)) == ["det.jsonl", "report.json"]

    def test_train(self, trained, tmp_path):
        ds, _ = trained
        run = tmp_path / "run"
        (run / "checkpoint.ttck").mkdir(parents=True)
        assert run_cli("train", "--data", ds, "--out", str(run), "--iterations", "1", "--hidden-dim", "4") == 1
        assert "checkpoint.ttck.tmp" not in os.listdir(run)


class TestExitCodes:
    def test_usage_error_is_validation_exit(self):
        with pytest.raises(SystemExit) as info:
            run_cli("bogus-command")
        assert info.value.code == 1

    def test_invalid_synth_field(self, tmp_path):
        assert run_cli("synth", "--num-classes", "1", "--out", str(tmp_path / "ds")) == 1

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        ds = make_dataset(str(tmp_path / "ds"))
        assert run_cli("synth", "--seed", "-1", "--out", str(tmp_path / "ds2")) == 1
        assert run_cli("train", "--data", ds, "--seed", "-1", "--out", str(tmp_path / "run")) == 1
        assert run_cli("gradcheck", "--seed", "-1") == 1
        assert capsys.readouterr().err.count("seed must be >= 0") == 3
        assert not os.path.exists(tmp_path / "ds2") and not os.path.exists(tmp_path / "run")

    def test_infinite_adam_settings_fail_cleanly(self, tmp_path, capsys):
        ds = make_dataset(str(tmp_path / "ds"))
        for flag in ("--learning-rate", "--adam-eps"):
            run = str(tmp_path / "run")
            assert run_cli("train", "--data", ds, flag, "inf", "--iterations", "2", "--hidden-dim", "4", "--out", run) == 1
            assert "must be finite" in capsys.readouterr().err
            assert not os.path.exists(run)

    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--noise-scale", "noise_scale must be finite and >= 0, got inf"),
            ("--prototype-scale", "prototype_scale must be finite and > 0, got inf"),
        ],
        ids=["noise-scale", "prototype-scale"],
    )
    def test_infinite_synth_scale_fails_cleanly(self, tmp_path, capsys, monkeypatch, flag, message):
        # validation refuses the spec before any video is drawn
        monkeypatch.setattr(synth, "_prototypes", lambda *a: pytest.fail("generation started"))
        out = str(tmp_path / "ds")
        assert run_cli("synth", "--preset", "easy", flag, "inf", "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name", ["loc_weight", "background_weight"])
    def test_infinite_loss_weights_fail_cleanly(self, tmp_path, capsys, name):
        ds = make_dataset(str(tmp_path / "ds"))
        cfg = tmp_path / "train.json"
        cfg.write_text(f'{{"loss": {{"{name}": Infinity}}}}')  # Python's JSON reader accepts Infinity
        run = str(tmp_path / "run")
        for source in (["--" + name.replace("_", "-"), "inf"], ["--config", str(cfg)]):
            assert run_cli("train", "--data", ds, *source, "--iterations", "2", "--hidden-dim", "4", "--out", run) == 1
            assert f"{name} must be finite" in capsys.readouterr().err
            assert not os.path.exists(run)

    # each size asks for more than the 128 TiB a process can map, so the
    # request is refused at once whatever the system's overcommit policy
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--batch-size", str(10**14)],
            ["synth", "--preset", "easy", "--feature-dim", str(10**13)],
        ],
        ids=["batch-size", "feature-dim"],
    )
    def test_refused_allocation_fails_cleanly(self, tmp_path, capsys, argv):
        if argv[0] == "train":
            argv = [*argv, "--data", make_dataset(str(tmp_path / "ds")), "--iterations", "2"]
        before = sorted(os.listdir(tmp_path))
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before

    # each size is one NumPy cannot index, or asks for an array of more bytes
    # than NumPy can address, so validation refuses it before any work
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--hidden-dim", str(10**19)], f"hidden_dim must be at most {LIMIT}, the largest size NumPy can index, got {10**19}"),
            (["train", "--batch-size", str(10**19)], f"batch_size must be at most {LIMIT}, the largest size NumPy can index, got {10**19}"),
            (
                ["synth", "--preset", "easy", "--feature-dim", str(10**19)],
                f"feature_dim must be at most {LIMIT}, the largest size NumPy can index, got {10**19}",
            ),
            (["train", "--hidden-dim", str(LIMIT)], f"the conv kernel's 3 * hidden_dim**2 float64 values take {24 * LIMIT**2} bytes"),
            (["train", "--hidden-dim", str(10**13)], f"the conv kernel's 3 * hidden_dim**2 float64 values take {24 * 10**26} bytes"),
            (["train", "--batch-size", str(LIMIT)], f"a batch's batch_size int64 video draws take {8 * LIMIT} bytes"),
            (
                ["synth", "--preset", "easy", "--feature-dim", str(LIMIT)],
                f"a video's snippets_max * feature_dim float64 draws take {8 * 60 * LIMIT} bytes",
            ),
            (
                ["synth", "--preset", "easy", "--snippets-max", str(LIMIT)],
                f"a video's snippets_max * feature_dim float64 draws take {8 * LIMIT * 16} bytes",
            ),
            (
                ["synth", "--preset", "easy", "--num-classes", str(LIMIT)],
                f"the prototype distances' (num_classes + 1)**2 * feature_dim float64 values take {8 * (LIMIT + 1) ** 2 * 16} bytes",
            ),
            (
                ["synth", "--preset", "easy", "--segments-max", str(LIMIT)],
                f"the segment draw's segments_max + 1 float64 values take {8 * (LIMIT + 1)} bytes",
            ),
            (
                ["synth", "--preset", "easy", "--videos-per-class", str(LIMIT)],
                "the dataset's num_classes * videos_per_class * snippets_min * feature_dim float32 values take "
                f"{4 * 5 * LIMIT * 40 * 16} bytes",
            ),
        ],
        ids=[
            "hidden-dim", "batch-size", "feature-dim", "hidden-dim-bytes", "hidden-dim-1e13", "batch-size-bytes",
            "feature-dim-bytes", "snippets-max-bytes", "num-classes-bytes", "segments-max-bytes", "videos-per-class-bytes",
        ],
    )
    def test_size_numpy_cannot_index_fails_cleanly(self, tmp_path, capsys, monkeypatch, argv, message):
        if argv[0] == "train":
            argv = [*argv, "--data", make_dataset(str(tmp_path / "ds")), "--iterations", "2"]
        monkeypatch.setattr(synth, "_place_segments", refuse_to_place)  # so that a missed refusal ends at once
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
        if "bytes" in message:
            message += f", more than the {LIMIT} an array can hold"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_dataset_beyond_memory_fails_before_the_first_video(self, tmp_path, capsys, monkeypatch):
        """12.8 PB of features, more than the 128 TiB a process can map: the
        one request for them is refused before any video is made."""
        monkeypatch.setattr(synth, "_place_segments", refuse_to_place)
        assert run_cli("synth", "--preset", "easy", "--videos-per-class", str(10**12), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_unknown_config_key_exit(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"warmup": 10}))
        ds = make_dataset(str(tmp_path / "ds"))
        assert run_cli("train", "--data", ds, "--config", str(cfg), "--out", str(tmp_path / "run")) == 1

    @pytest.mark.parametrize(
        "command, flag, content, message",
        [
            ("train", "--config", {"learning_rate": 10**400}, "train config: learning_rate is out of range"),
            ("train", "--config", {"loss": {"loc_weight": 10**400}}, "train config: loss: loc_weight is out of range"),
            ("synth", "--spec", {"noise_scale": 10**400}, "synth config: noise_scale is out of range"),
        ],
    )
    def test_integer_beyond_the_float_range_fails_cleanly(self, tmp_path, capsys, command, flag, content, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(content))
        out = str(tmp_path / "out")
        argv = [command, flag, str(cfg), "--out", out]
        if command == "train":
            argv += ["--data", make_dataset(str(tmp_path / "ds")), "--iterations", "1", "--hidden-dim", "4"]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_clip_cap_beyond_every_video_trains(self, tmp_path):
        ds = make_dataset(str(tmp_path / "ds"))
        run = str(tmp_path / "run")
        argv = ["--max-clip-len", str(10**12), "--iterations", "2", "--hidden-dim", "4"]
        assert run_cli("train", "--data", ds, *argv, "--out", run) == 0
        assert json.loads(open(os.path.join(run, cli.TRAIN_CONFIG_NAME)).read())["max_clip_len"] == 10**12

    def test_numerical_error_exit(self, tmp_path, monkeypatch):
        ds = make_dataset(str(tmp_path / "ds"))

        def explode(*a, **k):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "run_training", explode)
        assert run_cli("train", "--data", ds, "--out", str(tmp_path / "run")) == 2

    def test_non_finite_gradient_exit(self, tmp_path, monkeypatch, capsys):
        ds = make_dataset(str(tmp_path / "ds"))
        finite_total_loss = trainer.total_loss

        def nan_gradient(*a, **k):
            breakdown, grads = finite_total_loss(*a, **k)
            grads.flat[:] = float("nan")
            return breakdown, grads

        monkeypatch.setattr(trainer, "total_loss", nan_gradient)
        run = str(tmp_path / "run")
        assert run_cli("train", "--data", ds, "--out", run, "--iterations", "1", "--hidden-dim", "8") == 2
        assert "non-finite gradient" in capsys.readouterr().err
        assert not os.path.exists(run)

    def test_gradcheck_failure_exit(self, monkeypatch, capsys):
        def fake_checks(seed=0):
            return [ComponentCheck("broken_component", 0.5, True, 0.01)]

        monkeypatch.setattr(cli.gradcheck_mod, "run_gradient_checks", fake_checks)
        assert run_cli("gradcheck") == 2
        assert "FAIL" in capsys.readouterr().out


class TestEmptyManifest:
    @pytest.fixture
    def trained(self, tmp_path):
        ds = make_dataset(str(tmp_path / "ds"))
        run = str(tmp_path / "run")
        assert run_cli("train", "--data", ds, "--out", run, "--iterations", "2", "--hidden-dim", "8") == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        manifest = json.loads(open(os.path.join(ds, "manifest.json")).read())
        manifest["videos"] = []
        (empty / "manifest.json").write_text(json.dumps(manifest))
        return ds, run, str(empty)

    def test_infer_fails_cleanly(self, trained, tmp_path, capsys):
        _, run, empty = trained
        det = str(tmp_path / "det.jsonl")
        assert run_cli("infer", "--ckpt", run, "--data", empty, "--out", det) == 1
        assert "no videos" in capsys.readouterr().err
        assert not os.path.exists(det)

    def test_train_and_eval_fail_cleanly(self, trained, tmp_path):
        ds, run, empty = trained
        det = str(tmp_path / "det.jsonl")
        assert run_cli("infer", "--ckpt", run, "--data", ds, "--out", det) == 0
        assert run_cli("train", "--data", empty, "--out", str(tmp_path / "run2"), "--iterations", "2") == 1
        out = str(tmp_path / "report.json")
        assert run_cli("eval", "--det", det, "--gt", os.path.join(empty, "manifest.json"), "--out", out) == 1
        assert not os.path.exists(out)


class TestBadInputFiles:
    """A wrong-typed or undecodable manifest or detection file exits 1 without a traceback."""

    @pytest.mark.parametrize(
        "change",
        [
            {"num_classes": "x"},
            {"videos": 5},
            {"labels": 5},
            {"labels": [1.7]},
            {"snippet_duration": None},
            {"num_snippets": "x"},
        ],
    )
    def test_train_on_wrong_typed_manifest(self, tmp_path, capsys, change):
        ds = make_dataset(str(tmp_path / "ds"))
        manifest_path = os.path.join(ds, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        for key, value in change.items():
            (manifest if key in manifest else manifest["videos"][0])[key] = value
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        run = str(tmp_path / "run")
        assert run_cli("train", "--data", ds, "--out", run, "--iterations", "1", "--hidden-dim", "8") == 1
        assert "must be" in capsys.readouterr().err
        assert not os.path.exists(run)

    def test_train_on_undecodable_manifest(self, tmp_path):
        ds = make_dataset(str(tmp_path / "ds"))
        with open(os.path.join(ds, "manifest.json"), "wb") as fh:
            fh.write(b"\xff")
        assert run_cli("train", "--data", ds, "--out", str(tmp_path / "run"), "--iterations", "1") == 1

    def test_eval_on_undecodable_detections(self, tmp_path, capsys):
        ds = make_dataset(str(tmp_path / "ds"))
        det = tmp_path / "det.jsonl"
        det.write_bytes(b"\xff\n")
        out = str(tmp_path / "report.json")
        assert run_cli("eval", "--det", str(det), "--gt", os.path.join(ds, "manifest.json"), "--out", out) == 1
        assert "det.jsonl:1" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestOlderManifest:
    """A manifest that still carries the per-video ``fully_annotated`` flag loads and trains as if it did not."""

    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("older_manifest")
        stripped = make_dataset(str(root / "stripped"))
        manifest = json.loads(open(os.path.join(stripped, "manifest.json")).read())
        assert all("fully_annotated" not in video for video in manifest["videos"])
        flagged = {}
        for value in (True, "no"):
            ds = str(root / f"flagged-{value}")
            shutil.copytree(stripped, ds)
            for video in manifest["videos"]:
                video["fully_annotated"] = value
            with open(os.path.join(ds, "manifest.json"), "w") as fh:
                json.dump(manifest, fh)
            flagged[value] = ds
        return root, stripped, flagged

    @pytest.mark.parametrize("supervision", SUPERVISION_MODES)
    def test_training_bytes_ignore_the_flag(self, datasets, supervision):
        root, stripped, flagged = datasets

        def train(ds):
            run = str(root / f"run-{supervision}-{os.path.basename(ds)}")
            argv = ["--supervision", supervision, "--semi-k", "1", "--iterations", "3", "--hidden-dim", "8"]
            assert run_cli("train", "--data", ds, "--out", run, *argv) == 0
            return [open(os.path.join(run, name), "rb").read() for name in (cli.CHECKPOINT_NAME, cli.METRICS_NAME)]

        expected = train(stripped)
        for ds in flagged.values():
            assert train(ds) == expected


class TestEscapingVideoId:
    def test_train_and_infer_fail_cleanly(self, tmp_path, capsys):
        ds = make_dataset(str(tmp_path / "ds"))
        run = str(tmp_path / "run")
        assert run_cli("train", "--data", ds, "--out", run, "--iterations", "2", "--hidden-dim", "8") == 0
        manifest_path = os.path.join(ds, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        first = manifest["videos"][0]
        os.replace(os.path.join(ds, first["id"] + ".f32"), str(tmp_path / "evil.f32"))
        first["id"] = "../evil"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        run2 = str(tmp_path / "run2")
        assert run_cli("train", "--data", ds, "--out", run2, "--iterations", "2", "--hidden-dim", "8") == 1
        assert not os.path.exists(run2)
        det = str(tmp_path / "det.jsonl")
        assert run_cli("infer", "--ckpt", run, "--data", ds, "--out", det) == 1
        assert not os.path.exists(det)
        assert "'../evil' is not a plain file name" in capsys.readouterr().err


class TestCorruptCheckpoint:
    def test_infer_on_truncated_checkpoint_fails_cleanly(self, tmp_path, capsys):
        ds = make_dataset(str(tmp_path / "ds"))
        run = str(tmp_path / "run")
        assert run_cli("train", "--data", ds, "--out", run, "--iterations", "2", "--hidden-dim", "8") == 0
        ckpt = os.path.join(run, cli.CHECKPOINT_NAME)
        blob = open(ckpt, "rb").read()
        with open(ckpt, "wb") as fh:
            fh.write(blob[:-20])
        det = str(tmp_path / "det.jsonl")
        assert run_cli("infer", "--ckpt", run, "--data", ds, "--out", det) == 1
        assert "truncated" in capsys.readouterr().err
        assert not os.path.exists(det)


class TestInferFollowsTrainingConfig:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        ds = make_dataset(str(root / "ds"))
        run = str(root / "run")
        assert run_cli("train", "--data", ds, "--out", run, "--iterations", "2", "--hidden-dim", "8") == 0
        return ds, run

    def infer_with_sidecar(self, trained, tmp_path, edit):
        ds, run = trained
        copy = str(tmp_path / "run")
        shutil.copytree(run, copy)
        sidecar = os.path.join(copy, cli.TRAIN_CONFIG_NAME)
        config = json.loads(open(sidecar).read())
        edit(config)
        with open(sidecar, "w") as fh:
            json.dump(config, fh)
        det = str(tmp_path / "det.jsonl")
        code = run_cli("infer", "--ckpt", copy, "--data", ds, "--out", det)
        assert os.path.exists(det) == (code == 0)
        return code

    def test_unchanged_sidecar_works(self, trained, tmp_path):
        assert self.infer_with_sidecar(trained, tmp_path, lambda cfg: None) == 0

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cfg: cfg.update(loss=5), "loss must be an object"),
            (lambda cfg: cfg.update(learning_rate=10**400), "learning_rate is out of range"),
            (lambda cfg: cfg["loss"].update(loc_weight=10**400), "loc_weight is out of range"),
            (lambda cfg: cfg.update(gating=[]), "gating must be a string"),
            (lambda cfg: cfg.update(warmup=10), "unknown keys ['warmup']"),
            (lambda cfg: cfg.update(train_localization="none"), "requires the topk_eighth aggregator"),
            (lambda cfg: cfg["loss"].update(aggregator="max"), "aggregator must be one of"),
            (lambda cfg: cfg.update(hidden_dim=16), "hidden_dim 16"),
            (lambda cfg: cfg.clear() or cfg.update(x=1), "unknown keys ['x']"),
        ],
        ids=[
            "loss-number",
            "huge-learning-rate",
            "huge-loc-weight",
            "gating-list",
            "unknown-key",
            "none-with-gated",
            "unknown-aggregator",
            "hidden-dim",
            "only-unknown",
        ],
    )
    def test_bad_sidecar_fails_cleanly(self, trained, tmp_path, capsys, edit, message):
        assert self.infer_with_sidecar(trained, tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_missing_sidecar_fails_cleanly(self, trained, tmp_path, capsys):
        ds, run = trained
        copy = str(tmp_path / "run")
        shutil.copytree(run, copy)
        os.remove(os.path.join(copy, cli.TRAIN_CONFIG_NAME))
        det = str(tmp_path / "det.jsonl")
        assert run_cli("infer", "--ckpt", os.path.join(copy, cli.CHECKPOINT_NAME), "--data", ds, "--out", det) == 1
        err = capsys.readouterr().err
        assert cli.TRAIN_CONFIG_NAME in err and "Traceback" not in err
        assert not os.path.exists(det)

    def test_sidecar_round_trip(self, tmp_path, monkeypatch):
        ds = make_dataset(str(tmp_path / "ds"))
        trained_with = []
        real_run_training = cli.run_training

        def recording(samples, num_classes, config):
            trained_with.append(config)
            return real_run_training(samples, num_classes, config)

        monkeypatch.setattr(cli, "run_training", recording)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"beta1": 0.8, "dropout": 0, "loss": {"background_weight": 1, "loc_weight": 0.5}}))
        run = str(tmp_path / "run")
        flags = ["--train-localization", "manual", "--gating", "softsign", "--reg-form", "l1", "--supervision", "semi"]
        flags += ["--semi-k", "1", "--iterations", "2", "--hidden-dim", "8", "--clas-weight", "0.4"]
        assert run_cli("train", "--data", ds, "--config", str(cfg), "--out", run, *flags) == 0
        sidecar = json.loads(open(os.path.join(run, cli.TRAIN_CONFIG_NAME)).read())
        assert cli.build_train_config(sidecar, {}, {}) == trained_with[0]
        assert trained_with[0].train_localization == "manual" and trained_with[0].loss.background_weight == 1


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert run_cli("gradcheck") == 0
        out = capsys.readouterr().out
        assert "surrogate" in out  # binarize gate reported, not enforced
        assert "FAIL" not in out
        components = out.splitlines()[:-1]
        assert len(components) > 40
        assert all(re.search(r"\] +\d+\.\d{3} s$", line) for line in components)  # each check's elapsed time

    def test_sign_flip_bug_is_caught(self, monkeypatch):
        # negative control: corrupt one analytic gradient and expect detection
        from ttcloc import gradcheck as gc
        from ttcloc import network

        true_backward = network.backward

        def flipped(cache, d_scores, d_thresholds):
            bundle = true_backward(cache, d_scores, d_thresholds)
            bundle.w1 *= -1.0
            return bundle

        monkeypatch.setattr(network, "backward", flipped)
        assert gc.check_network_backward(seed=0) > 1e-5


class TestAblateCommand:
    def test_grid_shape_and_determinism(self, tmp_path):
        args = [
            "ablate",
            "--preset",
            "medium",
            "--seeds",
            "1",
            "--iterations",
            "4",
            "--hidden-dim",
            "8",
            "--videos-per-class",
            "2",
        ]
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        a = open(tmp_path / "a" / "ablation.csv", "rb").read()
        b = open(tmp_path / "b" / "ablation.csv", "rb").read()
        assert a == b
        lines = a.decode().strip().split("\n")
        assert len(lines) == 1 + 20  # header + (4*2 + 3 + 4 + 3 + 2) cells x 1 seed
        assert lines[0].split(",")[0] == "group"
        groups = {line.split(",")[0] for line in lines[1:]}
        assert groups == {"threshold_strategy", "gating", "regularizer", "training_strategy", "aggregator"}

    def test_lambda_sweep_adds_rows(self, tmp_path):
        assert (
            run_cli(
                "ablate",
                "--preset",
                "medium",
                "--seeds",
                "1",
                "--iterations",
                "2",
                "--hidden-dim",
                "8",
                "--videos-per-class",
                "2",
                "--lambda-sweep",
                "--out",
                str(tmp_path / "s"),
            )
            == 0
        )
        lines = open(tmp_path / "s" / "ablation.csv").read().strip().split("\n")
        assert len(lines) == 1 + 20 + 9
        assert sum(1 for line in lines if line.startswith("lambda_sweep")) == 9

    @pytest.mark.parametrize("iou", ["0.5,0.5", "0.5,0.5000001"])
    def test_thresholds_with_one_label_rejected_before_training(self, tmp_path, capsys, monkeypatch, iou):
        trained = []
        monkeypatch.setattr(cli, "run_training", lambda *args: trained.append(args))
        code = run_cli("ablate", "--iou", iou, "--iterations", "1", "--hidden-dim", "4", "--out", str(tmp_path / "a"))
        assert code == 1 and trained == []
        assert "share report labels" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seed_count_below_one_rejected(self, tmp_path, seeds, capsys):
        # a run with no seeds would write a CSV holding only its header
        code = run_cli("ablate", "--seeds", seeds, "--iterations", "1", "--hidden-dim", "4", "--out", str(tmp_path / "a"))
        assert code == 1
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()


def subcommand_parser(command: str) -> argparse.ArgumentParser:
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def hints(cls) -> dict:
    return {name: kind for name, kind in typing.get_type_hints(cls).items() if name != "loss"}


# every config field of each subcommand, with its type
FIELDS = {
    "synth": hints(SynthSpec),
    "train": {**hints(TrainConfig), **hints(LossConfig)},
    "ablate": {"preset": str, "seeds": int, "iterations": int, "hidden_dim": int, "videos_per_class": int, "iou": str, "lambda_sweep": bool},
}
# the flags that are not config fields: files, and the preset synth starts from
OTHER_FLAGS = {"synth": {"preset", "spec", "out"}, "train": {"data", "config", "out"}, "ablate": {"config", "out"}}
# the choices of each string field: the tuples its config checks when built
CHOICES = {
    "gating": network.GATING_KINDS,
    "supervision": SUPERVISION_MODES,
    "strategy": STRATEGIES,
    "train_localization": TRAIN_LOCALIZATION,
    "reg_form": REG_FORMS,
    "aggregator": AGGREGATORS,
    "preset": tuple(sorted(PRESETS)),
}


def edited(config: TrainConfig, name: str, value) -> TrainConfig:
    if name in hints(LossConfig):
        return dataclasses.replace(config, loss=dataclasses.replace(config.loss, **{name: value}))
    return dataclasses.replace(config, **{name: value})


class StopBeforeTraining(Exception):
    pass


def resolved_train_config(monkeypatch, *argv) -> TrainConfig:
    """The config that ``train`` with ``argv`` would train with; nothing is trained."""
    seen = []

    def stop(samples, num_classes, config):
        seen.append(config)
        raise StopBeforeTraining

    monkeypatch.setattr(cli, "run_training", stop)
    with pytest.raises(StopBeforeTraining):
        run_cli("train", *argv)
    return seen[0]


class TestFieldFlags:
    """Each config field has exactly one flag of its type, and no flag sets anything else."""

    @pytest.mark.parametrize("command", sorted(FIELDS))
    def test_one_flag_per_field(self, command):
        actions = [a for a in subcommand_parser(command)._actions if a.dest != "help"]
        assert sorted(a.dest for a in actions) == sorted({*FIELDS[command], *OTHER_FLAGS[command]})
        for action in actions:
            if action.dest in OTHER_FLAGS[command]:
                continue
            kind = FIELDS[command][action.dest]
            kind = next((k for k in typing.get_args(kind) if k is not type(None)), kind)
            assert action.option_strings == ["--" + action.dest.replace("_", "-")]
            assert action.default is None
            if kind is bool:
                assert isinstance(action, argparse._StoreTrueAction)
            else:
                assert action.type is kind
            assert (tuple(action.choices) if action.choices else None) == CHOICES.get(action.dest)

    @pytest.mark.parametrize("name", [n for n in CHOICES if n != "preset"])
    def test_choices_are_what_the_config_checks(self, name):
        config = TrainConfig(loss=LossConfig(aggregator="topk_eighth"))  # the one aggregator every rule accepts
        for value in CHOICES[name]:
            edited(config, name, value)
        with pytest.raises(ValidationError, match=name):
            edited(config, name, "bogus")

    def test_adam_fields_are_flags(self, tmp_path, monkeypatch):
        ds = make_dataset(str(tmp_path / "ds"))
        flags = ["--beta1", "0.8", "--beta2", "0.99", "--adam-eps", "1e-6"]
        config = resolved_train_config(monkeypatch, "--data", ds, "--out", str(tmp_path / "run"), *flags)
        assert (config.beta1, config.beta2, config.adam_eps) == (0.8, 0.99, 1e-6)

    def test_ablate_rejects_name(self, tmp_path, capsys):
        cfg = tmp_path / "ablate.json"
        cfg.write_text(json.dumps({"name": "x"}))
        assert run_cli("ablate", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
        assert "unknown keys ['name']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            run_cli("ablate", "--name", "x", "--out", str(tmp_path / "out"))
        assert info.value.code == 1
        assert not os.path.exists(tmp_path / "out")


def load_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


SIDECAR_DEFAULTS = {
    "adam_eps": 1e-08,
    "batch_size": 10,
    "beta1": 0.9,
    "beta2": 0.999,
    "dropout": 0.7,
    "gating": "sigmoid",
    "hidden_dim": 2048,
    "iterations": 2000,
    "learning_rate": 0.0001,
    "loss": {"aggregator": "gated", "background_weight": None, "clas_weight": 0.2, "loc_weight": 3.0, "reg_form": "inner_product"},
    "max_clip_len": 320,
    "seed": 0,
    "semi_k": 0,
    "strategy": "joint",
    "supervision": "weak",
    "train_localization": "predicted",
}
SEMI = {"supervision": "semi", "semi_k": 1}
# train_config.json that each benchmark workload's train flags write at seed 0
WORKLOAD_SIDECARS = {
    "accept-medium": {**SIDECAR_DEFAULTS, **SEMI, "hidden_dim": 128, "max_clip_len": 64, "learning_rate": 0.001, "iterations": 300},
    "long-videos": {**SIDECAR_DEFAULTS, **SEMI, "hidden_dim": 64, "max_clip_len": 64, "learning_rate": 0.001, "iterations": 150},
    "paper-scale": {**SIDECAR_DEFAULTS, **SEMI, "iterations": 4},
}


class TestWorkloadArgv:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_SIDECARS))
    def test_train_flags_resolve_to_the_same_config(self, name, tmp_path, monkeypatch):
        wl = load_workloads()[name]
        ds = make_dataset(str(tmp_path / "ds"))
        argv = ["--data", ds, "--out", str(tmp_path / "run"), "--iterations", str(wl.iterations), "--seed", "0", *wl.train]
        written = json.dumps(dataclasses.asdict(resolved_train_config(monkeypatch, *argv)), indent=2, sort_keys=True)
        assert written == json.dumps(WORKLOAD_SIDECARS[name], indent=2, sort_keys=True)


# (key, value) set on the first video: each a well-typed manifest with an impossible value
BAD_MANIFEST_VALUES = [
    ("labels", [99]),
    ("labels", []),
    ("snippet_duration", -1),
    ("num_snippets", -3),
    ("segments", [{"class_id": 0, "start": 5.0, "end": 1.0}]),
]


class TestBadManifestValues:
    @pytest.mark.parametrize("key, value", BAD_MANIFEST_VALUES, ids=[f"{k}={v}" for k, v in BAD_MANIFEST_VALUES])
    def test_eval_fails_cleanly(self, tmp_path, capsys, key, value):
        ds = make_dataset(str(tmp_path / "ds"))
        manifest_path = os.path.join(ds, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        manifest["videos"][0][key] = value
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        det = tmp_path / "det.jsonl"
        det.write_text("")
        out = str(tmp_path / "report.json")
        assert run_cli("eval", "--det", str(det), "--gt", manifest_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert "error: video 'v00_000'" in err and "Traceback" not in err
        assert not os.path.exists(out)
