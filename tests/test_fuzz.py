"""Property tests: arbitrary config values, IoU specs and sidecar bytes fail only with ValidationError.

Hypothesis runs derandomized and without an example database, so every run
draws the same bounded set of examples.
"""

import dataclasses
import json
import math
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ttcloc import cli, network
from ttcloc.errors import ValidationError
from ttcloc.objectives import AGGREGATORS, REG_FORMS, TRAIN_LOCALIZATION, LossConfig
from ttcloc.synth import PRESETS, SynthSpec
from ttcloc.trainer import STRATEGIES, SUPERVISION_MODES, TrainConfig

from test_cli import make_dataset, run_cli

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = (*network.GATING_KINDS, *TRAIN_LOCALIZATION, *AGGREGATORS, *REG_FORMS, *STRATEGIES, *SUPERVISION_MODES)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-2, 2)
    | st.floats()
    | st.floats(-2.0, 2.0)
    | st.text(max_size=6)
    | st.sampled_from(NAMES)
)
json_values = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6
)


def config_dicts(cls, values=json_values):
    keys = st.sampled_from([f.name for f in dataclasses.fields(cls)]) | st.text(max_size=6)
    return st.dictionaries(keys, values, max_size=5)


train_dicts = config_dicts(TrainConfig, json_values | config_dicts(LossConfig))


@FUZZ
@given(train_dicts)
@example({"loss": 5})
@example({"gating": []})
@example({"train_localization": "none"})
def test_build_train_config(file_cfg):
    try:
        config = cli.build_train_config(file_cfg, {}, {})
    except ValidationError:
        return
    # an accepted config survives the sidecar's JSON round trip unchanged
    sidecar = json.loads(json.dumps(dataclasses.asdict(config)))
    assert cli.build_train_config(sidecar, {}, {}) == config


@FUZZ
@given(st.none() | st.sampled_from(sorted(PRESETS)), config_dicts(SynthSpec))
@example(None, {"num_classes": "x"})
def test_build_synth_spec(preset, file_cfg):
    try:
        spec = cli.build_synth_spec(preset, file_cfg, {})
    except ValidationError:
        return
    assert isinstance(spec, SynthSpec)


numbers = st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.integers(-5, 5).map(str)


@FUZZ
@given(
    st.text(max_size=20)
    | st.builds(":".join, st.lists(numbers, min_size=1, max_size=4))
    | st.builds(",".join, st.lists(numbers, min_size=1, max_size=4))
)
@example("nan,0.5")
@example(f"0:{cli.IOU_MAX_THRESHOLDS}:1")
def test_parse_iou_spec(text):
    # ranges that never end are tried in a child process by test_cli.py, which
    # a parser that loops forever cannot hang
    try:
        values = cli.parse_iou_spec(text)
    except ValidationError:
        return
    assert len(values) <= cli.IOU_MAX_THRESHOLDS
    assert all(math.isfinite(v) for v in values)


HIDDEN = 8


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ds = make_dataset(str(root / "ds"))
    run = str(root / "run")
    assert run_cli("train", "--data", ds, "--out", run, "--iterations", "1", "--hidden-dim", str(HIDDEN)) == 0
    return ds, run, str(root)


sidecar_bytes = (
    st.binary(max_size=64)
    | train_dicts.map(lambda d: json.dumps(d).encode())
    | st.dictionaries(st.sampled_from(["hidden_dim", "loss", "gating", "train_localization"]), json_values, max_size=3).map(
        lambda d: json.dumps({**d, "hidden_dim": d.get("hidden_dim", HIDDEN)}).encode()
    )
)


def expected_exit(blob: bytes) -> int:
    """1 unless the bytes are a valid train config for the trained checkpoint."""
    try:
        obj = json.loads(blob.decode("utf-8"))
        config = cli.build_train_config(obj, {}, {}) if isinstance(obj, dict) else None
    except (ValueError, RecursionError, ValidationError):
        return 1
    return 0 if config is not None and config.hidden_dim == HIDDEN else 1


@settings(FUZZ, max_examples=60)
@given(blob=sidecar_bytes)
@example(blob=b'{"loss": 5}')
@example(blob=b"\xff\xfe{}")
@example(blob=b"[" * 100000)
@example(blob=b'{"hidden_dim": 8}')
def test_infer_on_arbitrary_sidecar(trained, blob):
    ds, run, root = trained
    sidecar = os.path.join(run, cli.TRAIN_CONFIG_NAME)
    original = open(sidecar, "rb").read()
    det = os.path.join(root, "det.jsonl")
    expected = expected_exit(blob)
    try:
        with open(sidecar, "wb") as fh:
            fh.write(blob)
        assert run_cli("infer", "--ckpt", run, "--data", ds, "--out", det) == expected
        assert os.path.exists(det) == (expected == 0)
    finally:
        with open(sidecar, "wb") as fh:
            fh.write(original)
        if os.path.exists(det):
            os.remove(det)
