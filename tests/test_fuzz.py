"""Property tests: arbitrary config values, IoU specs, sidecar bytes, manifests,
detection files and checkpoints fail only with ValidationError, arbitrary
command lines only parse or exit 0 or 1, whole runs of drawn command lines
exit 0, 1 or 2, and the batched objective matches the per-clip reference
bit for bit on arbitrary batches.

Hypothesis runs derandomized and without an example database, so every run
draws the same bounded set of examples.
"""

import argparse
import dataclasses
import json
import math
import os
import shutil
import tempfile
from unittest import mock

import numpy as np

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from ttcloc import cli, gradcheck, network
from ttcloc.data import load_manifest
from ttcloc.errors import ValidationError
from ttcloc.localizer import Detection, load_detections
from ttcloc.network import NetworkParams, init_params, load_params, save_params
from ttcloc.objectives import AGGREGATORS, REG_FORMS, TRAIN_LOCALIZATION, LossConfig
from ttcloc.synth import PRESETS, SynthSpec
from ttcloc.trainer import STRATEGIES, SUPERVISION_MODES, TrainConfig

from test_cli import make_dataset, run_cli
from test_objectives import OBJECTIVE_VARIANTS, assert_matches_reference, jittered_params, ragged_batch

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
    | st.sampled_from([10**400, -(10**400)])  # beyond the float range
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
@example({"learning_rate": 10**400})
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
@example(None, {"noise_scale": 10**400})
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
@example(blob=b'{"hidden_dim": 8, "adam_eps": 1' + b"0" * 400 + b"}")
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


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return str(tmp_path_factory.mktemp("files"))


def write_bytes(directory: str, name: str, blob: bytes) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


DET_KEYS = ("video_id", "class_id", "start_s", "end_s", "score")
det_values = json_values | st.sampled_from(["v1", "v00_000", 0, 1, 0.0, 0.5, 1.0, 10**400, "NaN"])
det_records = st.dictionaries(st.sampled_from(DET_KEYS) | st.text(max_size=4), det_values, max_size=6) | st.fixed_dictionaries(
    {k: det_values for k in DET_KEYS}
)
det_lines = det_records.map(json.dumps) | st.text(max_size=20) | st.sampled_from(["", "  ", "[" * 5000, "NaN", "{}"])


def spliced(lines, sep, junk, at):
    """Lines joined by ``sep``, with the bytes ``junk`` inserted at offset ``at``."""
    blob = sep.join(line.encode() for line in lines)
    return blob[:at] + junk + blob[at:]


det_files = st.binary(max_size=120) | st.builds(
    spliced,
    st.lists(det_lines, max_size=4),
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
    st.binary(max_size=3),
    st.integers(0, 400),
)


@FUZZ
@given(det_files)
@example(b"\xff\n")
@example(b'{"video_id": "v1", "class_id": true, "start_s": 0, "end_s": 1, "score": 0.5}')
@example(b"[" * 100000)
def test_load_detections_on_arbitrary_bytes(scratch, blob):
    try:
        detections = load_detections(write_bytes(scratch, "det.jsonl", blob))
    except ValidationError:
        return
    for det in detections:
        assert type(det) is Detection and type(det.video_id) is str and type(det.class_id) is int
        assert all(type(x) in (int, float) and math.isfinite(x) for x in (det.start, det.end, det.score))


BASE_MANIFEST = {
    "num_classes": 2,
    "class_names": ["a", "b"],
    "videos": [
        {
            "id": "v1",
            "num_snippets": 4,
            "feature_dim": 2,
            "labels": [0],
            "snippet_duration": 0.64,
            "fully_annotated": True,  # an older manifest's key, accepted and ignored
            "segments": [{"class_id": 0, "start": 0.0, "end": 1.0}],
        }
    ],
}


def key_paths(obj, prefix=()):
    """Every key path into a JSON value, the empty path included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from key_paths(value, prefix + (key,))


def mutated(path_and_value) -> bytes:
    path, value = path_and_value
    obj = json.loads(json.dumps(BASE_MANIFEST))
    if not path:
        return json.dumps(value).encode()
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(obj).encode()


manifest_files = st.binary(max_size=120) | st.tuples(
    st.sampled_from(list(key_paths(BASE_MANIFEST))), json_values | st.sampled_from([10**400, -1, 0, 2.5])
).map(mutated)


@FUZZ
@given(manifest_files)
@example(b"\xff")
@example(b'{"num_classes": "x", "class_names": [], "videos": []}')
def test_load_manifest_on_arbitrary_bytes(scratch, blob):
    try:
        manifest = load_manifest(write_bytes(scratch, "manifest.json", blob))
    except ValidationError:
        return
    assert type(manifest.num_classes) is int and all(type(n) is str for n in manifest.class_names)
    for record in manifest.records:
        assert type(record.num_snippets) is int and type(record.snippet_duration) is float
        assert all(type(c) is int for c in record.labels)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval_fuzz")
    return make_dataset(str(root / "ds")), str(root)


@settings(FUZZ, max_examples=100)
@given(det=det_files | st.sampled_from([b""]), manifest=st.none() | manifest_files)
@example(det=b"\xff\n", manifest=None)
@example(det=b'{"video_id": "v00_000", "class_id": 0, "start_s": 0.0, "end_s": 1.0, "score": 0.5}\n', manifest=None)
@example(det=b'{"video_id": "v1", "class_id": 0, "start_s": 0.0, "end_s": 1.0, "score": 0.5}\n', manifest=b"\xff")
def test_eval_on_arbitrary_bytes(dataset, det, manifest):
    """``ttcloc eval`` exits 0 or 1, and 1 whenever the detection file is invalid."""
    ds, root = dataset
    gt = os.path.join(ds, "manifest.json") if manifest is None else write_bytes(root, "manifest.json", manifest)
    det_path = write_bytes(root, "det.jsonl", det)
    out = os.path.join(root, "report.json")
    if os.path.exists(out):
        os.remove(out)
    code = run_cli("eval", "--det", det_path, "--gt", gt, "--out", out)
    assert code in (0, 1)
    assert os.path.exists(out) == (code == 0)
    try:
        load_detections(det_path)
    except ValidationError:
        assert code == 1


@pytest.fixture(scope="module")
def checkpoint_bytes(scratch):
    path = os.path.join(scratch, "valid.ttck")
    save_params(init_params(np.random.default_rng(0), 2, 3, 2), path)
    return open(path, "rb").read()


def edited(blob: bytes, cut: int, changes: list[tuple[int, int]]) -> bytes:
    """``blob`` cut to ``cut`` bytes, then with each ``(offset, byte)`` written in."""
    out = bytearray(blob[:cut])
    for offset, byte in changes:
        if offset < len(out):
            out[offset] = byte
    return bytes(out)


@FUZZ
@given(
    blob=st.binary(max_size=200) | st.builds(lambda tail: b"TTCK" + tail, st.binary(max_size=200)),
    cut=st.integers(0, 600),  # the valid checkpoint holds 506 bytes
    changes=st.lists(st.tuples(st.integers(0, 600), st.integers(0, 255)), max_size=3),
    from_valid=st.booleans(),
)
@example(blob=b"", cut=600, changes=[], from_valid=True)
@example(blob=b"", cut=12, changes=[], from_valid=True)
@example(blob=b"", cut=600, changes=[(12, 0)], from_valid=True)
def test_load_params_on_arbitrary_bytes(scratch, checkpoint_bytes, blob, cut, changes, from_valid):
    source = checkpoint_bytes if from_valid else blob
    path = write_bytes(scratch, "fuzz.ttck", edited(source, cut, changes))
    try:
        params = load_params(path)
    except ValidationError:
        return
    assert type(params) is NetworkParams and params.flat.dtype == np.float64


def parser_subcommands(parser) -> dict:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def parser_tokens():
    """Every flag and subcommand name of the real parser, and values for them."""
    parser = cli.build_parser()
    subcommands = parser_subcommands(parser)
    tokens = set(subcommands)
    for p in (parser, *subcommands.values()):
        for action in p._actions:
            tokens.update(action.option_strings)
            tokens.update(action.choices or ())
    return sorted(tokens) + ["0", "1", "-1", "0.5", "1e-3", "nan", "x", "out", "--", "-", "=", "--seed=2"]


@settings(FUZZ, max_examples=500)
@given(st.lists(st.sampled_from(parser_tokens()) | st.text(max_size=8), max_size=10))
@example(["train", "--beta1", "0.5", "--adam-eps"])
@example(["ablate", "--name", "x", "--out", "o"])
@example(["synth", "-h"])
def test_parse_args_on_token_lists(tokens):
    try:
        cli.build_parser().parse_args(tokens)
    except SystemExit as exc:
        assert exc.code in (0, 1)


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    """Files a command line can name: a dataset, a trained run, detections and config files."""
    root = tmp_path_factory.mktemp("cli_runs")
    ds = make_dataset(str(root / "ds"))
    run = str(root / "run")
    assert run_cli("train", "--data", ds, "--out", run, "--iterations", "1", "--hidden-dim", "4") == 0
    assert run_cli("infer", "--ckpt", run, "--data", ds, "--out", str(root / "det.jsonl")) == 0
    configs = {
        "train.json": {"iterations": 1, "batch_size": 2, "loss": {"aggregator": "topk_eighth"}},
        "spec.json": {"num_classes": 2, "videos_per_class": 1, "feature_dim": 4},
        "ablate.json": {"seeds": 1, "videos_per_class": 1, "lambda_sweep": True},
        "list.json": [1],
    }
    for name, obj in configs.items():
        with open(root / name, "w") as fh:
            json.dump(obj, fh)
    return str(root)


SUBCOMMANDS = parser_subcommands(cli.build_parser())
# paths under the fixture's directory and, for outputs, under a fresh directory per example
INPUTS = [f"{{root}}/{name}" for name in ("ds", "ds/manifest.json", "run", "run/checkpoint.ttck", "det.jsonl", "missing")]
INPUTS += [f"{{root}}/{name}" for name in ("train.json", "spec.json", "ablate.json", "list.json")]
OUTPUTS = ["{out}/o", "{out}/o/report.json", "{out}"]
INPUT_FLAGS = {"data", "ckpt", "det", "gt", "spec", "config"}


def flag_values(action):
    """Values that fit one flag, from its choices or its type."""
    if action.dest == "out":
        return st.sampled_from(OUTPUTS)
    if action.dest in INPUT_FLAGS:
        return st.sampled_from(INPUTS)
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.sampled_from(["1", "2", "3", "0", "-1"])
    if action.type is float:
        return st.sampled_from(["0.5", "1", "2", "1e-3", "0", "-1", "nan", "inf"])
    return st.sampled_from(["0.5", "0.3:0.7:0.1", "0.1,0.9", "0:1:0", "nan"])  # --iou


@st.composite
def command_lines(draw):
    """A subcommand and flags drawn from the parser's own actions, with values that fit them or not.

    Hypothesis draws the first choice of each ``sampled_from`` and the
    smallest integer most often, so those are the ones that give a run:
    flags other than ``--help``, required flags present, fitting values.
    """
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    actions = sorted((a for a in SUBCOMMANDS[name]._actions if a.option_strings), key=lambda a: a.dest == "help")
    chosen = draw(st.lists(st.sampled_from(actions), max_size=6))
    if not draw(st.booleans()):
        chosen += [a for a in actions if a.required and a not in chosen]
    argv = [name]
    for action in chosen:
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs == 0:
            continue
        # now and then the value is any short text (never for --out) or is left out
        kind = draw(st.integers(0, 9))
        if kind < 8:
            argv.append(draw(flag_values(action)))
        elif kind == 8 and action.dest != "out":
            argv.append(draw(st.text(max_size=4)))
    if any("--iterations" in a.option_strings for a in actions):  # the last value of a flag wins
        argv += ["--iterations", "2", "--hidden-dim", "4"]
    return argv


def one_gradient_check(seed=0):
    """The first check of the gradient sweep: the full sweep takes seconds, and its flags are what is fuzzed."""
    return [gradcheck.ComponentCheck("network_backward", gradcheck.check_network_backward(seed), True, 0.0)]


@settings(FUZZ, max_examples=200)
@given(argv=command_lines())
@example(argv=["synth", "--amplitude-max", "inf", "--out", "{out}/o"])
@example(argv=["eval", "--det", "{root}/missing", "--gt", "{root}/ds", "--out", "{out}/o"])
@example(argv=["eval", "--det", "{root}/det.jsonl", "--gt", "{root}/ds/manifest.json", "--out", "{out}/o/report.json"])
@example(argv=["train", "--data", "{root}/ds", "--learning-rate", "inf", "--out", "{out}", "--iterations", "2", "--hidden-dim", "4"])
def test_main_on_drawn_command_lines(cli_root, argv):
    """A whole ``ttcloc`` run exits 0, 1 or 2, and raises nothing else."""
    out = tempfile.mkdtemp(dir=cli_root)
    try:
        with mock.patch.object(cli.gradcheck_mod, "run_gradient_checks", one_gradient_check):
            code = cli.main([token.replace("{root}", cli_root).replace("{out}", out) for token in argv])
    except SystemExit as exc:  # argparse: 0 after --help, 1 for a usage error
        code = exc.code
    finally:
        shutil.rmtree(out)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)


@settings(FUZZ, max_examples=150)
@given(
    lengths=st.lists(st.integers(1, 80), min_size=1, max_size=6),
    num_classes=st.integers(1, 6),
    variant=st.sampled_from(OBJECTIVE_VARIANTS),
    clas_weight=st.sampled_from([0.0, 0.2, 1.0]),
    scale=st.sampled_from([0.5, 1.0, 4.0]),
    masks=st.sampled_from(["none", "bool", "float"]),
    seed=st.integers(0, 2**16),
)
@example(lengths=[64, 57, 65, 7], num_classes=3, variant=("sigmoid", "topk_eighth", "predicted", "cosine", True),
         clas_weight=0.2, scale=1.0, masks="bool", seed=0)
def test_batched_objective_matches_per_clip_reference(lengths, num_classes, variant, clas_weight, scale, masks, seed):
    gating, aggregator, rule, reg_form, with_loc = variant
    rng = np.random.default_rng(seed)
    params = jittered_params(rng, 3, 5, num_classes)
    params.flat *= scale
    clips = ragged_batch(rng, lengths, num_classes=num_classes, flagged=with_loc)
    config = LossConfig(clas_weight=clas_weight, loc_weight=1.5 if with_loc else 0.0, reg_form=reg_form, aggregator=aggregator)
    keep = None
    if masks != "none":
        keep = [rng.uniform(size=(t, 5)) >= 0.3 for t in lengths]
        keep = keep if masks == "bool" else [m.astype(np.float64) for m in keep]
    assert_matches_reference(params, clips, config, gating, rule, keep, drop_rate=0.3)
