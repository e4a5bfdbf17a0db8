"""One JSON type rule for every file ttcloc reads: config files, manifests and detection files.

A bool is never an integer, an integer counts as a number, and null is
accepted only where a field's type allows ``None``.  Configs and manifests
go through one reader, which the differential tests below compare with the
two walkers it replaced.
"""

import copy
import dataclasses
import json
import sys
import typing
from types import UnionType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttcloc import cli
from ttcloc.data import DatasetManifest, GroundTruthSegment, VideoRecord, load_manifest
from ttcloc.errors import ValidationError, json_types, read_object, type_error
from ttcloc.localizer import load_detections
from ttcloc.network import GATING_KINDS
from ttcloc.objectives import AGGREGATORS, REG_FORMS, TRAIN_LOCALIZATION, LossConfig
from ttcloc.synth import PRESETS, SynthSpec, preset_spec
from ttcloc.trainer import STRATEGIES, SUPERVISION_MODES, TrainConfig

MANIFEST = {
    "num_classes": 1,
    "class_names": ["a"],
    "videos": [
        {
            "id": "v1",
            "num_snippets": 4,
            "feature_dim": 2,
            "labels": [0],
            "snippet_duration": 1.0,
            "segments": [{"class_id": 0, "start": 0.0, "end": 1.0}],
        }
    ],
}
DETECTION = {"video_id": "v1", "class_id": 0, "start_s": 0.0, "end_s": 1.0, "score": 0.5}


def with_value(base: dict, key_path: tuple, value) -> dict:
    obj = json.loads(json.dumps(base))
    target = obj
    for key in key_path[:-1]:
        target = target[key]
    target[key_path[-1]] = value
    return obj


def load_train_config(tmp_path, key_path, value):
    return cli.build_train_config(with_value({"loss": {}}, key_path, value), {}, {})


def load_synth_spec(tmp_path, key_path, value):
    return cli.build_synth_spec(None, with_value({}, key_path, value), {})


def load_manifest_file(tmp_path, key_path, value):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(with_value(MANIFEST, key_path, value)))
    return load_manifest(str(path))


def load_detection_file(tmp_path, key_path, value):
    path = tmp_path / "det.jsonl"
    path.write_text(json.dumps(with_value(DETECTION, key_path, value)) + "\n")
    return load_detections(str(path))


LOADERS = {
    "train config": load_train_config,
    "synth spec": load_synth_spec,
    "manifest": load_manifest_file,
    "detections": load_detection_file,
}

# (loader, key path, value, accepted)
CASES = [
    # True where an integer goes
    ("train config", ("hidden_dim",), True, False),
    ("synth spec", ("seed",), True, False),
    ("manifest", ("videos", 0, "num_snippets"), True, False),
    ("manifest", ("videos", 0, "labels"), [True], False),
    ("manifest", ("videos", 0, "segments", 0, "class_id"), True, False),
    ("detections", ("class_id",), True, False),
    # 2 where a number goes
    ("train config", ("learning_rate",), 2, True),
    ("train config", ("loss", "loc_weight"), 2, True),
    ("synth spec", ("noise_scale",), 2, True),
    ("manifest", ("videos", 0, "snippet_duration"), 2, True),
    ("manifest", ("videos", 0, "segments", 0, "end"), 2, True),
    ("detections", ("end_s",), 2, True),
    ("detections", ("score",), 2, True),
    # null only under `| None`
    ("train config", ("learning_rate",), None, False),
    ("train config", ("loss", "background_weight"), None, True),
    ("synth spec", ("noise_scale",), None, False),
    ("manifest", ("num_classes",), None, False),
    ("manifest", ("videos", 0, "snippet_duration"), None, False),
    ("detections", ("score",), None, False),
    ("detections", ("video_id",), None, False),
    # a string is neither an integer nor a number
    ("train config", ("hidden_dim",), "1", False),
    ("train config", ("loss", "loc_weight"), "1", False),
    ("synth spec", ("num_classes",), "1", False),
    ("manifest", ("videos", 0, "feature_dim"), "1", False),
    ("manifest", ("videos", 0, "snippet_duration"), "1", False),
    ("detections", ("class_id",), "1", False),
    ("detections", ("start_s",), "1", False),
]


@pytest.mark.parametrize(
    "loader, key_path, value, accepted",
    CASES,
    ids=[f"{loader}:{'.'.join(map(str, path))}={value!r}" for loader, path, value, _ in CASES],
)
def test_every_loader_applies_the_rule(tmp_path, loader, key_path, value, accepted):
    if accepted:
        LOADERS[loader](tmp_path, key_path, value)
        return
    with pytest.raises(ValidationError, match="must be"):
        LOADERS[loader](tmp_path, key_path, value)


@pytest.mark.parametrize(
    "annotation, kinds, message",
    [
        (int, (int,), "x must be an integer, got True"),
        (float, (float, int), "x must be a number, got True"),
        (float | None, (float, type(None), int), "x must be a number or null, got True"),
        (str, (str,), "x must be a string, got True"),
        (bool, (bool,), "x must be a bool, got True"),
    ],
)
def test_accepted_types_and_message(annotation, kinds, message):
    assert json_types(annotation) == kinds
    assert str(type_error("x", kinds, True)) == message


# ---------------------------------------------------------------------------
# The one reader against the two walkers it replaced.  The references below
# are the config check and the manifest helpers as they were, with their own
# copy of the type rule, so that they do not run the code under test.  They
# accept the same inputs as the reader apart from the intended changes:
#   1. an integer beyond the float range in a config number field is
#      rejected (the config walker passed it on, to fail later or never);
#   2. config number fields hold floats (the config walker kept integers);
#   3. unknown keys are rejected at a manifest's top level and in its
#      segments (the manifest walker ignored them there);
#   4. messages are worded differently, so only outcomes are compared.


def ref_kinds(annotation) -> tuple:
    kinds = typing.get_args(annotation) if isinstance(annotation, UnionType) else (annotation,)
    return kinds + (int,) if float in kinds else kinds


def ref_check_config(data: dict, types: dict, context: str) -> None:
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValidationError(f"{context}: unknown keys {unknown}")
    for key, value in data.items():
        if type(value) not in ref_kinds(types[key]):
            raise ValidationError(f"{context}: {key} has the wrong type")


def ref_build_train_config(file_cfg: dict) -> TrainConfig:
    file_cfg = dict(file_cfg)
    loss_cfg = file_cfg.pop("loss", {})
    ref_check_config(file_cfg, typing.get_type_hints(TrainConfig), "train config")
    if not isinstance(loss_cfg, dict):
        raise ValidationError("train config: 'loss' must be an object")
    ref_check_config(loss_cfg, typing.get_type_hints(LossConfig), "train config loss")
    config = TrainConfig(**file_cfg, loss=LossConfig(**loss_cfg))
    config.validate()
    return config


def ref_build_synth_spec(preset, file_cfg: dict) -> SynthSpec:
    ref_check_config(file_cfg, typing.get_type_hints(SynthSpec), "synth config")
    spec = dataclasses.replace(preset_spec(preset) if preset else SynthSpec(), **file_cfg)
    spec.validate()
    return spec


_INTEGER, _NUMBER, _STRING, _LIST = (ref_kinds(t) for t in (int, float, str, list))


def ref_typed(obj: dict, key: str, kinds: tuple, context: str):
    value = obj[key]
    if type(value) not in kinds:
        raise ValidationError(f"{context}: {key} has the wrong type")
    return value


def ref_real(obj: dict, key: str, context: str) -> float:
    value = ref_typed(obj, key, _NUMBER, context)
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{context}: {key} {value} is out of range") from exc


def ref_list_of(obj: dict, key: str, kinds: tuple, context: str) -> list:
    values = ref_typed(obj, key, _LIST, context)
    for value in values:
        if type(value) not in kinds:
            raise ValidationError(f"{context}: {key} entries have the wrong type")
    return values


def ref_segment(obj, video_id: str) -> GroundTruthSegment:
    context = f"video {video_id!r}: segment"
    if type(obj) is not dict:
        raise ValidationError(f"{context} must be an object, got {obj!r}")
    try:
        class_id = ref_typed(obj, "class_id", _INTEGER, context)
        return GroundTruthSegment(class_id, ref_real(obj, "start", context), ref_real(obj, "end", context))
    except KeyError as exc:
        raise ValidationError(f"{context} lacks key {exc}: {obj!r}") from exc


def ref_record(obj) -> VideoRecord:
    if type(obj) is not dict:
        raise ValidationError(f"manifest: video entry must be an object, got {obj!r}")
    vid = obj.get("id")
    if not isinstance(vid, str) or not vid:
        raise ValidationError(f"manifest: video entry without a valid id: {obj!r}")
    required = {"id", "num_snippets", "feature_dim", "labels", "snippet_duration"}
    unknown = set(obj) - required - {"segments", "fully_annotated"}
    if unknown:
        raise ValidationError(f"video {vid!r}: unknown manifest keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"video {vid!r}: missing manifest keys {sorted(missing)}")
    context = f"video {vid!r}"
    segments = None
    if obj.get("segments") is not None:
        segments = tuple(ref_segment(s, vid) for s in ref_typed(obj, "segments", _LIST, context))
    return VideoRecord(
        id=vid,
        num_snippets=ref_typed(obj, "num_snippets", _INTEGER, context),
        feature_dim=ref_typed(obj, "feature_dim", _INTEGER, context),
        labels=tuple(ref_list_of(obj, "labels", _INTEGER, context)),
        snippet_duration=ref_real(obj, "snippet_duration", context),
        segments=segments,
    )


def ref_manifest(obj) -> DatasetManifest:
    """The manifest the parsed JSON ``obj`` held, by the manifest walker."""
    context = "manifest"
    if type(obj) is not dict:
        raise ValidationError(f"{context}: must hold a JSON object")
    for key in ("num_classes", "class_names", "videos"):
        if key not in obj:
            raise ValidationError(f"{context}: missing key {key!r}")
    manifest = DatasetManifest(
        num_classes=ref_typed(obj, "num_classes", _INTEGER, context),
        class_names=tuple(ref_list_of(obj, "class_names", _STRING, context)),
        records=tuple(ref_record(v) for v in ref_typed(obj, "videos", _LIST, context)),
    )
    manifest.validate()
    return manifest


def outcome(build, *args):
    """What ``build(*args)`` returns, or ``ValidationError`` if it raises one."""
    try:
        return build(*args)
    except ValidationError:
        return ValidationError


HUGE = (10**400, -(10**400), 2**1024)
DIFF = settings(derandomize=True, database=None, max_examples=300, deadline=None)
names = st.sampled_from((*GATING_KINDS, *TRAIN_LOCALIZATION, *AGGREGATORS, *REG_FORMS, *STRATEGIES, *SUPERVISION_MODES))
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.sampled_from(HUGE)
    | st.floats()
    | st.floats(0.0, 1.0)
    | st.text(max_size=3)
    | names
)


def containers(inner):
    return st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2)


values = st.recursive(scalars, containers, max_leaves=4)


def near_default(value):
    """Values of the kind of a field's default ``value``, most of them valid."""
    if type(value) is bool:
        return st.booleans()
    if type(value) is int:
        return st.sampled_from([value, 1, 2])
    if type(value) is str:
        return st.just(value) | names
    return st.sampled_from([value, 1, 0.5, 2])  # a float, or null where that is the default


def config_dicts(defaults: dict, nested: dict | None = None):
    """Objects holding some fields with values near their defaults (``nested``
    draws the fields that are objects), plus at most one entry of any key and
    any value."""
    fields = {key: nested[key] if nested and key in nested else near_default(value) for key, value in defaults.items()}
    junk = st.just({}) | st.dictionaries(st.sampled_from(sorted(defaults)) | st.text(max_size=3), values, max_size=1)
    return st.builds(lambda good, bad: {**good, **bad}, st.fixed_dictionaries({}, optional=fields), junk)


def defaults(cls) -> dict:
    return {f.name: getattr(cls(), f.name) for f in dataclasses.fields(cls)}


def overflowing(cfg, types) -> bool:
    """Whether a float-declared field of ``cfg`` holds an integer beyond the float range (change 1)."""
    for key, value in cfg.items():
        annotation = types.get(key)
        if dataclasses.is_dataclass(annotation) and type(value) is dict and overflowing(value, typing.get_type_hints(annotation)):
            return True
        if float in ref_kinds(annotation) and type(value) is int and abs(value) > sys.float_info.max:
            return True
    return False


def assert_floats_where_declared(obj) -> None:
    """Change 2: every float-declared field of an accepted config holds a float (or its null)."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            assert_floats_where_declared(value)
        elif float in ref_kinds(typing.get_type_hints(type(obj))[f.name]):
            assert value is None or type(value) is float, (f.name, value)


@DIFF
@given(config_dicts(defaults(TrainConfig), {"loss": config_dicts(defaults(LossConfig))}))
@example({"learning_rate": 1, "loss": {"loc_weight": 2, "background_weight": None}})
@example({"learning_rate": 10**400})
@example({"loss": {"loc_weight": 10**400}})
@example({"loss": 5})
def test_train_config_reader_matches_the_config_walker(file_cfg):
    new = outcome(cli.build_train_config, file_cfg, {}, {})
    if overflowing(file_cfg, typing.get_type_hints(TrainConfig)):
        assert new is ValidationError
        return
    assert new == outcome(ref_build_train_config, file_cfg)
    if new is not ValidationError:
        assert_floats_where_declared(new)


@DIFF
@given(st.none() | st.sampled_from(sorted(PRESETS)), config_dicts(defaults(SynthSpec)))
@example(None, {"noise_scale": 10**400})
@example("hard", {"noise_scale": 2, "seed": 3})
def test_synth_spec_reader_matches_the_config_walker(preset, file_cfg):
    new = outcome(cli.build_synth_spec, preset, file_cfg, {})
    if overflowing(file_cfg, typing.get_type_hints(SynthSpec)):
        assert new is ValidationError
        return
    assert new == outcome(ref_build_synth_spec, preset, file_cfg)
    if new is not ValidationError:
        assert_floats_where_declared(new)


@DIFF
@given(config_dicts(cli.ABLATE_DEFAULTS))
@example({"seeds": 2, "iou": "0.5", "lambda_sweep": True})
def test_ablate_reader_matches_the_config_walker(file_cfg):
    new = outcome(read_object, file_cfg, cli._ABLATE_TYPES, "ablate config")
    ref = outcome(ref_check_config, file_cfg, cli._ABLATE_TYPES, "ablate config")
    assert (new is ValidationError) == (ref is ValidationError)
    if new is not ValidationError:
        assert new == file_cfg


BASE_MANIFEST = {
    "num_classes": 2,
    "class_names": ["a", "b"],
    "videos": [
        {
            "id": "v1",
            "num_snippets": 4,
            "feature_dim": 2,
            "labels": [0, 1],
            "snippet_duration": 0.5,
            "segments": [{"class_id": 0, "start": 0.0, "end": 1.0}, {"class_id": 1, "start": 1, "end": 2}],
        },
        {"id": "v2", "num_snippets": 3, "feature_dim": 2, "labels": [1], "snippet_duration": 1, "segments": None},
    ],
}


def key_paths(obj, prefix=()):
    """Every key path into a JSON value, the empty path included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from key_paths(value, prefix + (key,))


PATHS = list(key_paths(BASE_MANIFEST))[1:]
GONE = object()


def resolve(obj, path):
    """The value at ``path`` in ``obj``, or ``GONE`` where an earlier edit removed the way there."""
    for key in path:
        if (type(obj) is dict and key in obj) or (type(obj) is list and type(key) is int and key < len(obj)):
            obj = obj[key]
        else:
            return GONE
    return obj


OBJECT_PATHS = [p for p in [(), *PATHS] if type(resolve(BASE_MANIFEST, p)) is dict]


def edited(edits) -> dict:
    """``BASE_MANIFEST`` with each edit applied that still finds its place:
    ("set", path, value), ("del", path) or ("add", object path, key, value)."""
    obj = copy.deepcopy(BASE_MANIFEST)
    for op, path, *rest in copy.deepcopy(edits):
        if op == "add":
            target = resolve(obj, path)
            if type(target) is dict:
                target[rest[0]] = rest[1]
            continue
        parent = resolve(obj, path[:-1])
        if resolve(parent, path[-1:]) is GONE:
            continue
        if op == "set":
            parent[path[-1]] = rest[0]
        else:
            del parent[path[-1]]
    return obj


def unknown_outside_videos(obj: dict) -> bool:
    """Change 3: an unknown key at the manifest's top level or in a segment."""
    if set(obj) - {"num_classes", "class_names", "videos"}:
        return True
    videos = obj.get("videos")
    for video in videos if type(videos) is list else ():
        segments = video.get("segments") if type(video) is dict else None
        for segment in segments if type(segments) is list else ():
            if type(segment) is dict and set(segment) - {"class_id", "start", "end"}:
                return True
    return False


# edits after which the manifest still loads, or which only write a whole
# number in its other form: a number field takes 2 and 2.0, an integer field only 2
numbers = [(p, v) for p in PATHS for v in [resolve(BASE_MANIFEST, p)] if type(v) in (int, float) and v == int(v)]
harmless_edits = st.sampled_from(
    [("set", p, float(v) if type(v) is int else int(v)) for p, v in numbers]
    + [("set", ("videos", 0, "segments"), None), ("del", ("videos", 1, "segments")), ("set", ("videos", 0, "segments"), [])]
) | st.tuples(st.just("add"), st.sampled_from([("videos", 0), ("videos", 1)]), st.just("fully_annotated"), values)
any_edits = (
    st.tuples(st.just("set"), st.sampled_from(PATHS), values)
    | st.tuples(st.just("del"), st.sampled_from(PATHS))
    | st.tuples(
        st.just("add"),
        st.sampled_from(OBJECT_PATHS),
        st.sampled_from(["fully_annotated", "segments", "id", "start", "videos", "x"]) | st.text(max_size=3),
        values,
    )
)
manifest_edits = st.builds(lambda a, b: a + b, st.lists(harmless_edits, max_size=3), st.lists(any_edits, max_size=1))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@DIFF
@given(manifest_edits)
@example([])
@example([("add", ("videos", 0), "fully_annotated", "no")])
@example([("add", (), "fully_annotated", True)])
@example([("add", ("videos", 0, "segments", 1), "score", 1.0)])
@example([("set", ("videos", 1, "snippet_duration"), 10**400)])
@example([("del", ("videos", 1, "segments"))])
def test_manifest_reader_matches_the_manifest_walker(scratch, edits):
    text = json.dumps(edited(edits))
    path = scratch / "manifest.json"
    path.write_text(text)
    new = outcome(load_manifest, str(path))
    obj = json.loads(text)
    if unknown_outside_videos(obj):
        assert new is ValidationError
        return
    assert new == outcome(ref_manifest, obj)
