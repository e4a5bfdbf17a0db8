"""One JSON type rule for every file ttcloc reads: config files, manifests and detection files.

A bool is never an integer, an integer counts as a number, and null is
accepted only where a field's type allows ``None``.
"""

import json

import pytest

from ttcloc import cli
from ttcloc.data import load_manifest
from ttcloc.errors import ValidationError, json_types, type_error
from ttcloc.localizer import load_detections

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
