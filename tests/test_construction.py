"""Configs and manifest records check their fields when built and are
immutable: a value of one of these types exists only if it is valid."""

import dataclasses

import pytest

from ttcloc.data import DatasetManifest, GroundTruthSegment, VideoRecord
from ttcloc.errors import ValidationError
from ttcloc.objectives import LossConfig
from ttcloc.synth import SynthSpec
from ttcloc.trainer import TrainConfig

RECORD = VideoRecord("v", 4, 2, (0,), 1.0, (GroundTruthSegment(0, 0.0, 1.0),))

# (a valid value, a field, a value that field may not take, the error it raises)
CASES = [
    (SynthSpec(), "num_classes", 1, "num_classes must be >= 2"),
    (SynthSpec(), "amplitude_max", 0.5, "amplitude range"),
    (LossConfig(), "clas_weight", 2.0, "clas_weight must be in"),
    (LossConfig(), "reg_form", "l3", "reg_form must be one of"),
    (TrainConfig(), "dropout", 1.0, "dropout must be in"),
    (TrainConfig(), "train_localization", "none", "requires the topk_eighth aggregator"),
    (RECORD, "snippet_duration", 0.0, "video 'v': snippet_duration must be a positive real"),
    (RECORD, "labels", (), "video 'v': label set is empty"),
    (RECORD, "segments", (GroundTruthSegment(0, 2.0, 1.0),), "video 'v': segment must satisfy 0 <= start < end"),
    (RECORD, "segments", (GroundTruthSegment(1, 0.0, 1.0),), r"video 'v': segment class 1 not in labels \[0\]"),
    (DatasetManifest(2, ("a", "b"), (RECORD,)), "num_classes", 1, "class_names length must equal num_classes"),
    (DatasetManifest(2, ("a", "b"), (RECORD,)), "records", (RECORD, RECORD), r"duplicate video ids \['v'\]"),
    (DatasetManifest(2, ("a", "b"), (RECORD,)), "records", (dataclasses.replace(RECORD, labels=(0, 5)),), "video 'v': label 5 out of range"),
]


def fields_of(value) -> dict:
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


@pytest.mark.parametrize("valid, name, value, message", CASES, ids=lambda x: x if isinstance(x, str) else None)
def test_built_with_a_bad_field_raises(valid, name, value, message):
    with pytest.raises(ValidationError, match=message):
        type(valid)(**{**fields_of(valid), name: value})
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(valid, **{name: value})


@pytest.mark.parametrize("valid", [SynthSpec(), LossConfig(), TrainConfig(), RECORD, DatasetManifest(1, ("a",), (RECORD,))])
def test_fields_cannot_be_assigned(valid):
    for name, value in fields_of(valid).items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(valid, name, value)
