import json
import os

import numpy as np
import pytest

from ttcloc.data import (
    GroundTruthSegment,
    VideoRecord,
    VideoSample,
    crop_clip,
    load_dataset,
    load_manifest,
    manifest_to_json,
    rasterize,
    write_dataset,
)
from ttcloc.errors import ValidationError


def rasterize_oracle(segments, num_snippets, num_classes, tau):
    """Independent re-statement of the midpoint rule, pure-Python loops."""
    out = [[0.0] * num_classes for _ in range(num_snippets)]
    for t in range(num_snippets):
        mid = (t + 0.5) * tau
        for seg in segments:
            if seg.start <= mid < seg.end:
                out[t][seg.class_id] = 1.0
    return np.array(out)


def make_sample(vid="v0", t=4, d=2, labels=(0,), tau=1.0, segments=None, flagged=False):
    rng = np.random.default_rng(0)
    return VideoSample(
        id=vid,
        features=rng.normal(size=(t, d)),
        labels=frozenset(labels),
        snippet_duration=tau,
        segments=segments,
        fully_annotated=flagged,
    )


class TestRasterize:
    def test_segment_covering_two_snippets(self):
        segs = [GroundTruthSegment(0, 0.0, 2.0)]
        a = rasterize(segs, 4, 2, 1.0)
        np.testing.assert_array_equal(a[:, 0], [1, 1, 0, 0])
        np.testing.assert_array_equal(a[:, 1], 0)

    def test_empty_segments_all_zero(self):
        a = rasterize([], 5, 3, 0.64)
        assert a.shape == (5, 3)
        assert not a.any()

    def test_subsnippet_segment_matches_midpoint_oracle(self):
        # Segment [0.6, 1.4) with T=2 covers neither midpoint (0.5, 1.5).
        segs = [GroundTruthSegment(0, 0.6, 1.4)]
        a = rasterize(segs, 2, 1, 1.0)
        np.testing.assert_array_equal(a, rasterize_oracle(segs, 2, 1, 1.0))
        np.testing.assert_array_equal(a[:, 0], [0, 0])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = int(rng.integers(1, 12))
            c = int(rng.integers(1, 4))
            tau = float(rng.uniform(0.2, 2.0))
            segs = [
                GroundTruthSegment(int(rng.integers(0, c)), s0 := float(rng.uniform(0, t * tau)), s0 + float(rng.uniform(0.01, t * tau)))
                for _ in range(int(rng.integers(0, 4)))
            ]
            np.testing.assert_array_equal(rasterize(segs, t, c, tau), rasterize_oracle(segs, t, c, tau))

    def test_monotone_under_segment_growth(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            start = float(rng.uniform(0, 5))
            end = start + float(rng.uniform(0.1, 3))
            grow = float(rng.uniform(0, 2))
            small = rasterize([GroundTruthSegment(0, start, end)], 8, 1, 1.0)
            big = rasterize([GroundTruthSegment(0, max(0.0, start - grow), end + grow)], 8, 1, 1.0)
            assert np.all(big >= small)

    def test_segment_outside_grid_is_all_zero(self):
        a = rasterize([GroundTruthSegment(0, 100.0, 120.0)], 4, 1, 1.0)
        assert not a.any()


class TestCropClip:
    def test_short_video_unchanged(self):
        s = make_sample(t=100)
        assert crop_clip(s, 320, np.random.default_rng(0)) is s

    def test_long_video_cropped_with_bounded_offset(self):
        rng = np.random.default_rng(3)
        full = make_sample(t=400)
        for _ in range(20):
            clip = crop_clip(full, 320, rng)
            assert clip.num_snippets == 320
            # clip rows must be a contiguous slice of the original
            offsets = np.flatnonzero(np.all(full.features == clip.features[0], axis=1))
            assert len(offsets) == 1 and 0 <= offsets[0] <= 80

    def test_segment_covering_whole_video_spans_clip(self):
        s = make_sample(t=10, segments=(GroundTruthSegment(0, 0.0, 10.0),), flagged=True)
        clip = crop_clip(s, 4, np.random.default_rng(5))
        assert clip.num_snippets == 4
        assert clip.segments == (GroundTruthSegment(0, 0.0, 4.0),)

    def test_segments_clipped_and_shifted(self):
        s = make_sample(t=10, segments=(GroundTruthSegment(0, 1.0, 3.0),))
        rng = np.random.default_rng(1)
        seen_empty = seen_partial = False
        for _ in range(50):
            clip = crop_clip(s, 4, rng)
            for seg in clip.segments:
                assert 0.0 <= seg.start < seg.end <= clip.num_snippets * clip.snippet_duration
            if not clip.segments:
                seen_empty = True
            else:
                seen_partial = True
        assert seen_empty and seen_partial

    def test_preserves_labels_dim_and_duration(self):
        s = make_sample(t=50, labels=(0, 1), segments=None)
        clip = crop_clip(s, 7, np.random.default_rng(2))
        assert clip.labels == s.labels
        assert clip.feature_dim == s.feature_dim
        assert clip.snippet_duration == s.snippet_duration
        assert clip.num_snippets == 7


class TestOnDiskFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        samples = [
            VideoSample(
                id=f"vid{i}",
                features=rng.normal(size=(int(rng.integers(1, 9)), 3)).astype(np.float32),
                labels=frozenset({int(rng.integers(0, 2))}),
                snippet_duration=0.64,
                segments=None,
                fully_annotated=False,
            )
            for i in range(4)
        ]
        samples[0] = VideoSample(
            id="vid0",
            features=samples[0].features,
            labels=frozenset({0}),
            snippet_duration=0.64,
            segments=(GroundTruthSegment(0, 0.1, 0.5),),
            fully_annotated=True,
        )
        path = write_dataset(samples, 2, ["a", "b"], str(tmp_path / "ds"))
        loaded = load_dataset(load_manifest(path))
        assert [s.id for s in loaded] == [s.id for s in samples]
        for orig, back in zip(samples, loaded):
            assert back.features.tobytes() == orig.features.astype("<f4").tobytes()
            assert back.labels == orig.labels
            assert back.segments == orig.segments
            assert not back.fully_annotated  # supervision is the trainer's choice, not stored
            assert back.snippet_duration == orig.snippet_duration

    def test_manifest_round_trip(self, tmp_path):
        # segments absent, empty, and at times that are not whole numbers
        feats = np.zeros((3, 2), dtype=np.float32)
        frac = (GroundTruthSegment(1, 0.1, 0.30000000000000004), GroundTruthSegment(1, 1.25, 1.92))
        samples = [
            VideoSample("absent", feats, frozenset({1, 0}), 0.64, None),
            VideoSample("empty", feats, frozenset({0}), 0.5, ()),
            VideoSample("frac", feats, frozenset({1}), 0.64, frac),
        ]
        path = write_dataset(samples, 2, ["a", "b"], str(tmp_path / "ds"))
        text = open(path, encoding="utf-8").read()
        assert json.loads(text) == {
            "num_classes": 2,
            "class_names": ["a", "b"],
            "videos": [
                {"id": "absent", "num_snippets": 3, "feature_dim": 2, "labels": [0, 1], "snippet_duration": 0.64, "segments": None},
                {"id": "empty", "num_snippets": 3, "feature_dim": 2, "labels": [0], "snippet_duration": 0.5, "segments": []},
                {
                    "id": "frac",
                    "num_snippets": 3,
                    "feature_dim": 2,
                    "labels": [1],
                    "snippet_duration": 0.64,
                    "segments": [
                        {"class_id": 1, "start": 0.1, "end": 0.30000000000000004},
                        {"class_id": 1, "start": 1.25, "end": 1.92},
                    ],
                },
            ],
        }
        manifest = load_manifest(path)
        assert manifest.records == tuple(s.record for s in samples)
        assert manifest_to_json(manifest) + "\n" == text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_small_manifest_loads(self, tmp_path):
        feats = np.arange(8, dtype=np.float32).reshape(4, 2)
        s = VideoSample(id="one", features=feats, labels=frozenset({0}))
        path = write_dataset([s], 1, ["only"], str(tmp_path / "ds"))
        assert os.path.getsize(str(tmp_path / "ds" / "one.f32")) == 32
        (loaded,) = load_dataset(load_manifest(path))
        np.testing.assert_array_equal(loaded.features, feats)

    def test_load_checks_features_not_records(self, tmp_path, monkeypatch):
        # load_manifest has checked every record; loading checks only the features
        s = VideoSample(id="one", features=np.zeros((4, 2), np.float32), labels=frozenset({0}))
        manifest = load_manifest(write_dataset([s], 1, ["only"], str(tmp_path / "ds")))
        monkeypatch.setattr(VideoRecord, "validate", lambda *a: pytest.fail("record checked again"))
        checked = []
        monkeypatch.setattr(VideoSample, "validate_features", lambda self: checked.append(self.id))
        assert [v.id for v in load_dataset(manifest)] == checked == ["one"]

    def test_size_mismatch_reports_video_id(self, tmp_path):
        s = VideoSample(id="bad", features=np.zeros((4, 2), np.float32), labels=frozenset({0}))
        path = write_dataset([s], 1, ["only"], str(tmp_path / "ds"))
        with open(tmp_path / "ds" / "bad.f32", "wb") as fh:
            fh.write(b"\x00" * 31)
        with pytest.raises(ValidationError, match="bad"):
            load_dataset(load_manifest(path))

    def test_missing_feature_file(self, tmp_path):
        s = VideoSample(id="gone", features=np.zeros((2, 2), np.float32), labels=frozenset({0}))
        path = write_dataset([s], 1, ["only"], str(tmp_path / "ds"))
        os.unlink(tmp_path / "ds" / "gone.f32")
        with pytest.raises(ValidationError, match="gone"):
            load_dataset(load_manifest(path))

    def test_segment_class_not_in_labels(self, tmp_path):
        seg = GroundTruthSegment(5, 0.0, 1.0)
        with pytest.raises(ValidationError, match="segment class 5"):
            write_dataset(
                [VideoSample(id="x", features=np.zeros((2, 2), np.float32), labels=frozenset({1}), segments=(seg,))],
                6,
                [str(i) for i in range(6)],
                str(tmp_path / "ds"),
            )

    def test_duplicate_ids_rejected(self, tmp_path):
        mk = lambda: VideoSample(id="same", features=np.zeros((2, 2), np.float32), labels=frozenset({0}))
        path = write_dataset([mk()], 1, ["only"], str(tmp_path / "ds"))
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        text = text.replace('"videos": [', '"videos": [', 1)
        obj = json.loads(text)
        obj["videos"].append(dict(obj["videos"][0]))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        with pytest.raises(ValidationError, match="duplicate"):
            load_manifest(path)

    def test_failed_manifest_move_leaves_no_new_file(self, tmp_path):
        # a directory in the manifest's place makes the last move fail
        ds = tmp_path / "ds"
        (ds / "manifest.json").mkdir(parents=True)
        (ds / "kept.f32").write_bytes(b"old")
        samples = [
            VideoSample(id=vid, features=np.zeros((2, 2), np.float32), labels=frozenset({0})) for vid in ("kept", "new1", "new2")
        ]
        with pytest.raises(OSError):
            write_dataset(samples, 1, ["only"], str(ds))
        assert sorted(os.listdir(ds)) == ["kept.f32", "manifest.json"]

    def test_non_finite_features_rejected(self, tmp_path):
        s = VideoSample(id="inf", features=np.zeros((2, 2), np.float32), labels=frozenset({0}))
        path = write_dataset([s], 1, ["only"], str(tmp_path / "ds"))
        bad = np.array([[np.inf, 0], [0, 0]], np.float32)
        bad.tofile(str(tmp_path / "ds" / "inf.f32"))
        with pytest.raises(ValidationError, match="inf"):
            load_dataset(load_manifest(path))


# ids that would name a feature file outside the dataset directory; "<tmp>"
# stands for the test's own directory, where an ``evil.f32`` is planted
ESCAPING_IDS = ["../evil", "<tmp>/evil", "sub/evil", "..", ".", "a\\b", "nul\0"]


class TestVideoIdsStayInDirectory:
    @pytest.mark.parametrize("vid", ESCAPING_IDS)
    def test_load_rejects(self, tmp_path, vid):
        feats = np.zeros((2, 2), np.float32)
        good = VideoSample(id="good", features=feats, labels=frozenset({0}))
        path = write_dataset([good], 1, ["only"], str(tmp_path / "ds"))
        feats.tofile(str(tmp_path / "evil.f32"))
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["videos"][0]["id"] = vid.replace("<tmp>", str(tmp_path))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        with pytest.raises(ValidationError, match="not a plain file name"):
            load_dataset(load_manifest(path))

    @pytest.mark.parametrize("vid", ESCAPING_IDS)
    def test_write_writes_nothing(self, tmp_path, vid):
        vid = vid.replace("<tmp>", str(tmp_path))
        sample = VideoSample(id=vid, features=np.zeros((2, 2), np.float32), labels=frozenset({0}))
        with pytest.raises(ValidationError, match="not a plain file name"):
            write_dataset([sample], 1, ["only"], str(tmp_path / "out" / "ds"))
        assert list(tmp_path.rglob("*")) == []


# (key path, value): each makes a wrong-typed manifest
WRONG_TYPES = [
    (("num_classes",), "x"),
    (("num_classes",), True),
    (("num_classes",), 1.0),
    (("class_names",), "only"),
    (("class_names",), [1]),
    (("videos",), 5),
    (("videos", 0), 5),
    (("videos", 0, "num_snippets"), "x"),
    (("videos", 0, "feature_dim"), 2.0),
    (("videos", 0, "labels"), 5),
    (("videos", 0, "labels"), [1.7]),
    (("videos", 0, "labels"), [True]),
    (("videos", 0, "snippet_duration"), None),
    (("videos", 0, "snippet_duration"), "0.64"),
    (("videos", 0, "snippet_duration"), 10**400),
    (("videos", 0, "segments"), 5),
    (("videos", 0, "segments"), [5]),
    (("videos", 0, "segments"), [{"class_id": 0, "start": "0", "end": 1.0}]),
    (("videos", 0, "segments"), [{"class_id": 0.0, "start": 0.0, "end": 1.0}]),
    (("videos", 0, "segments"), [{"class_id": 0, "start": 0.0}]),
]


class TestManifestTypes:
    """JSON types are checked, not converted, and only ValidationError escapes."""

    def write(self, tmp_path, key_path=None, value=None):
        s = VideoSample(id="one", features=np.zeros((4, 2), np.float32), labels=frozenset({0}), segments=())
        path = write_dataset([s], 1, ["only"], str(tmp_path / "ds"))
        if key_path is not None:
            obj = json.loads(open(path, encoding="utf-8").read())
            *parents, key = key_path
            target = obj
            for p in parents:
                target = target[p]
            target[key] = value
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        return path

    @pytest.mark.parametrize("key_path, value", WRONG_TYPES, ids=[f"{'.'.join(map(str, k))}={v!r:.20}" for k, v in WRONG_TYPES])
    def test_wrong_type_rejected(self, tmp_path, key_path, value):
        path = self.write(tmp_path, key_path, value)
        with pytest.raises(ValidationError, match="must be|lacks|out of range"):
            load_manifest(path)

    @pytest.mark.parametrize("blob", [b"\xff", b'{"num_classes": 1, "class_names": ["\xff"], "videos": []}', b"[]", b"5", b"[" * 100000])
    def test_bad_bytes_rejected(self, tmp_path, blob):
        path = tmp_path / "manifest.json"
        path.write_bytes(blob)
        with pytest.raises(ValidationError):
            load_manifest(str(path))

    def test_integer_duration_and_times_load_as_floats(self, tmp_path):
        path = self.write(tmp_path, ("videos", 0, "snippet_duration"), 1)
        obj = json.loads(open(path, encoding="utf-8").read())
        obj["videos"][0]["segments"] = [{"class_id": 0, "start": 0, "end": 2}]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        (record,) = load_manifest(path).records
        assert type(record.snippet_duration) is float and record.snippet_duration == 1.0
        assert record.segments == (GroundTruthSegment(0, 0.0, 2.0),)
        assert type(record.segments[0].start) is float


# (key path, value): each makes a well-typed manifest whose values are impossible
BAD_VALUES = [
    (("videos", 0, "labels"), [99]),
    (("videos", 0, "labels"), []),
    (("videos", 0, "labels"), [-1]),
    (("videos", 0, "snippet_duration"), -1),
    (("videos", 0, "snippet_duration"), 0),
    (("videos", 0, "num_snippets"), -3),
    (("videos", 0, "num_snippets"), 0),
    (("videos", 0, "feature_dim"), 0),
    (("videos", 0, "segments"), [{"class_id": 0, "start": 5.0, "end": 1.0}]),
    (("videos", 0, "segments"), [{"class_id": 0, "start": -1.0, "end": 1.0}]),
    (("videos", 0, "segments"), [{"class_id": 3, "start": 0.0, "end": 1.0}]),
]


class TestManifestValues:
    """A manifest's values are checked when it loads, before any feature file is read."""

    write = TestManifestTypes.write

    @pytest.mark.parametrize("key_path, value", BAD_VALUES, ids=[f"{'.'.join(map(str, k))}={v!r:.30}" for k, v in BAD_VALUES])
    def test_impossible_value_rejected(self, tmp_path, key_path, value):
        path = self.write(tmp_path, key_path, value)
        os.remove(tmp_path / "ds" / "one.f32")
        with pytest.raises(ValidationError, match="video 'one'"):
            load_manifest(path)

    def test_record_of_a_sample_is_its_manifest_entry(self, tmp_path):
        seg = GroundTruthSegment(2, 0.5, 1.5)
        sample = make_sample("v7", t=3, d=5, labels=(2, 0), tau=0.5, segments=(seg,), flagged=True)
        assert sample.record == VideoRecord("v7", 3, 5, (0, 2), 0.5, (seg,))
        path = write_dataset([sample], 3, ["a", "b", "c"], str(tmp_path / "ds"))
        assert load_manifest(path).records == (sample.record,)

    def test_record_validate_needs_a_snippet_and_a_dimension(self):
        for t, d in ((0, 2), (2, 0)):
            with pytest.raises(ValidationError, match="must be >= 1"):
                VideoRecord("v", t, d, (0,), 1.0, None).validate(1)

    def test_flagged_sample_needs_segments(self):
        with pytest.raises(ValidationError, match="fully_annotated requires segments"):
            make_sample(flagged=True).validate(1)
        make_sample(segments=(), flagged=True).validate(1)
