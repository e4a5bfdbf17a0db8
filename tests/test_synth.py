import numpy as np
import pytest

from ttcloc import cli
from ttcloc.data import VideoRecord, load_dataset, load_manifest, rasterize, write_dataset
from ttcloc.errors import GenerationError, ValidationError
from ttcloc.synth import PRESETS, SynthSpec, generate, preset_spec

SMALL = SynthSpec(
    num_classes=3,
    feature_dim=8,
    videos_per_class=4,
    snippets_min=20,
    snippets_max=30,
    segment_len_min=3,
    segment_len_max=6,
    seed=7,
)


class TestSpecValidation:
    def test_presets_are_valid(self):
        for name in PRESETS:
            preset_spec(name).validate()

    def test_preset_override(self):
        spec = preset_spec("medium", videos_per_class=3, seed=11)
        assert spec.videos_per_class == 3
        assert spec.amplitude_max == 2.0

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_spec("extreme")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_classes", 1),
            ("feature_dim", 1),
            ("snippets_max", 10),  # below snippets_min
            ("segment_len_min", 0),
            ("noise_scale", -0.1),
            ("prototype_scale", 0.0),
            ("amplitude_min", 0.0),
            ("amplitude_max", 0.5),  # below amplitude_min
            ("amplitude_max", float("inf")),
            ("noise_scale", float("nan")),
            ("noise_scale", float("inf")),
            ("prototype_scale", float("inf")),
            ("seed", -1),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        from dataclasses import replace

        with pytest.raises(ValidationError):
            replace(SynthSpec(), **{field: value}).validate()


class TestGenerate:
    def test_shapes_and_counts(self):
        manifest, samples = generate(SMALL)
        assert len(samples) == 12
        assert manifest.num_classes == 3
        assert len(manifest.class_names) == 3
        for s in samples:
            assert s.features.dtype == np.float32
            assert 20 <= s.num_snippets <= 30
            assert s.feature_dim == 8
            s.validate(3)

    def test_deterministic(self):
        m1, s1 = generate(SMALL)
        m2, s2 = generate(SMALL)
        assert m1 == m2
        for a, b in zip(s1, s2):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.segments == b.segments

    def test_seed_changes_output(self):
        from dataclasses import replace

        _, s1 = generate(SMALL)
        _, s2 = generate(replace(SMALL, seed=8))
        assert s1[0].features.tobytes() != s2[0].features.tobytes()

    def test_single_label_matches_segments(self):
        _, samples = generate(SMALL)
        for s in samples:
            assert len(s.labels) == 1
            (label,) = s.labels
            assert s.segments
            assert {seg.class_id for seg in s.segments} == {label}

    def test_segments_in_bounds_and_separated(self):
        _, samples = generate(SMALL)
        for s in samples:
            segs = sorted(s.segments, key=lambda g: g.start)
            for seg in segs:
                assert seg.start >= 0.0
                assert seg.end <= s.num_snippets * s.snippet_duration
            for prev, nxt in zip(segs, segs[1:]):
                assert nxt.start - prev.end >= s.snippet_duration  # one-snippet gap

    def test_zero_noise_plants_exact_prototypes(self):
        from dataclasses import replace

        spec = replace(SMALL, noise_scale=0.0)
        _, samples = generate(spec)
        # per class, every in-segment snippet across videos is the same vector
        for c in range(spec.num_classes):
            rows = []
            for s in samples:
                if c not in s.labels:
                    continue
                mask = rasterize(s.segments, s.num_snippets, spec.num_classes, s.snippet_duration)
                rows.append(s.features[mask[:, c] == 1.0])
            stacked = np.concatenate(rows)
            assert len(stacked) > 0
            assert np.all(stacked == stacked[0])

    def test_zero_noise_prototypes_separated(self):
        from dataclasses import replace

        spec = replace(SMALL, noise_scale=0.0)
        _, samples = generate(spec)
        protos = []
        for c in range(spec.num_classes):
            s = next(x for x in samples if c in x.labels)
            mask = rasterize(s.segments, s.num_snippets, spec.num_classes, s.snippet_duration)
            protos.append(s.features[mask[:, c] == 1.0][0].astype(np.float64))
        for i in range(len(protos)):
            for j in range(i + 1, len(protos)):
                assert np.linalg.norm(protos[i] - protos[j]) >= spec.prototype_scale * 0.99

    def test_amplitude_jitter_varies_norms(self):
        from dataclasses import replace

        spec = replace(SMALL, amplitude_min=0.5, amplitude_max=2.0, noise_scale=0.0)
        _, samples = generate(spec)
        c0 = [s for s in samples if 0 in s.labels]
        norms = {float(np.linalg.norm(s.features[0])) for s in c0}
        assert len(norms) == len(c0)

    def test_infeasible_placement_names_video(self):
        spec = SynthSpec(
            num_classes=2,
            feature_dim=4,
            videos_per_class=1,
            snippets_min=5,
            snippets_max=5,
            segments_min=3,
            segments_max=3,
            segment_len_min=5,
            segment_len_max=5,
            seed=0,
        )
        with pytest.raises(GenerationError, match="v00_000"):
            generate(spec)

    def test_synth_validates_each_record_once(self, tmp_path, monkeypatch):
        checked = []
        real = VideoRecord.validate

        def counting(self, num_classes=None):
            checked.append(self.id)
            return real(self, num_classes)

        monkeypatch.setattr(VideoRecord, "validate", counting)
        args = ["synth", "--preset", "easy", "--num-classes", "2", "--videos-per-class", "3", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        during_synth = sorted(checked)
        assert during_synth == sorted(r.id for r in load_manifest(str(tmp_path / "manifest.json")).records)
        assert len(during_synth) == 6

    def test_round_trip_through_disk(self, tmp_path):
        manifest, samples = generate(SMALL)
        path = write_dataset(samples, manifest.num_classes, manifest.class_names, str(tmp_path / "ds"))
        loaded = load_dataset(load_manifest(path))
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.id == b.id
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels == b.labels
            assert a.segments == b.segments
