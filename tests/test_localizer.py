import copy
import json
import math
import os
import pickle

import numpy as np
import pytest

from ttcloc import network
from ttcloc.data import VideoSample
from ttcloc.errors import ValidationError
from ttcloc.localizer import (
    Detection,
    Detections,
    extract_segments,
    iter_detections,
    infer_video,
    load_detections,
    run_means,
    select_classes,
    write_detections,
)
from ttcloc.network import ScoreMap, gate_margins, init_params, manual_thresholds
from ttcloc.objectives import LossConfig, pool_and_classify
from ttcloc.trainer import TrainConfig

CONFIG = TrainConfig()  # predicted-rule training, gated sigmoid pooling


def make_sample(rng, t=8, d=3, vid="v0"):
    return VideoSample(
        id=vid,
        features=rng.normal(size=(t, d)).astype(np.float32),
        labels=frozenset({0}),
        snippet_duration=1.0,
        segments=None,
        fully_annotated=False,
    )


class TestExtractSegments:
    def test_single_run(self):
        assert extract_segments(np.array([0, 0, 1, 1, 1, 0, 0.0])) == [(2, 4)]

    def test_all_zero(self):
        assert extract_segments(np.zeros(5)) == []

    def test_two_singletons(self):
        assert extract_segments(np.array([1.0, 0.0, 1.0])) == [(0, 0), (2, 2)]

    def test_strictly_above_cut(self):
        assert extract_segments(np.full(4, 0.0)) == []
        assert extract_segments(np.full(4, -0.0)) == []
        assert extract_segments(np.full(4, 5e-324)) == [(0, 3)]

    def test_run_to_the_edge(self):
        assert extract_segments(np.array([0.4, 0.4, -0.4, 0.4])) == [(0, 1), (3, 3)]

    def test_custom_cut(self):
        # a cut c is a margin s - c: s - c > 0 exactly where s > c in floats
        assert extract_segments(np.array([1.0, 3.0, 2.5]) - 2.0) == [(1, 2)]
        s = np.array([2.0, np.nextafter(2.0, 3.0), np.nextafter(2.0, 1.0), 5e-324, -5e-324, 0.0])
        for c in (2.0, 0.0, 1e-300):
            assert extract_segments(s - c) == extract_segments((s > c).astype(float))


class TestSelectClasses:
    def probs(self, p_classes, background=0.0):
        return np.array(list(p_classes) + [background])

    def test_uniform_gives_empty(self):
        assert select_classes(self.probs([0.25, 0.25, 0.25], 0.25)) == set()

    def test_two_class_example(self):
        assert select_classes(self.probs([0.6, 0.1], 0.3)) == {0}

    def test_three_class_example(self):
        # mean over classes is 1/3; only 0.5 clears it
        assert select_classes(self.probs([0.5, 0.3, 0.2])) == {0}

    def test_background_excluded_from_average(self):
        # huge background mass must not drag the class average up
        assert select_classes(self.probs([0.09, 0.01], 0.9)) == {0}


class TestInferVideo:
    def test_zero_params_yield_nothing(self):
        rng = np.random.default_rng(0)
        params = init_params(rng, 3, 4, 2)
        params.flat[:] = 0.0
        assert len(infer_video(params, make_sample(rng), CONFIG)) == 0

    def test_modes_validated(self):
        rng = np.random.default_rng(1)
        params = init_params(rng, 3, 4, 2)
        with pytest.raises(ValidationError):
            infer_video(params, make_sample(rng), CONFIG, mode="oracle")

    def test_tiny_positive_margin_is_a_segment(self):
        # sigmoid(1e-300) rounds to exactly 0.5: a cut on the gate would miss this run
        rng = np.random.default_rng(8)
        params = init_params(rng, 4, 8, 3)
        params.w2[...] = 0.0
        params.b2[:] = [1e-300, -5.0, -5.0, 0.0]
        sample = make_sample(rng, t=7, d=4)
        dets = infer_video(params, sample, CONFIG, mode="predicted")
        assert [(d.class_id, d.start, d.end) for d in dets] == [(0, 0.0, 7.0)]
        assert list(dets) == reference_infer(params, sample, "predicted")

    def test_detections_well_formed(self):
        rng = np.random.default_rng(2)
        params = init_params(rng, 3, 4, 3)
        for arr in params.as_dict().values():
            arr *= 3.0  # push scores away from zero so segments appear
        found = 0
        for i in range(20):
            sample = make_sample(rng, t=12, vid=f"v{i}")
            for mode in ("predicted", "manual"):
                dets = infer_video(params, sample, CONFIG, mode=mode)
                found += len(dets)
                by_class = {}
                for d in dets:
                    assert d.video_id == sample.id
                    assert 0.0 <= d.start < d.end <= 12.0
                    assert 0.0 < d.score < 1.0
                    by_class.setdefault(d.class_id, []).append(d)
                for group in by_class.values():
                    for a, b in zip(group, group[1:]):
                        assert a.end <= b.start  # disjoint and sorted
        assert found > 0

    def test_predicted_mode_shift_invariant(self):
        rng = np.random.default_rng(3)
        params = init_params(rng, 3, 4, 2)
        for arr in params.as_dict().values():
            arr *= 2.0
        sample = make_sample(rng, t=10)
        base = infer_video(params, sample, CONFIG)
        shifted_params = params.with_flat(params.flat.copy())
        shifted_params.b2 += 1.3  # shifts every score column and the threshold
        shifted = infer_video(shifted_params, sample, CONFIG)
        assert len(base) == len(shifted)
        for a, b in zip(base, shifted):
            assert (a.video_id, a.class_id, a.start, a.end) == (b.video_id, b.class_id, b.start, b.end)
            np.testing.assert_allclose(a.score, b.score, rtol=1e-9)

    def test_manual_segments_invariant_to_joint_scaling(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=(9, 3))
        runs = [extract_segments(m) for m in gate_margins(ScoreMap(s, np.zeros(9)), "manual").T]
        s2 = s * 2.0  # exact in floats
        runs2 = [extract_segments(m) for m in gate_margins(ScoreMap(s2, np.zeros(9)), "manual").T]
        assert runs == runs2

    def test_manual_constant_column_no_segments(self):
        s = np.full((6, 1), 1.7)
        assert manual_thresholds(s)[0] == 1.7
        assert extract_segments(gate_margins(ScoreMap(s, np.zeros(6)), "manual")[:, 0]) == []

    def test_iter_detections_gives_each_video_its_table(self):
        # one set of buffers, sized for the longest video, serves videos of every length
        rng = np.random.default_rng(5)
        params = init_params(rng, 3, 4, 2)
        for arr in params.as_dict().values():
            arr *= 3.0
        samples = [make_sample(rng, t=t, vid=f"v{i}") for i, t in enumerate((8, 30, 1, 17))]
        all_dets = Detections.concat(iter_detections(params, samples, CONFIG, "manual"))
        per_video = [infer_video(params, s, CONFIG, "manual") for s in samples]
        assert list(all_dets) == [d for group in per_video for d in group]
        assert len({d.video_id for d in all_dets}) == 3


def reference_infer(params, sample, mode, config=CONFIG):
    """Detections with one ``.mean()`` per run, segments as runs of ``score > threshold``,
    and pooling by the rule ``config`` trained with."""
    smap, _ = network.forward(params, sample.features)
    s, b = smap.scores, smap.thresholds
    sig_gate = network.gate_values(s - b[:, None], "sigmoid")
    pool_gate = None
    if config.loss.aggregator == "gated":
        pool_cut = b[:, None] if config.train_localization == "predicted" else manual_thresholds(s)[None, :]
        pool_gate = network.gate_values(s - pool_cut, config.gating)
    probs = pool_and_classify(smap, pool_gate, config.loss.aggregator).probs[0]
    dets = []
    for c in sorted(select_classes(probs)):
        cut = b if mode == "predicted" else float(manual_thresholds(s)[c])
        for t0, t1 in extract_segments((s[:, c] > cut).astype(float)):
            score = float(probs[c] * sig_gate[t0 : t1 + 1, c].mean())
            tau = sample.snippet_duration
            dets.append(Detection(sample.id, c, t0 * tau, (t1 + 1) * tau, score))
    return dets


MANUAL = TrainConfig(train_localization="manual")


class TestPoolingFollowsTraining:
    def scaled(self, seed, t=12):
        rng = np.random.default_rng(seed)
        params = init_params(rng, 3, 8, 4)
        for arr in params.as_dict().values():
            arr *= 3.0
        return params, make_sample(rng, t=t)

    def test_manual_checkpoint_pools_with_manual_gate(self):
        params, sample = self.scaled(0)
        smap, _ = network.forward(params, sample.features)

        def selected(rule):
            gate = network.gate_values(gate_margins(smap, rule), "sigmoid")
            return select_classes(pool_and_classify(smap, gate, "gated").probs[0])

        assert selected("predicted") == {0} and selected("manual") == {3}
        for mode in network.THRESHOLD_RULES:
            assert {d.class_id for d in infer_video(params, sample, MANUAL, mode)} <= {3}
            assert {d.class_id for d in infer_video(params, sample, CONFIG, mode)} <= {0}
            assert list(infer_video(params, sample, MANUAL, mode)) == reference_infer(params, sample, mode, MANUAL)
        assert {d.class_id for d in infer_video(params, sample, MANUAL)} == {3}

    @pytest.mark.parametrize(
        "config",
        [
            MANUAL,
            TrainConfig(train_localization="manual", gating="softsign"),
            TrainConfig(train_localization="manual", gating="binarize"),
            TrainConfig(gating="softsign"),
            TrainConfig(gating="binarize"),
            TrainConfig(loss=LossConfig(aggregator="topk_eighth")),
            TrainConfig(train_localization="none", loss=LossConfig(aggregator="topk_eighth")),
        ],
    )
    def test_every_trained_rule_matches_reference(self, config):
        for seed in range(10):
            params, sample = self.scaled(seed, t=20)
            for mode in network.THRESHOLD_RULES:
                assert list(infer_video(params, sample, config, mode)) == reference_infer(params, sample, mode, config)


class TestRunScores:
    def test_run_means_equal_per_run_mean(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(size=(1200, 4))
        runs = []
        for _ in range(400):
            n = int(rng.choice([1, 2, 7, 8, 9, 16, 127, 128, 129, 130, 255, 256, 257, 300, 513, 1000, int(rng.integers(1, 1200))]))
            t0 = int(rng.integers(0, 1200 - n + 1))
            runs.append((int(rng.integers(0, 4)), t0, t0 + n - 1))
        cls, t0s, t1s = np.array(runs).T
        expected = [values[t0 : t1 + 1, c].mean() for c, t0, t1 in runs]
        assert run_means(values, cls, t0s, t1s).tolist() == expected

    @pytest.mark.parametrize("mode", ["predicted", "manual"])
    def test_infer_video_equals_per_run_mean(self, mode):
        rng = np.random.default_rng(7)
        params = init_params(rng, 6, 16, 3)
        for arr in params.as_dict().values():
            arr *= 2.0
        longest = 0
        for i in range(6):
            # slowly drifting features give runs of a few hundred snippets
            t = 700
            drift = np.cumsum(rng.normal(scale=0.15, size=(t, 6)), axis=0)
            sample = VideoSample(
                id=f"v{i}",
                features=(drift + rng.normal(scale=0.05, size=(t, 6))).astype(np.float32),
                labels=frozenset({0}),
                snippet_duration=0.64,
            )
            dets = infer_video(params, sample, CONFIG, mode=mode)
            assert list(dets) == reference_infer(params, sample, mode)
            longest = max([longest] + [round((d.end - d.start) / 0.64) for d in dets])
        assert longest > 128


def written_text(tables, class_names, tmp_path) -> str:
    """The text :func:`write_detections` writes for ``tables``."""
    path = tmp_path / "written.jsonl"
    count = write_detections(tables, class_names, str(path))
    text = path.read_text(encoding="utf-8")
    assert count == text.count("\n")
    return text


class TestDetectionIO:
    RECORDS = (
        Detection("v1", 0, 0.0, 2.5, 0.75),
        Detection("v1", 1, 1.28, 3.84, 0.3333333333333333),
        Detection("v2", 0, 10.0, 11.0, 0.9),
    )

    def make_dets(self):
        return Detections.from_records(self.RECORDS)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "det.jsonl")
        write_detections([self.make_dets()], ("alpha", "beta"), path)
        assert list(load_detections(path)) == list(self.RECORDS)

    def test_jsonl_carries_class_names(self, tmp_path):
        payload = written_text([self.make_dets()], ("alpha", "beta"), tmp_path)
        lines = [json.loads(line) for line in payload.strip().split("\n")]
        assert [obj["class_name"] for obj in lines] == ["alpha", "beta", "alpha"]

    def test_streamed_write_has_the_bytes_of_the_whole_list(self, tmp_path):
        rng = np.random.default_rng(6)
        params = init_params(rng, 3, 4, 2)
        params.flat *= 3.0
        samples = [make_sample(rng, t=t, vid=f"v{i}") for i, t in enumerate((12, 40, 5))]
        dets = Detections.concat(iter_detections(params, samples, CONFIG, "manual"))
        path = str(tmp_path / "det.jsonl")
        assert write_detections(iter_detections(params, samples, CONFIG, "manual"), ("alpha", "beta"), path) == len(dets)
        assert open(path, "rb").read() == written_text([dets], ("alpha", "beta"), tmp_path).encode()
        assert len(dets) > 3

    def test_failed_stream_leaves_the_target_and_no_tmp(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text("old\n")

        def failing():
            yield self.make_dets()
            raise ValidationError("inference failed")

        with pytest.raises(ValidationError, match="inference failed"):
            write_detections(failing(), ("alpha", "beta"), str(path))
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["det.jsonl"]

    def test_write_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_detections([self.make_dets()], ("alpha", "beta"), a)
        write_detections([self.make_dets()], ("alpha", "beta"), b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_bad_line_names_location(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text('{"video_id": "v1"}\n')
        with pytest.raises(ValidationError, match="det.jsonl:1"):
            load_detections(str(path))

    def test_class_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="detection class 5 outside the 1-class space"):
            written_text([Detections.from_records([Detection("v1", 5, 0.0, 1.0, 0.5)])], ("only",), tmp_path)
        assert os.listdir(tmp_path) == []

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValidationError, match="must precede"):
            Detections.from_records([Detection("v1", 0, 2.0, 2.0, 0.5)])

    @pytest.mark.parametrize(
        "start, end", [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_non_finite_interval_rejected(self, start, end):
        with pytest.raises(ValidationError, match="non-finite start"):
            Detections.from_records([Detection("v1", 0, start, end, 0.5)])

    def test_infinite_end_in_file_names_location(self, tmp_path):
        path = tmp_path / "det.jsonl"
        good = '{"video_id": "v1", "class_id": 0, "start_s": 0.0, "end_s": 1.0, "score": 0.5}'
        path.write_text(good + "\n" + good.replace("1.0", "Infinity") + "\n")
        with pytest.raises(ValidationError, match="det.jsonl:2"):
            load_detections(str(path))

    def test_two_records_on_one_line_rejected(self, tmp_path):
        path = tmp_path / "det.jsonl"
        good = '{"video_id": "v1", "class_id": 0, "start_s": 0.0, "end_s": 1.0, "score": 0.5}'
        path.write_text("\n" + good + "\n  \n" + good + " " + good + "\n")
        with pytest.raises(ValidationError, match="det.jsonl:4"):
            load_detections(str(path))

    def test_blank_and_padded_lines_accepted(self, tmp_path):
        path = tmp_path / "det.jsonl"
        good = '{"video_id": "v1", "class_id": 0, "start_s": 0.0, "end_s": 1.0, "score": 0.5}'
        path.write_text("\n \t" + good + "  \n\n" + good + "\n")
        assert list(load_detections(str(path))) == [Detection("v1", 0, 0.0, 1.0, 0.5)] * 2

    def test_lines_equal_json_dumps(self, tmp_path):
        """The direct formatting writes what ``json.dumps(sort_keys=True)`` writes."""
        names = ('plain', 'quo"te', "back\\slash", "caf\u00e9 \u52d5\u4f5c", "tab\tnew\nline", "\U0001f3c3")
        ids = ('v"1', "v\\2", "vid\u00e9o", "\u30d3\u30c7\u30aa", "v\x00\x7f")
        rng = np.random.default_rng(8)
        dets = []
        for i in range(300):
            start = float(rng.choice([0.0, -0.0, 1e-300, 0.1 + 0.2, 1 / 3, 1e16, float(rng.uniform(0, 1e3))]))
            end = max(start + float(rng.choice([0.64, 1e-9, 123456.789, float(rng.uniform(0, 10))])), math.nextafter(start, math.inf))
            score = float(rng.choice([0.0, 1.0, 2.0**-1074, 0.1, float(rng.uniform())]))
            dets.append(Detection(ids[i % len(ids)], i % len(names), start, end, score))
        expected = "".join(
            json.dumps(
                {
                    "video_id": d.video_id,
                    "class_id": d.class_id,
                    "class_name": names[d.class_id],
                    "start_s": d.start,
                    "end_s": d.end,
                    "score": d.score,
                },
                sort_keys=True,
            )
            + "\n"
            for d in dets
        )
        assert written_text([Detections.from_records(dets)], names, tmp_path) == expected

    def test_numpy_scalars_written_as_plain_numbers(self, tmp_path):
        det = Detection("v1", np.int64(1), np.float64(0.5), np.float64(1.5), np.float64(0.25))
        line = written_text([Detections.from_records([det])], ("alpha", "beta"), tmp_path)
        assert line == json.dumps(
            {"class_id": 1, "class_name": "beta", "end_s": 1.5, "score": 0.25, "start_s": 0.5, "video_id": "v1"},
            sort_keys=True,
        ) + "\n"


GOOD_RECORD = {"video_id": "v1", "class_id": 0, "start_s": 0.0, "end_s": 1.0, "score": 0.5}


class TestDetectionFileTypes:
    """JSON types are checked, not converted; errors name ``path:lineno``."""

    @pytest.mark.parametrize(
        "change",
        [
            {"class_id": 3.7},
            {"video_id": 12},
            {"class_id": True},
            {"class_id": "1"},
            {"class_id": None},
            {"end_s": "2"},
            {"start_s": None},
            {"start_s": False},
            {"score": True},
            {"score": [0.5]},
            {"start_s": 10**400, "end_s": 10**401},
        ],
    )
    def test_wrong_type_rejected(self, tmp_path, change):
        path = tmp_path / "det.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps({**GOOD_RECORD, **change}) + "\n")
        with pytest.raises(ValidationError, match="det.jsonl:2"):
            load_detections(str(path))

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "5", "null", "[" * 100000])
    def test_non_object_rejected(self, tmp_path, line):
        path = tmp_path / "det.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValidationError, match="det.jsonl:1"):
            load_detections(str(path))

    def test_integers_accepted_for_times_and_score(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text(json.dumps({**GOOD_RECORD, "start_s": 0, "end_s": 2, "score": 1}) + "\n")
        assert list(load_detections(str(path))) == [Detection("v1", 0, 0.0, 2.0, 1.0)]

    @pytest.mark.parametrize("bad", [b"\xff", b"\xed\xb2\x80", b"\xc3"])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, bad):
        path = tmp_path / "det.jsonl"
        good = json.dumps(GOOD_RECORD).encode()
        path.write_bytes(good + b"\n" + good.replace(b'"v1"', b'"v' + bad + b'"') + b"\n")
        with pytest.raises(ValidationError, match="det.jsonl:2"):
            load_detections(str(path))

    def test_non_ascii_utf8_accepted(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_bytes(json.dumps({**GOOD_RECORD, "video_id": "vid\u00e9o \u52d5"}, ensure_ascii=False).encode() + b"\n")
        assert load_detections(str(path)).video_ids == ("vid\u00e9o \u52d5",)


class TestDetectionRecord:
    def test_is_an_immutable_tuple(self):
        d = Detection("v1", 2, 0.5, 1.5, 0.25)
        assert isinstance(d, tuple) and tuple(d) == ("v1", 2, 0.5, 1.5, 0.25)
        assert Detection._fields == ("video_id", "class_id", "start", "end", "score")
        assert (d.video_id, d.class_id, d.start, d.end, d.score) == tuple(d)
        with pytest.raises(AttributeError):
            d.start = 0.0
        with pytest.raises(AttributeError):
            d.extra = 1
        assert not hasattr(d, "__dict__")

    def test_keyword_construction(self):
        assert Detection(video_id="v1", class_id=0, start=0.0, end=1.0, score=0.5) == Detection("v1", 0, 0.0, 1.0, 0.5)

    def test_equality_and_hashing(self):
        a, b = Detection("v1", 0, 0.0, 1.0, 0.5), Detection("v1", 0, 0.0, 1.0, 0.5)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Detection("v1", 0, 0.0, 1.0, 0.75)
        assert a != Detection("v2", 0, 0.0, 1.0, 0.5)

    def test_building_checks_nothing(self):
        """A row is a plain tuple: the table, not the row, validates."""
        d = Detection("v1", 0, 2.0, 2.0, 0.5)
        assert d._replace(end=math.inf) == ("v1", 0, 2.0, math.inf, 0.5)
        with pytest.raises(ValidationError, match="must precede"):
            Detections.from_records([d])

    def test_valid_paths_round_trip(self):
        d = Detection("v1", 0, 0.0, 1.0, 0.5)
        assert Detection._make(tuple(d)) == d
        assert d._replace(score=0.75) == Detection("v1", 0, 0.0, 1.0, 0.75)
        assert pickle.loads(pickle.dumps(d)) == d and type(pickle.loads(pickle.dumps(d))) is Detection
        assert copy.deepcopy(d) == d


class TestEndToEnd:
    def test_recovers_planted_segments_on_clean_data(self):
        from ttcloc.objectives import LossConfig
        from ttcloc.synth import SynthSpec, generate
        from ttcloc.trainer import run_training

        spec = SynthSpec(
            num_classes=2,
            feature_dim=6,
            videos_per_class=4,
            snippets_min=16,
            snippets_max=20,
            segments_min=1,
            segments_max=1,
            segment_len_min=4,
            segment_len_max=6,
            noise_scale=0.0,
            prototype_scale=6.0,
            seed=5,
        )
        _, samples = generate(spec)
        cfg = TrainConfig(
            batch_size=4,
            max_clip_len=32,
            iterations=600,
            hidden_dim=64,
            dropout=0.7,
            learning_rate=5e-3,
            loss=LossConfig(clas_weight=0.5, loc_weight=0.0),
            seed=0,
        )
        state, _ = run_training(samples, 2, cfg)
        matched = 0
        total = 0
        for sample in samples:
            dets = infer_video(state.params, sample, cfg)
            for seg in sample.segments:
                total += 1
                for d in dets:
                    if d.class_id != seg.class_id:
                        continue
                    inter = max(0.0, min(d.end, seg.end) - max(d.start, seg.start))
                    union = (d.end - d.start) + (seg.end - seg.start) - inter
                    if union > 0 and inter / union >= 0.99:
                        matched += 1
                        break
        assert matched / total >= 0.9
