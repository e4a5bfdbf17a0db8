import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ttcloc.data import DatasetManifest, GroundTruthSegment, VideoRecord
from ttcloc.errors import ValidationError
from ttcloc.evaluator import (
    ORACLE_MAX_DETECTIONS,
    EvalReport,
    average_precision,
    evaluate,
    index_from_videos,
    index_from_rows,
    interval_iou,
    match_detections,
    oracle_evaluate,
    render_report_csv,
    render_report_json,
)
from ttcloc.localizer import Detection, Detections


def evaluate_records(dets, gt, thresholds, **kwargs):
    """``evaluate`` on the table of the ``Detection`` list ``dets``."""
    return evaluate(Detections.from_records(dets), gt, thresholds, **kwargs)


def match_records(dets, gts, thresholds):
    """``match_detections`` on the table of the ``Detection`` list ``dets``."""
    return match_detections(Detections.from_records(dets), gts, thresholds)


def gt_index(rows, num_classes=2, videos=("v1", "v2", "v3")):
    return index_from_rows(num_classes, videos, rows)


def det(vid="v1", cls=0, start=0.0, end=1.0, score=0.5):
    return Detection(vid, cls, start, end, score)


class TestIntervalIoU:
    def test_partial_overlap(self):
        assert interval_iou((0.0, 10.0), (5.0, 15.0)) == 5.0 / 15.0

    def test_identical(self):
        assert interval_iou((2.0, 7.0), (2.0, 7.0)) == 1.0

    def test_disjoint(self):
        assert interval_iou((0.0, 1.0), (5.0, 6.0)) == 0.0

    def test_touching_is_disjoint(self):
        assert interval_iou((0.0, 5.0), (5.0, 9.0)) == 0.0

    def test_containment(self):
        assert interval_iou((0.0, 10.0), (2.0, 4.0)) == 0.2

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            interval_iou((3.0, 3.0), (0.0, 1.0))


class TestMatchDetections:
    GT = [("v1", 0.0, 10.0)]

    def test_perfect_cover_is_tp(self):
        assert match_records([det(start=0.0, end=10.0)], self.GT, (0.5,))[0].tolist() == [True]

    def test_duplicate_credits_once(self):
        dets = [det(start=0.0, end=10.0, score=0.9), det(start=0.5, end=10.0, score=0.4)]
        assert match_records(dets, self.GT, (0.5,))[0].tolist() == [True, False]

    def test_low_iou_is_fp(self):
        assert match_records([det(start=0.0, end=4.0)], self.GT, (0.5,))[0].tolist() == [False]

    def test_iou_exactly_at_threshold_counts(self):
        # IoU 0.5 at threshold 0.5: the >= convention keeps it
        assert match_records([det(start=0.0, end=5.0)], self.GT, (0.5,))[0].tolist() == [True]

    def test_claims_highest_iou_gt(self):
        gts = [("v1", 0.0, 10.0), ("v1", 8.0, 18.0)]
        dets = [det(start=7.0, end=18.0, score=0.9), det(start=0.0, end=10.0, score=0.5)]
        flags = match_records(dets, gts, (0.3,))[0].tolist()
        assert flags == [True, True]  # first takes the second GT, second takes the first

    def test_wrong_video_never_matches(self):
        assert match_records([det(vid="v2", start=0.0, end=10.0)], self.GT, (0.5,))[0].tolist() == [False]

    def test_tie_break_earlier_start_then_video(self):
        gts = [("v1", 0.0, 10.0)]
        d1 = det(vid="v1", start=5.0, end=15.0, score=0.5)
        d2 = det(vid="v1", start=0.0, end=10.0, score=0.5)
        # same score: earlier start goes first and wins the GT
        assert match_records([d1, d2], gts, (0.5,))[0].tolist() == [True, False]
        flags = match_records([d2, d1], gts, (0.5,))[0].tolist()
        assert flags == [True, False]


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([True], 1) == 1.0

    def test_tp_then_fp(self):
        assert average_precision([True, False], 1) == 1.0

    def test_fp_then_tp(self):
        assert average_precision([False, True], 1) == 0.5

    def test_no_gt_excluded(self):
        assert average_precision([False, False], 0) is None

    def test_two_gt_one_found(self):
        assert average_precision([True, False], 2) == 0.5

    def test_interleaved(self):
        # precisions at TP ranks: 1/1, 2/3 -> AP = (1 + 2/3) / 2
        assert average_precision([True, False, True], 2) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


class TestEvaluate:
    def test_empty_detections_zero_map(self):
        gt = gt_index([("v1", 0, 0.0, 5.0)])
        report = evaluate_records([], gt, (0.5,))
        assert report.map_per_threshold == (0.0,)
        assert report.per_class_ap[0][0] == 0.0
        assert report.per_class_ap[0][1] is None  # class without GT excluded

    def test_no_gt_at_all_rejected(self):
        gt = gt_index([])
        with pytest.raises(ValidationError, match="no segments"):
            evaluate_records([], gt, (0.5,))

    def test_unknown_video_rejected(self):
        gt = gt_index([("v1", 0, 0.0, 5.0)])
        with pytest.raises(ValidationError, match="unknown video"):
            evaluate_records([det(vid="nope")], gt, (0.5,))

    def test_unknown_class_rejected(self):
        gt = gt_index([("v1", 0, 0.0, 5.0)])
        with pytest.raises(ValidationError, match="class"):
            evaluate_records([det(cls=7)], gt, (0.5,))

    def test_bad_threshold_rejected(self):
        gt = gt_index([("v1", 0, 0.0, 5.0)])
        for bad in ((), (0.0,), (1.5,)):
            with pytest.raises(ValidationError):
                evaluate_records([], gt, bad)

    @pytest.mark.parametrize("thresholds", [(0.5, 0.5), (0.5, 0.5000001), (0.3, 0.7, 0.30000001)])
    def test_thresholds_with_one_report_label_rejected(self, thresholds):
        # the report keys each threshold by its label, which would keep only one of them
        gt = gt_index([("v1", 0, 0.0, 5.0)])
        for scorer in (evaluate_records, oracle_evaluate):
            with pytest.raises(ValidationError, match="share report labels"):
                scorer([det()], gt, thresholds)

    def test_three_fixtures(self):
        gt = gt_index([("v1", 0, 0.0, 10.0)], num_classes=1)
        r1 = evaluate_records([det(start=0.0, end=10.0, score=0.9)], gt, (0.5,))
        assert r1.per_class_ap[0][0] == 1.0
        r2 = evaluate_records(
            [det(start=0.0, end=10.0, score=0.9), det(start=0.0, end=3.0, score=0.4)], gt, (0.5,)
        )
        assert r2.per_class_ap[0][0] == 1.0
        r3 = evaluate_records(
            [det(start=20.0, end=30.0, score=0.9), det(start=0.0, end=10.0, score=0.4)], gt, (0.5,)
        )
        assert r3.per_class_ap[0][0] == 0.5

    def test_counts(self):
        gt = gt_index([("v1", 0, 0.0, 10.0), ("v2", 0, 0.0, 10.0)], num_classes=1)
        dets = [
            det(vid="v1", start=0.0, end=10.0, score=0.9),
            det(vid="v1", start=0.0, end=10.0, score=0.8),
            det(vid="v2", start=50.0, end=60.0, score=0.7),
        ]
        report = evaluate_records(dets, gt, (0.5,))
        assert report.per_class_counts[0][0] == (1, 2, 2)

    def test_ap_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gt, dets, _ = random_instance(rng)
            report = evaluate_records(dets, gt, (0.1, 0.3, 0.5, 0.7, 0.9))
            for c in range(gt.num_classes):
                aps = [report.per_class_ap[i][c] for i in range(5)]
                aps = [a for a in aps if a is not None]
                for hi, lo in zip(aps, aps[1:]):
                    assert lo <= hi + 1e-12

    def test_score_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            gt, dets, thresholds = random_instance(rng)
            scaled = [Detection(d.video_id, d.class_id, d.start, d.end, d.score * 2.0) for d in dets]
            assert evaluate_records(dets, gt, thresholds) == evaluate_records(scaled, gt, thresholds)

    def test_extra_fp_never_raises_ap(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            gt, dets, thresholds = random_instance(rng)
            report = evaluate_records(dets, gt, thresholds)
            noise = Detection("v1", 0, 900.0, 901.0, float(rng.uniform(0, 1)))
            worse = evaluate_records(dets + [noise], gt, thresholds)
            for i in range(len(thresholds)):
                a = report.per_class_ap[i][0]
                b = worse.per_class_ap[i][0]
                if a is not None:
                    assert b <= a + 1e-12


def random_instance(rng, max_videos=3, max_dets=6, max_gts=4):
    num_classes = int(rng.integers(1, 4))
    videos = tuple(f"v{i + 1}" for i in range(int(rng.integers(1, max_videos + 1))))
    rows = []
    for _ in range(int(rng.integers(1, max_gts + 1))):
        start = float(rng.uniform(0, 20))
        rows.append(
            (
                str(rng.choice(videos)),
                int(rng.integers(0, num_classes)),
                start,
                start + float(rng.uniform(0.5, 8.0)),
            )
        )
    dets = []
    for _ in range(int(rng.integers(0, max_dets + 1))):
        start = float(rng.uniform(0, 20))
        score = float(rng.uniform(0, 1))
        if rng.uniform() < 0.4:
            score = round(score, 1)  # provoke score ties
        dets.append(
            Detection(
                str(rng.choice(videos)),
                int(rng.integers(0, num_classes)),
                start,
                start + float(rng.uniform(0.5, 8.0)),
                score,
            )
        )
    thresholds = tuple(sorted(rng.choice([0.1, 0.3, 0.5, 0.7], size=int(rng.integers(1, 4)), replace=False).tolist()))
    return gt_index(rows, num_classes, videos), dets, thresholds


def assert_reports_equal(a: EvalReport, b: EvalReport, tol=1e-12):
    assert a.iou_thresholds == b.iou_thresholds
    assert a.per_class_counts == b.per_class_counts
    for i in range(len(a.iou_thresholds)):
        for c in range(len(a.class_names)):
            x, y = a.per_class_ap[i][c], b.per_class_ap[i][c]
            if x is None or y is None:
                assert x is y
            else:
                assert abs(x - y) <= tol
    for x, y in zip(a.map_per_threshold, b.map_per_threshold):
        assert abs(x - y) <= tol
    assert abs(a.average_map - b.average_map) <= tol


class TestOracleAgreement:
    def test_fixtures_match_oracle(self):
        gt = gt_index([("v1", 0, 0.0, 10.0)], num_classes=1)
        for dets in (
            [det(start=0.0, end=10.0, score=0.9)],
            [det(start=0.0, end=10.0, score=0.9), det(start=0.0, end=3.0, score=0.4)],
            [det(start=20.0, end=30.0, score=0.9), det(start=0.0, end=10.0, score=0.4)],
        ):
            assert_reports_equal(evaluate_records(dets, gt, (0.5,)), oracle_evaluate(dets, gt, (0.5,)))

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            gt, dets, thresholds = random_instance(rng)
            assert_reports_equal(evaluate_records(dets, gt, thresholds), oracle_evaluate(dets, gt, thresholds))

    def test_oracle_rejects_large_instances(self):
        gt = gt_index([("v1", 0, 0.0, 10.0)], num_classes=1)
        dets = [det(score=0.1 * i + 0.01) for i in range(11)]
        with pytest.raises(ValidationError, match="oracle"):
            oracle_evaluate(dets, gt, (0.5,))


class TestManifestIndex:
    def manifest(self):
        records = (
            VideoRecord("v1", 10, 4, (0,), 1.0, (GroundTruthSegment(0, 1.0, 3.0),)),
            VideoRecord("v2", 10, 4, (1,), 1.0, None),
        )
        return DatasetManifest(num_classes=2, class_names=("a", "b"), records=records)

    def test_index_collects_segments(self):
        manifest = self.manifest()
        gt = index_from_videos(manifest.records, manifest.num_classes)
        assert gt.by_class[0] == (("v1", 1.0, 3.0),)
        assert gt.by_class[1] == ()
        assert gt.video_ids == {"v1", "v2"}


class TestRendering:
    def report(self):
        gt = gt_index([("v1", 0, 0.0, 10.0)], num_classes=2)
        return evaluate_records([det(start=0.0, end=10.0, score=0.9)], gt, (0.3, 0.5), class_names=("jump", "run"))

    def test_csv_layout(self):
        csv = render_report_csv(self.report())
        lines = csv.strip().split("\n")
        assert lines[0] == "class,ap@0.3,ap@0.5,average"
        assert lines[1].startswith("jump,1.000000,1.000000,1.000000")
        assert lines[2] == "run,,,"
        assert lines[3].startswith("mAP,1.000000,1.000000")

    def test_json_round_trips(self):
        import json

        obj = json.loads(render_report_json(self.report()))
        assert obj["map"]["0.5"] == 1.0
        assert obj["per_class"]["run"]["ap"]["0.3"] is None
        assert obj["per_class"]["jump"]["counts"]["0.5"] == {"tp": 1, "fp": 0, "num_gt": 1}

    def test_rendering_deterministic(self):
        assert render_report_csv(self.report()) == render_report_csv(self.report())
        assert render_report_json(self.report()) == render_report_json(self.report())


def reference_match(dets, gts, iou_thresh):
    """The single-threshold matcher ``evaluate`` used to call per threshold."""
    by_video = {}
    for j, (vid, gs, ge) in enumerate(gts):
        by_video.setdefault(vid, []).append((j, gs, ge))
    used = set()
    flags = []
    for d in sorted(dets, key=lambda d: (-d.score, d.start, d.video_id)):
        best_iou = -1.0
        best_j = -1
        for j, gs, ge in by_video.get(d.video_id, ()):
            if j in used:
                continue
            iou = scalar_iou((d.start, d.end), (gs, ge))
            if iou >= iou_thresh and iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j >= 0:
            used.add(best_j)
            flags.append(True)
        else:
            flags.append(False)
    return flags


def reference_evaluate(dets, gt, thresholds):
    """Per-threshold, per-class matching as ``evaluate`` did it before."""
    ap_rows, count_rows, maps = [], [], []
    for thresh in thresholds:
        aps, counts = [], []
        for c in range(gt.num_classes):
            flags = reference_match([d for d in dets if d.class_id == c], gt.by_class[c], thresh)
            num_gt = len(gt.by_class[c])
            counts.append((sum(flags), len(flags) - sum(flags), num_gt))
            aps.append(average_precision(flags, num_gt))
        defined = [a for a in aps if a is not None]
        maps.append(sum(defined) / len(defined))
        ap_rows.append(tuple(aps))
        count_rows.append(tuple(counts))
    return tuple(ap_rows), tuple(count_rows), tuple(maps), sum(maps) / len(maps)


def large_instance(rng, num_classes=4, num_videos=5, num_gts=40, num_dets=400):
    """Many detections on a half-second grid, so IoUs tie as well as scores."""
    videos = tuple(f"v{i}" for i in range(num_videos))

    def interval():
        start = 0.5 * int(rng.integers(0, 80))
        return start, start + 0.5 * int(rng.integers(1, 16))

    rows = [(str(rng.choice(videos)), int(rng.integers(0, num_classes)), *interval()) for _ in range(num_gts)]
    dets = [
        Detection(str(rng.choice(videos)), int(rng.integers(0, num_classes)), *interval(), float(rng.choice([0.2, 0.5, 0.9])) if rng.uniform() < 0.5 else float(rng.uniform()))
        for _ in range(num_dets)
    ]
    return gt_index(rows, num_classes, videos), dets


class TestAllThresholdsAtOnce:
    THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)

    def test_evaluate_equals_per_threshold_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gt, dets = large_instance(rng)
            report = evaluate_records(dets, gt, self.THRESHOLDS)
            ap, counts, maps, average = reference_evaluate(dets, gt, self.THRESHOLDS)
            assert report.per_class_ap == ap
            assert report.per_class_counts == counts
            assert report.map_per_threshold == maps
            assert report.average_map == average

    def test_threshold_sequence_equals_single_calls(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            gt, dets = large_instance(rng, num_classes=1)
            gts = gt.by_class[0]
            per_threshold = [f.tolist() for f in match_records(dets, gts, self.THRESHOLDS)]
            assert per_threshold == [match_records(dets, gts, (t,))[0].tolist() for t in self.THRESHOLDS]
            assert per_threshold == [reference_match(dets, gts, t) for t in self.THRESHOLDS]


def scalar_iou(a, b):
    """The scalar IoU, as plain Python float operations."""
    (a0, a1), (b0, b1) = a, b
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union if union > 0 else 0.0


def per_record_match(dets, gts, thresholds):
    """The per-record matcher ``evaluate`` used before the columnar one.

    It sorts records by a Python key and computes one IoU at a time.
    """
    by_video = {}
    for j, (vid, gs, ge) in enumerate(gts):
        by_video.setdefault(vid, []).append((j, gs, ge))
    ranked = sorted(dets, key=lambda d: (-d.score, d.start, d.video_id))
    lowest = min(thresholds, default=0.0)
    candidates = []
    for rank, d in enumerate(ranked):
        row = [(scalar_iou((d.start, d.end), (gs, ge)), j) for j, gs, ge in by_video.get(d.video_id, ())]
        row.sort(key=lambda pair: pair[0], reverse=True)
        if row and row[0][0] >= lowest:
            candidates.append((rank, row))

    def flags_at(thresh):
        used = set()
        flags = [False] * len(ranked)
        for rank, row in candidates:
            for iou, j in row:
                if iou < thresh:
                    break
                if j not in used:
                    used.add(j)
                    flags[rank] = True
                    break
        return flags

    return [flags_at(t) for t in thresholds]


def per_flag_ap(flags, num_gt):
    """AP as a loop over every flag, the order the columnar sum must keep."""
    if num_gt == 0:
        return None
    tp = 0
    total = 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
            total += tp / rank
    return total / num_gt


def tied_instance(rng, num_dets, num_gts, num_classes=3):
    """Detections on a quarter-second grid with few distinct scores, so scores,
    starts, video ids and IoUs all tie; ids sort differently as strings and
    as numbers ("v10" < "v2")."""
    videos = [f"v{i}" for i in range(12)] + ["V", "v", "vé"]

    def interval():
        start = 0.25 * int(rng.integers(-4, 200))
        return start, start + 0.25 * int(rng.integers(1, 24))

    rows = [(str(rng.choice(videos)), int(rng.integers(0, num_classes)), *interval()) for _ in range(num_gts)]
    scores = [0.0, -0.0, 0.25, 0.5, 0.5 + 1e-16, 0.9, 1.0]
    dets = [
        Detection(
            str(rng.choice(videos)),
            int(rng.integers(0, num_classes)),
            *interval(),
            float(rng.choice(scores)) if rng.uniform() < 0.8 else float(rng.uniform()),
        )
        for _ in range(num_dets)
    ]
    return gt_index(rows, num_classes, videos), dets


class TestColumnarMatcherEqualsPerRecordLoop:
    THRESHOLDS = (0.1, 0.2, 0.25, 1 / 3, 0.5, 0.6, 0.75, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flags_and_ap_exactly_equal(self, seed):
        rng = np.random.default_rng(seed)
        gt, dets = tied_instance(rng, num_dets=12000, num_gts=600)
        for c in range(gt.num_classes):
            class_dets = [d for d in dets if d.class_id == c]
            gts = gt.by_class[c]
            columnar = match_records(class_dets, gts, self.THRESHOLDS)
            reference = per_record_match(class_dets, gts, self.THRESHOLDS)
            assert [f.tolist() for f in columnar] == reference
            assert any(any(f) for f in reference)
            for flags, ref in zip(columnar, reference):
                assert average_precision(flags, len(gts)) == per_flag_ap(ref, len(gts))

    def test_input_order_breaks_full_ties(self):
        # identical keys keep input order; the first copy claims the ground truth
        gts = [("v1", 0.0, 10.0)]
        twins = [det(start=0.0, end=10.0, score=0.5), det(start=0.0, end=8.0, score=0.5)]
        assert match_records(twins, gts, (0.5,))[0].tolist() == [True, False]
        assert match_records(twins[::-1], gts, (0.5,))[0].tolist() == [True, False]
        assert per_record_match(twins[::-1], gts, (0.5,)) == [[True, False]]

    def test_score_ties_rank_by_start_then_video_then_input_order(self):
        gts = [("a", 0.0, 1.0), ("b", 0.0, 1.0)]
        spans = [("a", 0.0, 3.0), ("a", 0.0, 1.0), ("b", 0.0, 3.0), ("b", 0.5, 1.0)]
        r1, r2, r3, r4 = (det(vid=v, start=s, end=e) for v, s, e in spans)
        # one score for all: r4 starts last; of the three that start at 0, r1 and
        # r2 lie in video "a", before "b"; they tie on every key, so input order ranks r1 first
        dets = [r4, r3, r1, r2]
        expected = [False, True, False, True]  # ranks r1, r2, r3, r4
        assert match_records(dets, gts, (0.5,))[0].tolist() == expected
        assert per_record_match(dets, gts, (0.5,)) == [expected]
        gt = gt_index([("a", 0, 0.0, 1.0), ("b", 0, 0.0, 1.0)], 1, ("a", "b"))
        for report in (evaluate_records(dets, gt, (0.5,)), oracle_evaluate(dets, gt, (0.5,))):
            assert report.per_class_ap[0][0] == (1 / 2 + 2 / 4) / 2

    def test_video_ids_rank_in_string_order(self):
        gts = [("v10", 0.0, 10.0), ("v2", 0.0, 10.0)]
        dets = [det(vid="v2", start=0.0, end=10.0, score=0.5), det(vid="v10", start=0.0, end=1.0, score=0.5)]
        # "v10" < "v2": the v10 miss ranks first
        assert match_records(dets, gts, (0.5,))[0].tolist() == [False, True]
        assert per_record_match(dets, gts, (0.5,)) == [[False, True]]

    def test_empty_inputs(self):
        assert [f.tolist() for f in match_records([], [("v1", 0.0, 1.0)], (0.3, 0.5))] == [[], []]
        assert [f.tolist() for f in match_records([det()], [], (0.5,))] == [[False]]


class TestArrayIoU:
    def test_block_equals_scalar_bit_for_bit(self):
        rng = np.random.default_rng(4)
        grid = np.concatenate([0.25 * rng.integers(-8, 40, size=300), rng.uniform(-2, 10, size=300), [0.0, -0.0, 1e-300]])
        a0 = rng.choice(grid, size=400)
        a1 = a0 + rng.choice([0.25, 0.5, 1.0, 1e-9, 3.7, 1e6], size=400)
        b0 = rng.choice(grid, size=60)
        b1 = b0 + rng.choice([0.25, 0.5, 2.0, 1e-12, 5.3], size=60)
        block = interval_iou((a0[:, None], a1[:, None]), (b0, b1))
        assert block.shape == (400, 60)
        expected = np.array([[scalar_iou((x0, x1), (y0, y1)) for y0, y1 in zip(b0.tolist(), b1.tolist())] for x0, x1 in zip(a0.tolist(), a1.tolist())])
        assert block.tobytes() == expected.tobytes()
        assert (block > 0).any() and (block == 1.0).any() and (block == 0.0).any()

    def test_scalar_call_is_a_float(self):
        iou = interval_iou((0.0, 10.0), (5.0, 15.0))
        assert np.ndim(iou) == 0 and float(iou) == scalar_iou((0.0, 10.0), (5.0, 15.0))

    def test_degenerate_entry_in_block_rejected(self):
        with pytest.raises(ValidationError):
            interval_iou((np.array([[0.0], [2.0]]), np.array([[1.0], [2.0]])), (np.array([0.0]), np.array([1.0])))


TIES = settings(derandomize=True, database=None, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
grid_times = st.integers(0, 12).map(lambda k: 0.5 * k)


@st.composite
def tied_instances(draw):
    """Up to 10 detections per class on a half-second grid with three scores."""
    num_classes = draw(st.integers(1, 3))
    videos = ("a", "B", "a0", "b")
    span = st.tuples(st.sampled_from(videos), grid_times, st.integers(1, 6).map(lambda k: 0.5 * k))
    rows = [(v, draw(st.integers(0, num_classes - 1)), s, s + n) for v, s, n in draw(st.lists(span, min_size=1, max_size=6))]
    dets = []
    for c in range(num_classes):
        for v, s, n in draw(st.lists(span, max_size=ORACLE_MAX_DETECTIONS)):
            dets.append(Detection(v, c, s, s + n, draw(st.sampled_from([0.2, 0.5, 0.9]))))
    dets = draw(st.permutations(dets))
    thresholds = tuple(sorted(draw(st.sets(st.sampled_from([0.1, 1 / 3, 0.5, 0.7, 1.0]), min_size=1))))
    return gt_index(rows, num_classes, videos), dets, thresholds


@TIES
@given(tied_instances())
def test_evaluate_equals_oracle_on_tied_instances(instance):
    gt, dets, thresholds = instance
    assert_reports_equal(evaluate_records(dets, gt, thresholds), oracle_evaluate(dets, gt, thresholds))


@st.composite
def permuted_tables(draw):
    """A table whose rows differ in (score, start, video id), the key that
    ranks them, and a permutation of its rows.  Scores come from a small set
    as well as a range, so ties in score are common; every table with
    distinct scores is among those drawn."""
    num_classes = draw(st.integers(1, 3))
    videos = ("a", "B", "a0", "b")
    starts, lengths = st.integers(0, 4).map(lambda k: 0.5 * k), st.integers(1, 4).map(lambda k: 0.5 * k)
    span = st.tuples(st.sampled_from(videos), starts, lengths)
    rows = [(v, draw(st.integers(0, num_classes - 1)), s, s + n) for v, s, n in draw(st.lists(span, min_size=1, max_size=8))]
    key = st.tuples(st.sampled_from([0.2, 0.5, 0.9]) | st.floats(0.01, 1.0), starts, st.sampled_from(videos))
    dets = [
        Detection(v, draw(st.integers(0, num_classes - 1)), s, s + draw(lengths), score)
        for score, s, v in draw(st.lists(key, max_size=30, unique=True))
    ]
    perm = np.array(draw(st.permutations(range(len(dets)))), dtype=np.int64)
    thresholds = tuple(sorted(draw(st.sets(st.sampled_from([0.1, 1 / 3, 0.5, 0.7, 1.0]), min_size=1))))
    return gt_index(rows, num_classes, videos), Detections.from_records(dets), perm, thresholds


@TIES
@given(permuted_tables())
def test_evaluate_ignores_row_order(instance):
    gt, table, perm, thresholds = instance
    report = render_report_json(evaluate(table, gt, thresholds))
    assert render_report_json(evaluate(table.take(perm), gt, thresholds)) == report


@st.composite
def labeled_instances(draw):
    """Videos with ground truth (at least one segment), a table of
    detections on them, distinct class names and thresholds."""
    num_classes = draw(st.integers(1, 4))
    starts, lengths = st.integers(0, 6).map(lambda k: 0.5 * k), st.integers(1, 4).map(lambda k: 0.5 * k)
    records = []
    for vid in draw(st.lists(st.sampled_from(("a", "B", "a0", "b")), min_size=1, unique=True)):
        spans = draw(st.lists(st.tuples(st.integers(0, num_classes - 1), starts, lengths), max_size=4))
        segments = tuple(GroundTruthSegment(c, s, s + n) for c, s, n in spans)
        labels = tuple(sorted({seg.class_id for seg in segments})) or (0,)
        records.append(VideoRecord(vid, 8, 1, labels, 1.0, segments))
    if not any(r.segments for r in records):
        records[0] = replace(records[0], segments=(GroundTruthSegment(0, 0.0, 1.0),))
    row = st.tuples(st.sampled_from([r.id for r in records]), st.integers(0, num_classes - 1), starts, lengths)
    dets = [
        Detection(v, c, s, s + n, draw(st.sampled_from([0.2, 0.5, 0.9]) | st.floats(0.01, 1.0)))
        for v, c, s, n in draw(st.lists(row, max_size=20))
    ]
    names = tuple(draw(st.lists(st.text("xyz", min_size=1, max_size=3), min_size=num_classes, max_size=num_classes, unique=True)))
    thresholds = tuple(sorted(draw(st.sets(st.sampled_from([0.1, 1 / 3, 0.5, 0.7, 1.0]), min_size=1))))
    return records, Detections.from_records(dets), names, thresholds


@TIES
@given(labeled_instances(), st.data())
def test_relabeling_classes_permutes_the_report(instance, data):
    """Class c becomes class perm[c], in the ground truth, the detections and
    the names: each class keeps its AP and counts exactly, under its name,
    and mAP moves by rounding alone."""
    records, table, names, thresholds = instance
    n = len(names)
    perm = data.draw(st.permutations(range(n)))
    report = evaluate(table, index_from_videos(records, n), thresholds, class_names=names)
    moved_records = [
        replace(
            r,
            labels=tuple(sorted(perm[c] for c in r.labels)),
            segments=tuple(replace(seg, class_id=perm[seg.class_id]) for seg in r.segments),
        )
        for r in records
    ]
    moved_table = Detections(
        table.video_ids, table.video_index, np.array(perm, dtype=np.int64)[table.class_id], table.start, table.end, table.score
    )
    moved_names = tuple(names[perm.index(k)] for k in range(n))
    moved = evaluate(moved_table, index_from_videos(moved_records, n), thresholds, class_names=moved_names)
    for i in range(len(thresholds)):
        assert [moved.per_class_ap[i][perm[c]] for c in range(n)] == list(report.per_class_ap[i])
        assert [moved.per_class_counts[i][perm[c]] for c in range(n)] == list(report.per_class_counts[i])
        assert abs(moved.map_per_threshold[i] - report.map_per_threshold[i]) <= 1e-12
    assert abs(moved.average_map - report.average_map) <= 1e-12
    assert json.loads(render_report_json(moved))["per_class"] == json.loads(render_report_json(report))["per_class"]


@TIES
@given(labeled_instances(), st.sampled_from([None, ()]))
def test_appended_empty_video_changes_no_report_byte(instance, segments):
    """A video with no ground truth (no segment list, or an empty one) and no
    detections adds nothing to any AP."""
    records, table, names, thresholds = instance
    extra = VideoRecord("extra", 8, 1, (0,), 1.0, segments)
    report = render_report_json(evaluate(table, index_from_videos(records, len(names)), thresholds, class_names=names))
    appended = index_from_videos([*records, extra], len(names))
    assert render_report_json(evaluate(table, appended, thresholds, class_names=names)) == report
