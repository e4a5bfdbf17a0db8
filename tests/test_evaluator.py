import numpy as np
import pytest

from ttcloc.data import DatasetManifest, GroundTruthSegment, VideoRecord
from ttcloc.errors import ValidationError
from ttcloc.evaluator import (
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
from ttcloc.localizer import Detection


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
        assert match_detections([det(start=0.0, end=10.0)], self.GT, (0.5,))[0] == [True]

    def test_duplicate_credits_once(self):
        dets = [det(start=0.0, end=10.0, score=0.9), det(start=0.5, end=10.0, score=0.4)]
        assert match_detections(dets, self.GT, (0.5,))[0] == [True, False]

    def test_low_iou_is_fp(self):
        assert match_detections([det(start=0.0, end=4.0)], self.GT, (0.5,))[0] == [False]

    def test_iou_exactly_at_threshold_counts(self):
        # IoU 0.5 at threshold 0.5: the >= convention keeps it
        assert match_detections([det(start=0.0, end=5.0)], self.GT, (0.5,))[0] == [True]

    def test_claims_highest_iou_gt(self):
        gts = [("v1", 0.0, 10.0), ("v1", 8.0, 18.0)]
        dets = [det(start=7.0, end=18.0, score=0.9), det(start=0.0, end=10.0, score=0.5)]
        flags = match_detections(dets, gts, (0.3,))[0]
        assert flags == [True, True]  # first takes the second GT, second takes the first

    def test_wrong_video_never_matches(self):
        assert match_detections([det(vid="v2", start=0.0, end=10.0)], self.GT, (0.5,))[0] == [False]

    def test_tie_break_earlier_start_then_video(self):
        gts = [("v1", 0.0, 10.0)]
        d1 = det(vid="v1", start=5.0, end=15.0, score=0.5)
        d2 = det(vid="v1", start=0.0, end=10.0, score=0.5)
        # same score: earlier start goes first and wins the GT
        assert match_detections([d1, d2], gts, (0.5,))[0] == [True, False]
        flags = match_detections([d2, d1], gts, (0.5,))[0]
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
        report = evaluate([], gt, (0.5,))
        assert report.map_per_threshold == (0.0,)
        assert report.per_class_ap[0][0] == 0.0
        assert report.per_class_ap[0][1] is None  # class without GT excluded

    def test_no_gt_at_all_rejected(self):
        gt = gt_index([])
        with pytest.raises(ValidationError, match="no segments"):
            evaluate([], gt, (0.5,))

    def test_unknown_video_rejected(self):
        gt = gt_index([("v1", 0, 0.0, 5.0)])
        with pytest.raises(ValidationError, match="unknown video"):
            evaluate([det(vid="nope")], gt, (0.5,))

    def test_unknown_class_rejected(self):
        gt = gt_index([("v1", 0, 0.0, 5.0)])
        with pytest.raises(ValidationError, match="class"):
            evaluate([det(cls=7)], gt, (0.5,))

    def test_bad_threshold_rejected(self):
        gt = gt_index([("v1", 0, 0.0, 5.0)])
        for bad in ((), (0.0,), (1.5,)):
            with pytest.raises(ValidationError):
                evaluate([], gt, bad)

    def test_three_fixtures(self):
        gt = gt_index([("v1", 0, 0.0, 10.0)], num_classes=1)
        r1 = evaluate([det(start=0.0, end=10.0, score=0.9)], gt, (0.5,))
        assert r1.per_class_ap[0][0] == 1.0
        r2 = evaluate(
            [det(start=0.0, end=10.0, score=0.9), det(start=0.0, end=3.0, score=0.4)], gt, (0.5,)
        )
        assert r2.per_class_ap[0][0] == 1.0
        r3 = evaluate(
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
        report = evaluate(dets, gt, (0.5,))
        assert report.per_class_counts[0][0] == (1, 2, 2)

    def test_ap_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gt, dets, _ = random_instance(rng)
            report = evaluate(dets, gt, (0.1, 0.3, 0.5, 0.7, 0.9))
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
            assert evaluate(dets, gt, thresholds) == evaluate(scaled, gt, thresholds)

    def test_extra_fp_never_raises_ap(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            gt, dets, thresholds = random_instance(rng)
            report = evaluate(dets, gt, thresholds)
            noise = Detection("v1", 0, 900.0, 901.0, float(rng.uniform(0, 1)))
            worse = evaluate(dets + [noise], gt, thresholds)
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
            assert_reports_equal(evaluate(dets, gt, (0.5,)), oracle_evaluate(dets, gt, (0.5,)))

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            gt, dets, thresholds = random_instance(rng)
            assert_reports_equal(evaluate(dets, gt, thresholds), oracle_evaluate(dets, gt, thresholds))

    def test_oracle_rejects_large_instances(self):
        gt = gt_index([("v1", 0, 0.0, 10.0)], num_classes=1)
        dets = [det(score=0.1 * i + 0.01) for i in range(11)]
        with pytest.raises(ValidationError, match="oracle"):
            oracle_evaluate(dets, gt, (0.5,))


class TestManifestIndex:
    def manifest(self):
        records = (
            VideoRecord("v1", 10, 4, (0,), 1.0, (GroundTruthSegment(0, 1.0, 3.0),), True),
            VideoRecord("v2", 10, 4, (1,), 1.0, None, False),
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
        return evaluate([det(start=0.0, end=10.0, score=0.9)], gt, (0.3, 0.5), class_names=("jump", "run"))

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
            iou = interval_iou((d.start, d.end), (gs, ge))
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
            report = evaluate(dets, gt, self.THRESHOLDS)
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
            per_threshold = match_detections(dets, gts, self.THRESHOLDS)
            assert per_threshold == [match_detections(dets, gts, (t,))[0] for t in self.THRESHOLDS]
            assert per_threshold == [reference_match(dets, gts, t) for t in self.THRESHOLDS]
