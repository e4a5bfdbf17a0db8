"""Detection mAP with no-duplicate-credit matching, plus a brute-force oracle.

``oracle_evaluate`` (kept deliberately first and independent) takes a list
of ``Detection`` records and re-derives every AP as an explicit
precision/recall area over score-order prefixes, re-matching each prefix
from scratch with plain loops.  ``evaluate`` is the production path: it
takes a ``Detections`` column table, ranks each class's rows with one
stable ``np.lexsort`` and computes IoUs as one array per video.  The two
share only the input checks and the report assembly (mAP from the
per-class APs).  Each implements the same rank order on its own:
descending score, ties by earlier start, then by lower video id, then by
input order.

AP is non-interpolated: the sum of precision at each true-positive rank
divided by the number of ground-truth segments.  Classes without any
ground truth are excluded from mAP.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .localizer import Detection, Detections

ORACLE_MAX_DETECTIONS = 10


@dataclass(frozen=True)
class GroundTruthIndex:
    """Ground-truth segments grouped per class, in source order."""

    num_classes: int
    video_ids: frozenset
    by_class: tuple  # index c -> tuple of (video_id, start, end)

    def total_segments(self) -> int:
        return sum(len(v) for v in self.by_class)


def index_from_rows(num_classes: int, video_ids, rows) -> GroundTruthIndex:
    by_class: list[list] = [[] for _ in range(num_classes)]
    for video_id, class_id, start, end in rows:
        if not 0 <= class_id < num_classes:
            raise ValidationError(f"ground truth in {video_id!r}: class {class_id} outside {num_classes} classes")
        by_class[class_id].append((video_id, start, end))
    return GroundTruthIndex(
        num_classes=num_classes,
        video_ids=frozenset(video_ids),
        by_class=tuple(tuple(v) for v in by_class),
    )


def index_from_videos(videos: Sequence, num_classes: int) -> GroundTruthIndex:
    """Index over anything with ``.id`` and ``.segments``: manifest records or samples."""
    rows = [(v.id, seg.class_id, seg.start, seg.end) for v in videos for seg in v.segments or ()]
    return index_from_rows(num_classes, (v.id for v in videos), rows)


@dataclass(frozen=True)
class EvalReport:
    iou_thresholds: tuple
    class_names: tuple
    per_class_ap: tuple  # [threshold][class] -> float or None (no ground truth)
    per_class_counts: tuple  # [threshold][class] -> (tp, fp, num_gt)
    map_per_threshold: tuple
    average_map: float


def _sorted_dets(dets: list[Detection]) -> list[Detection]:
    return sorted(dets, key=lambda d: (-d.score, d.start, d.video_id))


def check_iou_thresholds(iou_thresholds) -> None:
    """Reject an empty threshold list, a threshold outside (0, 1], and two
    thresholds that share a report label."""
    if not iou_thresholds:
        raise ValidationError("need at least one IoU threshold")
    for t in iou_thresholds:
        if not 0.0 < t <= 1.0:
            raise ValidationError(f"IoU threshold {t} must lie in (0, 1]")
    # the report keys each threshold by its label, so two thresholds must not share one
    labels = [_fmt_thresh(t) for t in iou_thresholds]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"IoU thresholds {list(iou_thresholds)} share report labels {labels}")


def _validate_inputs(detections: Detections, gt: GroundTruthIndex, iou_thresholds) -> None:
    check_iou_thresholds(iou_thresholds)
    if gt.total_segments() == 0:
        raise ValidationError("ground truth contains no segments; mAP is undefined")
    unknown = np.array([v not in gt.video_ids for v in detections.video_ids], dtype=bool)[detections.video_index]
    bad = np.flatnonzero(unknown | detections.class_outside(gt.num_classes))
    if len(bad):
        i = bad[0]
        if unknown[i]:
            raise ValidationError(f"detection references unknown video {detections.video_ids[detections.video_index[i]]!r}")
        raise ValidationError(f"detection class {detections.class_id[i]} outside {gt.num_classes} classes")


def _default_names(gt: GroundTruthIndex, class_names) -> tuple:
    if class_names is None:
        return tuple(f"class{c:02d}" for c in range(gt.num_classes))
    if len(class_names) != gt.num_classes:
        raise ValidationError("class_names length must match the class count")
    return tuple(class_names)


def _report(iou_thresholds, class_names: tuple, cells: list[list[tuple]]) -> EvalReport:
    """Report from ``cells[i][c] = (ap, (tp, fp, num_gt))`` per threshold i and class c.

    mAP at a threshold averages the classes whose AP is defined.
    """
    ap_rows = tuple(tuple(ap for ap, _ in row) for row in cells)
    maps = []
    for aps in ap_rows:
        defined = [a for a in aps if a is not None]
        maps.append(sum(defined) / len(defined))
    return EvalReport(
        iou_thresholds=tuple(iou_thresholds),
        class_names=class_names,
        per_class_ap=ap_rows,
        per_class_counts=tuple(tuple(counts for _, counts in row) for row in cells),
        map_per_threshold=tuple(maps),
        average_map=sum(maps) / len(maps),
    )


# ---------------------------------------------------------------------------
# Oracle (independent reference; used only by tests)


def oracle_evaluate(
    detections: list[Detection],
    gt: GroundTruthIndex,
    iou_thresholds,
    class_names=None,
) -> EvalReport:
    """Reference evaluator: prefix-by-prefix PR enumeration, plain loops."""
    _validate_inputs(Detections.from_records(detections), gt, iou_thresholds)
    names = _default_names(gt, class_names)
    per_class = [[d for d in detections if d.class_id == c] for c in range(gt.num_classes)]
    for c, dets in enumerate(per_class):
        if len(dets) > ORACLE_MAX_DETECTIONS:
            raise ValidationError(f"oracle limited to {ORACLE_MAX_DETECTIONS} detections per class, class {c} has {len(dets)}")

    def prefix_tp_count(dets_prefix, gts, thresh):
        used = [False] * len(gts)
        tp = 0
        for det in dets_prefix:
            best_iou = -1.0
            best_j = -1
            for j, (vid, gs, ge) in enumerate(gts):
                if used[j] or vid != det.video_id:
                    continue
                inter = max(0.0, min(det.end, ge) - max(det.start, gs))
                union = (det.end - det.start) + (ge - gs) - inter
                iou = inter / union if union > 0 else 0.0
                if iou >= thresh and iou > best_iou:
                    best_iou = iou
                    best_j = j
            if best_j >= 0:
                used[best_j] = True
                tp += 1
        return tp

    cells = []
    for thresh in iou_thresholds:
        row = []
        for c in range(gt.num_classes):
            gts = gt.by_class[c]
            dets = _sorted_dets(per_class[c])
            num_gt = len(gts)
            full_tp = prefix_tp_count(dets, gts, thresh)
            counts = (full_tp, len(dets) - full_tp, num_gt)
            if num_gt == 0:
                row.append((None, counts))
                continue
            area = 0.0
            prev_recall = 0.0
            for k in range(1, len(dets) + 1):
                tp_k = prefix_tp_count(dets[:k], gts, thresh)
                recall = tp_k / num_gt
                precision = tp_k / k
                area += (recall - prev_recall) * precision
                prev_recall = recall
            row.append((area, counts))
        cells.append(row)
    return _report(iou_thresholds, names, cells)


# ---------------------------------------------------------------------------
# Production evaluator


def interval_iou(a: tuple, b: tuple):
    """Intersection over union of [start, end) intervals.

    Each bound may be a float or an array, and the bounds broadcast, so one
    call gives a whole (detections, ground truths) block.  Every element
    takes the float operations of the scalar formula, in its order:
    ``inter = max(0, min(a1, b1) - max(a0, b0))`` over
    ``(a1 - a0) + (b1 - b0) - inter``, and 0 where that union is not positive.
    Float bounds give a float64 scalar.
    """
    (a0, a1), (b0, b1) = a, b
    if not (np.all(np.less(a0, a1)) and np.all(np.less(b0, b1))):
        raise ValidationError(f"degenerate interval: {a} vs {b}")
    inter = np.maximum(0.0, np.minimum(a1, b1) - np.maximum(a0, b0))
    union = (np.subtract(a1, a0) + np.subtract(b1, b0)) - inter
    return np.divide(inter, union, out=np.zeros(np.shape(union)), where=union > 0)[()]


def match_detections(dets: Detections, gts, thresholds: Sequence[float]) -> list[np.ndarray]:
    """TP/FP flags in rank order under the one-detection-per-GT rule.

    ``dets`` is the table of one class's detections and ``gts`` a sequence
    of (video_id, start, end) for that class.
    Detections are ranked by descending score, ties by earlier start, then
    by lower video id in Python string order, then by input order.  Each
    detection, in rank order, claims the highest-IoU unmatched ground truth
    of its own video, if any reaches the threshold; of equal IoUs the
    earliest ground truth wins.

    Returns one boolean array per threshold in ``thresholds``, indexed by
    rank.  The detections are ranked and their IoUs computed once, one
    (detections, ground truths) block per video; only detections whose
    best IoU reaches the lowest threshold enter the greedy claim loop.
    """
    flags = [np.zeros(len(dets), dtype=bool) for _ in thresholds]
    if not len(dets) or not gts:
        return flags
    video_rank = {vid: r for r, vid in enumerate(sorted(dets.video_ids))}
    ranked_video = np.array([video_rank[v] for v in dets.video_ids], dtype=np.int64)[dets.video_index]
    order = np.lexsort((ranked_video, dets.start, -dets.score))  # stable, last key first
    starts, ends, ranked_video = dets.start[order], dets.end[order], ranked_video[order]
    # ranks grouped by video, ascending within each video
    by_video_rank = np.argsort(ranked_video, kind="stable")
    bounds = np.searchsorted(ranked_video[by_video_rank], np.arange(len(video_rank) + 1))

    gts_by_video: dict = {}
    for vid, gs, ge in gts:
        gts_by_video.setdefault(vid, []).append((gs, ge))
    lowest = min(thresholds, default=0.0)
    tp_ranks: list[list[int]] = [[] for _ in thresholds]
    for vid, spans in gts_by_video.items():
        r = video_rank.get(vid)
        if r is None or bounds[r] == bounds[r + 1]:
            continue
        ranks = by_video_rank[bounds[r] : bounds[r + 1]]
        gs, ge = np.array(spans, dtype=np.float64).T
        iou = interval_iou((starts[ranks, None], ends[ranks, None]), (gs, ge))
        hit = iou.max(axis=1) >= lowest
        # per candidate: its ground truths by IoU, highest first, ties in
        # ground-truth order (the sort is stable)
        by_iou = np.argsort(-iou[hit], axis=1, kind="stable")
        rows = list(zip(ranks[hit].tolist(), np.take_along_axis(iou[hit], by_iou, axis=1).tolist(), by_iou.tolist()))
        # a detection claims only ground truths of its own video, so each
        # video's greedy pass is independent of the others
        for thresh, claimed in zip(thresholds, tp_ranks):
            used = set()
            for rank, ious, js in rows:
                for iou_j, j in zip(ious, js):
                    if iou_j < thresh:
                        break
                    if j not in used:
                        used.add(j)
                        claimed.append(rank)
                        break
    for f, claimed in zip(flags, tp_ranks):
        f[claimed] = True
    return flags


def average_precision(flags: Sequence[bool] | np.ndarray, num_gt: int) -> float | None:
    """Non-interpolated AP from rank-ordered TP/FP flags.

    ``tp / rank`` is added in rank order over the true positives alone,
    which is the order a loop over every flag adds it in.
    """
    if num_gt < 0:
        raise ValidationError("num_gt must be >= 0")
    if num_gt == 0:
        return None
    total = 0.0
    for tp, rank in enumerate(np.flatnonzero(flags).tolist(), start=1):
        total += tp / (rank + 1)
    return total / num_gt


def evaluate(
    detections: Detections,
    gt: GroundTruthIndex,
    iou_thresholds,
    class_names=None,
) -> EvalReport:
    _validate_inputs(detections, gt, iou_thresholds)
    names = _default_names(gt, class_names)
    cells: list[list] = [[] for _ in iou_thresholds]
    for c, gts in enumerate(gt.by_class):
        # the class's rows in table order; one class's flags exist at a time
        rows = np.flatnonzero(detections.class_id == c)
        for row, flags in zip(cells, match_detections(detections.take(rows), gts, iou_thresholds)):
            tp = int(np.count_nonzero(flags))
            row.append((average_precision(flags, len(gts)), (tp, len(flags) - tp, len(gts))))
    return _report(iou_thresholds, names, cells)


# ---------------------------------------------------------------------------
# Report rendering


def _fmt_thresh(t: float) -> str:
    return f"{t:g}"


def render_report_json(report: EvalReport) -> str:
    per_class = {}
    for c, name in enumerate(report.class_names):
        ap = {}
        counts = {}
        for i, t in enumerate(report.iou_thresholds):
            key = _fmt_thresh(t)
            ap[key] = report.per_class_ap[i][c]
            tp, fp, num_gt = report.per_class_counts[i][c]
            counts[key] = {"tp": tp, "fp": fp, "num_gt": num_gt}
        per_class[name] = {"ap": ap, "counts": counts}
    obj = {
        "iou_thresholds": list(report.iou_thresholds),
        "map": {_fmt_thresh(t): report.map_per_threshold[i] for i, t in enumerate(report.iou_thresholds)},
        "average_map": report.average_map,
        "per_class": per_class,
    }
    return json.dumps(obj, indent=2, sort_keys=True)


def render_report_csv(report: EvalReport) -> str:
    """One row per class plus an mAP row; columns per IoU plus the average."""
    header = ["class"] + [f"ap@{_fmt_thresh(t)}" for t in report.iou_thresholds] + ["average"]
    lines = [",".join(header)]
    for c, name in enumerate(report.class_names):
        cells = [name]
        vals = [report.per_class_ap[i][c] for i in range(len(report.iou_thresholds))]
        for v in vals:
            cells.append("" if v is None else f"{v:.6f}")
        defined = [v for v in vals if v is not None]
        cells.append(f"{sum(defined) / len(defined):.6f}" if defined else "")
        lines.append(",".join(cells))
    map_cells = ["mAP"] + [f"{v:.6f}" for v in report.map_per_threshold] + [f"{report.average_map:.6f}"]
    lines.append(",".join(map_cells))
    return "".join(line + "\n" for line in lines)
