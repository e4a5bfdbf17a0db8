"""Output checks for the pipeline benchmark, written apart from ttcloc.

Each check recomputes what a stage should have produced from the files on
disk and the method's definition, with code of its own: a checkpoint
parser, a plain-NumPy forward pass, a maximal-run extractor and a greedy
matcher.  Only the gradient check calls into ttcloc, because
``objectives.total_loss`` is the function it checks.  A check returns a
list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter

import numpy as np

SCORE_RTOL = 1e-9
AP_TOL = 1e-9
GRAD_RTOL = 1e-6
GRAD_EPS = 1e-6
MAX_REPORTED = 5


# ---------------------------------------------------------------------------
# Reading the stage outputs


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_features(data_dir: str, video: dict) -> np.ndarray:
    raw = np.fromfile(os.path.join(data_dir, video["id"] + ".f32"), dtype="<f4")
    return raw.reshape(video["num_snippets"], video["feature_dim"]).astype(np.float64)


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Parse a ``.ttck`` file: magic, version, count, then named arrays."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"TTCK":
        raise ValueError(f"{path}: bad magic")
    _, count = struct.unpack_from("<II", blob, 4)
    pos = 12
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2 : pos + 2 + name_len].decode()
        pos += 2 + name_len
        ndim = blob[pos]
        shape = struct.unpack_from(f"<{ndim}I", blob, pos + 1)
        pos += 1 + 4 * ndim
        size = math.prod(shape)
        arrays[name] = np.frombuffer(blob[pos : pos + 8 * size], dtype="<f8").reshape(shape).astype(np.float64)
        pos += 8 * size
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return arrays


def param_shapes(feature_dim: int, hidden_dim: int, num_classes: int) -> dict[str, tuple]:
    h, k = hidden_dim, num_classes + 1
    return {
        "w1": (feature_dim, h),
        "b1": (h,),
        "conv_kernel": (3, h, h),
        "conv_bias": (h,),
        "w2": (h, k),
        "b2": (k,),
    }


def checkpoint_size(feature_dim: int, hidden_dim: int, num_classes: int) -> int:
    """Bytes of a checkpoint holding these shapes, from the format's layout."""
    size = 4 + 4 + 4
    for name, shape in param_shapes(feature_dim, hidden_dim, num_classes).items():
        size += 2 + len(name.encode()) + 1 + 4 * len(shape) + 8 * math.prod(shape)
    return size


# ---------------------------------------------------------------------------
# Training checks


def check_losses_finite(records: list[dict], iterations: int) -> list[str]:
    problems = []
    if len(records) != iterations:
        problems.append(f"metrics.ndjson has {len(records)} records for {iterations} iterations")
    bad = [r.get("step") for r in records if not math.isfinite(r["L"])]
    if bad:
        problems.append(f"non-finite L at steps {bad[:MAX_REPORTED]}")
    return problems


def check_checkpoint_size(path: str, feature_dim: int, hidden_dim: int, num_classes: int) -> list[str]:
    expected = checkpoint_size(feature_dim, hidden_dim, num_classes)
    actual = os.path.getsize(path)
    return [] if actual == expected else [f"checkpoint is {actual} bytes, shapes give {expected}"]


def directional_derivative(loss, arrays: dict, grads: dict, rng: np.random.Generator, eps: float = GRAD_EPS):
    """Central difference of ``loss`` along a unit direction, and <grads, direction>.

    The direction mixes the normalized gradient with a random unit vector,
    so the projection is large whatever the parameter count.
    """
    names = list(arrays)
    noise = {n: rng.standard_normal(arrays[n].shape) for n in names}

    def norm(d):
        return math.sqrt(sum(float(np.vdot(d[n], d[n])) for n in names))

    g_norm, r_norm = norm(grads), norm(noise)
    direction = {n: noise[n] / r_norm + (grads[n] / g_norm if g_norm > 0 else 0.0) for n in names}
    d_norm = norm(direction)
    direction = {n: direction[n] / d_norm for n in names}
    analytic = sum(float(np.vdot(grads[n], direction[n])) for n in names)
    plus = loss({n: arrays[n] + eps * direction[n] for n in names})
    minus = loss({n: arrays[n] - eps * direction[n] for n in names})
    return (plus - minus) / (2.0 * eps), analytic


def check_directional_derivative(finite_diff: float, analytic: float, rtol: float = GRAD_RTOL) -> list[str]:
    scale = max(abs(finite_diff), abs(analytic), 1e-12)
    err = abs(finite_diff - analytic) / scale
    if err <= rtol:
        return []
    return [f"finite difference {finite_diff:.12g} vs analytic {analytic:.12g}: relative error {err:.3e} > {rtol:g}"]


def semi_flags(videos: list[dict], supervision: str, semi_k: int) -> dict[str, bool]:
    """Which videos carry localization supervision: first k annotated per class."""
    flags = {v["id"]: False for v in videos}
    if supervision == "full":
        return {v["id"]: v.get("segments") is not None for v in videos}
    if supervision == "semi":
        taken = Counter()  # annotated videos seen per class, in manifest order
        for v in videos:
            if v.get("segments") is None:
                continue
            for c in v["labels"]:
                flags[v["id"]] |= taken[c] < semi_k
                taken[c] += 1
    return flags


def fixed_batch(manifest: dict, data_dir: str, batch_size: int, clip_len: int, flags: dict) -> list[dict]:
    """One batch of centre-cropped clips, round-robin over classes.

    Returns plain dicts (id, features, labels, segments in clip time,
    fully_annotated, snippet_duration).
    """
    by_class: dict[int, list] = {}
    for v in manifest["videos"]:
        by_class.setdefault(min(v["labels"]), []).append(v)
    order = []
    depth = 0
    while len(order) < batch_size and depth < max(len(vs) for vs in by_class.values()):
        order += [vs[depth] for _, vs in sorted(by_class.items()) if depth < len(vs)]
        depth += 1
    clips = []
    for v in order[:batch_size]:
        feats = read_features(data_dir, v)
        tau = v["snippet_duration"]
        offset = max(0, (len(feats) - clip_len) // 2)
        feats = feats[offset : offset + clip_len]
        lo, hi = offset * tau, (offset + len(feats)) * tau
        segments = None
        if v.get("segments") is not None:
            segments = [
                (s["class_id"], max(s["start"], lo) - lo, min(s["end"], hi) - lo)
                for s in v["segments"]
                if max(s["start"], lo) < min(s["end"], hi)
            ]
        clips.append(
            {
                "id": v["id"],
                "features": feats,
                "labels": v["labels"],
                "segments": segments,
                "fully_annotated": flags[v["id"]] and segments is not None,
                "snippet_duration": tau,
            }
        )
    return clips


def gradient_check(run_dir: str, data_dir: str, seed: int) -> list[str]:
    """Directional finite difference of ``total_loss`` at the final checkpoint."""
    from ttcloc.data import GroundTruthSegment, VideoSample
    from ttcloc.network import NetworkParams
    from ttcloc.objectives import LossConfig, total_loss

    config = read_json(os.path.join(run_dir, "train_config.json"))
    manifest = read_json(os.path.join(data_dir, "manifest.json"))
    arrays = read_checkpoint(os.path.join(run_dir, "checkpoint.ttck"))
    flags = semi_flags(manifest["videos"], config["supervision"], config["semi_k"])
    clips = [
        VideoSample(
            id=c["id"],
            features=c["features"],
            labels=frozenset(c["labels"]),
            snippet_duration=c["snippet_duration"],
            segments=None if c["segments"] is None else tuple(GroundTruthSegment(*s) for s in c["segments"]),
            fully_annotated=c["fully_annotated"],
        )
        for c in fixed_batch(manifest, data_dir, config["batch_size"], config["max_clip_len"], flags)
    ]
    rng = np.random.default_rng(seed)
    drop = config["dropout"]
    masks = None
    if drop > 0:
        masks = [(rng.random((c.num_snippets, config["hidden_dim"])) >= drop).astype(np.float64) for c in clips]
    loss_config = LossConfig(**config["loss"])

    def evaluate(arrs):
        breakdown, grads = total_loss(
            NetworkParams(**arrs),
            clips,
            loss_config,
            gating=config["gating"],
            train_localization=config["train_localization"],
            dropout_masks=masks,
            drop_rate=drop,
        )
        return breakdown.total, grads.as_dict()

    _, grads = evaluate(arrays)
    finite_diff, analytic = directional_derivative(lambda a: evaluate(a)[0], arrays, grads, rng)
    return check_directional_derivative(finite_diff, analytic)


# ---------------------------------------------------------------------------
# Inference checks


def reference_forward(p: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores (T, C) and thresholds (T,) of the scoring network, no dropout."""
    h1 = np.maximum(x @ p["w1"] + p["b1"], 0.0)
    t, h = h1.shape
    padded = np.zeros((t + 2, h))
    padded[1 : t + 1] = h1
    conv = padded[0:t] @ p["conv_kernel"][0] + padded[1 : t + 1] @ p["conv_kernel"][1]
    conv = conv + padded[2 : t + 2] @ p["conv_kernel"][2] + p["conv_bias"]
    out = np.maximum(h1 + conv, 0.0) @ p["w2"] + p["b2"]
    return out[:, :-1], out[:, -1]


def check_forward(expected: tuple, actual: tuple, video_id: str) -> list[str]:
    problems = []
    for what, e, a in zip(("scores", "thresholds"), expected, actual):
        tol = 1e-9 * (1.0 + float(np.abs(e).max()))
        if e.shape != a.shape or not np.allclose(a, e, rtol=0.0, atol=tol):
            diff = np.abs(a - e).max() if e.shape == a.shape else f"shape {a.shape} != {e.shape}"
            problems.append(f"{video_id}: {what} differ from the reference forward pass ({diff})")
    return problems


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), to full relative precision where it is tiny."""
    return np.exp(-np.logaddexp(0.0, -x))


def class_probabilities(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Gated pooling with a sigmoid gate; the mean threshold is the background logit."""
    gate = sigmoid(scores - thresholds[:, None])
    pooled = (gate * scores).sum(axis=0) / (gate.sum(axis=0) + 1e-8)
    logits = np.append(pooled, thresholds.mean())
    e = np.exp(logits - logits.max())
    return e / e.sum()


def maximal_runs(above: np.ndarray) -> list[tuple[int, int]]:
    """Inclusive (first, last) index of each maximal run of True."""
    idx = np.flatnonzero(above)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    firsts = np.concatenate([idx[:1], idx[breaks + 1]])
    lasts = np.concatenate([idx[breaks], idx[-1:]])
    return list(zip(firsts.tolist(), lasts.tolist()))


def expected_detections(video_id: str, scores: np.ndarray, thresholds: np.ndarray, tau: float, mode: str) -> list[tuple]:
    """(video, class, start_s, end_s, score) the method prescribes for one video.

    Classes: probability strictly above the mean action-class probability.
    Runs: score above the predicted threshold (predicted mode) or above
    (max + min) / 2 of the class column (manual mode).  Score: class
    probability times the mean sigmoid gate over the run.
    """
    probs = class_probabilities(scores, thresholds)[:-1]
    gate = sigmoid(scores - thresholds[:, None])
    out = []
    for c in np.flatnonzero(probs > probs.mean()).tolist():
        column = scores[:, c]
        cut = thresholds if mode == "predicted" else 0.5 * (column.max() + column.min())
        for first, last in maximal_runs(column > cut):
            score = float(probs[c]) * float(gate[first : last + 1, c].mean())
            out.append((video_id, c, first * tau, (last + 1) * tau, score))
    return out


def _key(det) -> tuple:
    return det[:4]


def check_runs(expected: list[tuple], actual: list[tuple]) -> list[str]:
    """Detected segments must be exactly the expected maximal runs."""
    want, got = Counter(map(_key, expected)), Counter(map(_key, actual))
    missing = sorted((want - got).elements())
    extra = sorted((got - want).elements())
    problems = []
    if missing:
        problems.append(f"{len(missing)} expected runs not detected, e.g. {missing[:MAX_REPORTED]}")
    if extra:
        problems.append(f"{len(extra)} detections are not maximal runs, e.g. {extra[:MAX_REPORTED]}")
    return problems


def check_scores(expected: list[tuple], actual: list[tuple]) -> list[str]:
    """Every detection's score equals probability x mean gate over its run."""
    want = {_key(d): d[4] for d in expected}
    bad = []
    for det in actual:
        e = want.get(_key(det))
        if e is not None and not abs(det[4] - e) <= SCORE_RTOL * max(abs(e), 1e-300):
            bad.append((_key(det), det[4], e))
    return [f"{len(bad)} detection scores differ from probability x mean gate, e.g. {bad[:MAX_REPORTED]}"] if bad else []


def detection_tuples(records: list[dict]) -> list[tuple]:
    return [(r["video_id"], r["class_id"], r["start_s"], r["end_s"], r["score"]) for r in records]


# ---------------------------------------------------------------------------
# Evaluation check


def iou_range(lo: float, hi: float, step: float) -> tuple[float, ...]:
    n = int(round((hi - lo) / step))
    return tuple(round(lo + i * step, 10) for i in range(n + 1))


def _iou(a0, a1, b0, b1) -> float:
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union if union > 0 else 0.0


def reference_ap(detections: list[tuple], ground_truth: list[tuple], num_classes: int, thresholds) -> list[list]:
    """AP[threshold][class] by greedy matching, None for classes without ground truth.

    Detections are visited by descending score (ties: earlier start, then
    lower video id); each claims the unmatched same-video ground truth of
    highest IoU at or above the threshold.  AP is the sum of precision at
    each true positive over the ground-truth count.
    """
    gts: dict = {}
    num_gt = [0] * num_classes
    for video, c, start, end in ground_truth:
        gts.setdefault((video, c), []).append((num_gt[c], start, end))
        num_gt[c] += 1
    by_class: list[list] = [[] for _ in range(num_classes)]
    for det in detections:
        by_class[det[1]].append(det)

    table = [[None] * num_classes for _ in thresholds]
    for c in range(num_classes):
        if num_gt[c] == 0:
            continue
        ranked = sorted(by_class[c], key=lambda d: (-d[4], d[2], d[0]))
        # overlapping candidates per detection, computed once for all thresholds
        candidates = []
        for video, _, start, end, _ in ranked:
            cands = [(_iou(start, end, gs, ge), j) for j, gs, ge in gts.get((video, c), ())]
            candidates.append([cand for cand in cands if cand[0] > 0.0])
        for i, thresh in enumerate(thresholds):
            used = set()
            tp = 0
            total = 0.0
            for rank, cands in enumerate(candidates, start=1):
                best = None
                for iou, j in cands:
                    if j not in used and iou >= thresh and (best is None or iou > best[0]):
                        best = (iou, j)
                if best is not None:
                    used.add(best[1])
                    tp += 1
                    total += tp / rank
            table[i][c] = total / num_gt[c]
    return table


def check_report(report: dict, table: list[list], class_names: list[str], thresholds) -> list[str]:
    """Per-class AP, mAP per threshold and average mAP against the reference."""
    problems = []
    if [round(t, 10) for t in report["iou_thresholds"]] != list(thresholds):
        return [f"report thresholds {report['iou_thresholds']} != {list(thresholds)}"]

    def differs(got, want):
        if want is None or got is None:
            return (want is None) != (got is None)
        return not abs(got - want) <= AP_TOL

    maps = []
    for i, t in enumerate(thresholds):
        key = f"{t:g}"
        for c, name in enumerate(class_names):
            got = report["per_class"][name]["ap"][key]
            if differs(got, table[i][c]):
                problems.append(f"AP {name} @ {key}: report {got} vs reference {table[i][c]}")
        defined = [a for a in table[i] if a is not None]
        maps.append(sum(defined) / len(defined))
        if differs(report["map"][key], maps[-1]):
            problems.append(f"mAP @ {key}: report {report['map'][key]} vs reference {maps[-1]}")
    if differs(report["average_map"], sum(maps) / len(maps)):
        problems.append(f"average mAP: report {report['average_map']} vs reference {sum(maps) / len(maps)}")
    return problems[:MAX_REPORTED]
