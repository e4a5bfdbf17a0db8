"""Command line interface: synth, train, infer, eval, gradcheck, ablate.

Configuration precedence is flags > config file > defaults.  Unknown
config keys and values of the wrong type are rejected.  Exit codes: 0
success, 1 validation error or a file that cannot be read or written, 2
numerical failure.  All outputs are written atomically (temp file plus
rename), and every subcommand is deterministic given its seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import typing

from . import gradcheck as gradcheck_mod
from . import network
from .data import DatasetManifest, VideoSample, load_dataset, load_manifest, write_dataset
from .errors import NumericalError, ValidationError, field_types, load_json_object, read_object, replacing
from .evaluator import check_iou_thresholds, evaluate, index_from_videos, render_report_csv, render_report_json
from .localizer import Detections, iter_detections, load_detections, write_detections
from .objectives import AGGREGATORS, LossConfig, REG_FORMS
from .synth import PRESETS, SynthSpec, generate, preset_spec
from .trainer import STRATEGIES, TrainConfig, run_training

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # numerical failures, so remap to the validation exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _write_text(path: str, text: str) -> None:
    with replacing(path) as fh:
        fh.write(text)


def build_synth_spec(preset: str | None, file_cfg: dict, overrides: dict) -> SynthSpec:
    base = preset_spec(preset) if preset else SynthSpec()
    return dataclasses.replace(base, **{**read_object(file_cfg, field_types(SynthSpec), "synth config"), **overrides})


def build_train_config(file_cfg: dict, overrides: dict, loss_overrides: dict) -> TrainConfig:
    loss_cfg = file_cfg.get("loss", {})
    if loss_overrides and type(loss_cfg) is dict:  # the flags replace the file's loss entries, read for their types alone
        file_cfg = {**file_cfg, "loss": {**read_object(loss_cfg, field_types(LossConfig), "train config: loss"), **loss_overrides}}
    return TrainConfig(**{**read_object(file_cfg, field_types(TrainConfig), "train config"), **overrides})


IOU_MAX_THRESHOLDS = 1000


def parse_iou_spec(text: str) -> tuple[float, ...]:
    """Thresholds as a single value, comma list, or start:stop:step range.

    Every value must be finite, and a range may hold at most
    ``IOU_MAX_THRESHOLDS`` thresholds.  The thresholds must then pass
    :func:`~ttcloc.evaluator.check_iou_thresholds`, so a bad spec fails
    before any file is read or any model trained.
    """
    text = text.strip()
    try:
        parts = [float(p) for p in text.split(":" if ":" in text else ",")]
        if not all(math.isfinite(p) for p in parts):
            raise ValueError("values must be finite")
        if ":" in text:
            if len(parts) != 3:
                raise ValueError("range must be start:stop:step")
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError("range needs step > 0 and stop >= start")
            # bounded by count, not by value: start + i * step need not grow in floats
            parts = []
            for i in range(IOU_MAX_THRESHOLDS + 1):
                if round(start + i * step, 10) > stop + 1e-9:
                    break
                parts.append(start + i * step)
            else:
                raise ValueError(f"range holds more than {IOU_MAX_THRESHOLDS} thresholds")
    except ValueError as exc:
        raise ValidationError(f"bad IoU spec {text!r}: {exc}") from exc
    thresholds = tuple(round(p, 10) for p in parts)
    check_iou_thresholds(thresholds)
    return thresholds


def _overrides_from_args(args, names) -> dict:
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> int:
    file_cfg = load_json_object(args.spec, "config") if args.spec else {}
    spec = build_synth_spec(args.preset, file_cfg, _overrides_from_args(args, field_types(SynthSpec)))
    samples = generate(spec)
    path = write_dataset(samples, spec.num_classes, spec.class_names, args.out)
    _write_text(os.path.join(args.out, "synth_spec.json"), json.dumps(dataclasses.asdict(spec), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(samples)} videos, {spec.num_classes} classes: {path}")
    return EXIT_OK


CHECKPOINT_NAME = "checkpoint.ttck"
METRICS_NAME = "metrics.ndjson"
TRAIN_CONFIG_NAME = "train_config.json"


def _load_data(path: str) -> tuple[DatasetManifest, list[VideoSample]]:
    """The manifest and samples of a dataset directory or manifest path."""
    manifest = load_manifest(os.path.join(path, "manifest.json") if os.path.isdir(path) else path)
    return manifest, load_dataset(manifest)


def cmd_train(args) -> int:
    file_cfg = load_json_object(args.config, "config") if args.config else {}
    overrides = _overrides_from_args(args, field_types(TrainConfig))
    loss_overrides = _overrides_from_args(args, field_types(LossConfig))
    config = build_train_config(file_cfg, overrides, loss_overrides)

    manifest, samples = _load_data(args.data)
    started = time.perf_counter()
    state, metrics = run_training(samples, manifest.num_classes, config)
    elapsed = time.perf_counter() - started

    os.makedirs(args.out, exist_ok=True)
    network.save_params(state.params, os.path.join(args.out, CHECKPOINT_NAME))
    _write_text(
        os.path.join(args.out, METRICS_NAME),
        "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in metrics),
    )
    _write_text(
        os.path.join(args.out, TRAIN_CONFIG_NAME),
        json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n",
    )
    final = metrics[-1]["L"] if metrics else float("nan")
    print(f"trained {config.iterations} iterations in {elapsed:.1f}s, final loss {final:.6f}: {args.out}")
    return EXIT_OK


def _resolve_checkpoint(path: str) -> tuple[network.NetworkParams, TrainConfig]:
    """Parameters and training config of a checkpoint file or training output directory.

    The config comes from the ``train_config.json`` beside the checkpoint,
    validated as ``train --config`` is; inference follows the rule it records.
    """
    ckpt_path = os.path.join(path, CHECKPOINT_NAME) if os.path.isdir(path) else path
    params = network.load_params(ckpt_path)
    config = build_train_config(load_json_object(os.path.join(os.path.dirname(ckpt_path), TRAIN_CONFIG_NAME), "config"), {}, {})
    if config.hidden_dim != params.hidden_dim:
        raise ValidationError(f"{TRAIN_CONFIG_NAME} has hidden_dim {config.hidden_dim} but the checkpoint {params.hidden_dim}")
    return params, config


def cmd_infer(args) -> int:
    params, config = _resolve_checkpoint(args.ckpt)
    manifest, samples = _load_data(args.data)
    if params.num_classes != manifest.num_classes:
        raise ValidationError(
            f"checkpoint has {params.num_classes} classes but dataset has {manifest.num_classes}"
        )
    if params.feature_dim != samples[0].feature_dim:
        raise ValidationError(
            f"checkpoint expects {params.feature_dim}-dim features but dataset has {samples[0].feature_dim}"
        )
    count = write_detections(iter_detections(params, samples, config, args.mode), manifest.class_names, args.out)
    print(f"wrote {count} detections ({args.mode} mode): {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    thresholds = parse_iou_spec(args.iou)
    manifest = load_manifest(args.gt)
    detections = load_detections(args.det)
    gt = index_from_videos(manifest.records, manifest.num_classes)
    report = evaluate(detections, gt, thresholds, class_names=manifest.class_names)
    _write_text(args.out, render_report_json(report) + "\n")
    csv_path = os.path.splitext(args.out)[0] + ".csv"
    _write_text(csv_path, render_report_csv(report))
    print(f"average mAP {report.average_map:.4f} over IoU {thresholds}: {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {args.seed}")
    checks = gradcheck_mod.run_gradient_checks(args.seed)
    failed = False
    for check in checks:
        if not check.strict:
            status = "surrogate"
        elif check.passed:
            status = "ok"
        else:
            status = "FAIL"
            failed = True
        print(f"{check.name:45s} max_rel_err {check.max_rel_err:.3e}  [{status}]  {check.elapsed_s:.3f} s")
    worst = max(c.max_rel_err for c in checks if c.strict)
    print(f"worst strict component: {worst:.3e} (tolerance {gradcheck_mod.STRICT_TOLERANCE:g})")
    return EXIT_NUMERICAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Ablation grid


def _ablate_rows(lambda_sweep: bool) -> list[tuple[str, str, dict]]:
    """(group, test mode, config fields that differ from the defaults) per grid row."""
    semi = {"supervision": "semi", "semi_k": 1}
    # threshold strategy grid: the four trained variants x both test rules
    trained = ({"train_localization": "none", "aggregator": "topk_eighth"}, {}, {"train_localization": "manual", **semi}, semi)
    rows = [("threshold_strategy", mode, fields) for fields in trained for mode in reversed(network.THRESHOLD_RULES)]
    rows += [("gating", "predicted", {"gating": gating}) for gating in network.GATING_KINDS]
    rows += [("regularizer", "predicted", {"reg_form": reg_form}) for reg_form in REG_FORMS]
    rows += [("training_strategy", "predicted", {"strategy": strategy, **semi}) for strategy in STRATEGIES]
    for aggregator in AGGREGATORS:
        train_loc = "none" if aggregator == "topk_eighth" else "predicted"
        rows.append(("aggregator", "predicted", {"aggregator": aggregator, "train_localization": train_loc}))
    if lambda_sweep:
        rows += [("lambda_sweep", "predicted", {"clas_weight": lam}) for lam in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    return rows


ABLATE_COLUMNS = (
    "group",
    "train_localization",
    "test_mode",
    "gating",
    "reg_form",
    "strategy",
    "aggregator",
    "supervision",
    "semi_k",
    "clas_weight",
    "seed",
    "map_at_0.5",
    "average_map",
)


def _ablate_config(base: TrainConfig, overrides: dict, seed: int) -> TrainConfig:
    loss = {k: v for k, v in overrides.items() if k in field_types(LossConfig)}
    train = {k: v for k, v in overrides.items() if k not in loss}
    return dataclasses.replace(base, loss=dataclasses.replace(base.loss, **loss), seed=seed, **train)


def _run_ablate_cell(samples, num_classes, config: TrainConfig, test_mode: str, thresholds):
    state, _ = run_training(samples, num_classes, config)
    detections = Detections.concat(iter_detections(state.params, samples, config, test_mode))
    gt = index_from_videos(samples, num_classes)
    report = evaluate(detections, gt, thresholds)
    at_half = report.map_per_threshold[thresholds.index(0.5)] if 0.5 in thresholds else float("nan")
    return at_half, report.average_map


ABLATE_DEFAULTS = {
    "preset": "medium",
    "seeds": 3,
    "iterations": 400,
    "hidden_dim": 32,
    "videos_per_class": 8,
    "iou": "0.3:0.7:0.1",
    "lambda_sweep": False,
}
_ABLATE_TYPES = {key: type(value) for key, value in ABLATE_DEFAULTS.items()}


def cmd_ablate(args) -> int:
    file_cfg = read_object(load_json_object(args.config, "config"), _ABLATE_TYPES, "ablate config") if args.config else {}
    cfg = {**ABLATE_DEFAULTS, **file_cfg, **_overrides_from_args(args, ABLATE_DEFAULTS)}
    if cfg["seeds"] < 1:
        raise ValidationError(f"ablate: seeds must be >= 1, got {cfg['seeds']}")
    seeds = list(range(cfg["seeds"]))
    thresholds = parse_iou_spec(cfg["iou"])

    spec = preset_spec(cfg["preset"], videos_per_class=cfg["videos_per_class"])
    samples = generate(spec)
    train_base = TrainConfig(
        iterations=cfg["iterations"],
        hidden_dim=cfg["hidden_dim"],
        max_clip_len=64,
        dropout=0.1,
        learning_rate=2e-3,
    )

    rows = _ablate_rows(cfg["lambda_sweep"])
    lines = [",".join(ABLATE_COLUMNS)]
    started = time.perf_counter()
    for group, test_mode, overrides in rows:
        for seed in seeds:
            config = _ablate_config(train_base, overrides, seed)
            at_half, avg = _run_ablate_cell(samples, spec.num_classes, config, test_mode, thresholds)
            # each cell shows the values it ran with, read back from its config
            values = {**vars(config), **vars(config.loss), "group": group, "test_mode": test_mode}
            lines.append(",".join([str(values[c]) for c in ABLATE_COLUMNS[:11]] + [f"{at_half:.6f}", f"{avg:.6f}"]))
            print(f"{group:20s} seed {seed}: mAP@0.5 {at_half:.3f}, avg {avg:.3f}", file=sys.stderr)
    elapsed = time.perf_counter() - started

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "ablation.csv")
    _write_text(csv_path, "".join(line + "\n" for line in lines))
    print(f"{len(rows)} cells x {len(seeds)} seeds in {elapsed:.1f}s: {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


# choices of the string fields: the tables their configs check when built
_CHOICES = {**TrainConfig.CHOICES, **LossConfig.CHOICES, "preset": sorted(PRESETS)}


def _add_field_flags(parser, types: dict) -> None:
    """One ``--field-name`` flag per field of a plain type, defaulting to None (unset)."""
    for name, kind in types.items():
        kind = next((k for k in typing.get_args(kind) if k is not type(None)), kind)  # float | None -> float
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action="store_true", default=None)
        elif kind in (int, float, str):
            parser.add_argument(flag, type=kind, choices=_CHOICES.get(name), default=None)


def _add_synth_parser(sub):
    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--preset", choices=_CHOICES["preset"], help="named parameter preset")
    p.add_argument("--spec", help="JSON file with generator fields")
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_field_flags(p, field_types(SynthSpec))
    p.set_defaults(func=cmd_synth)


def _add_train_parser(sub):
    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True, help="dataset directory or manifest path")
    p.add_argument("--config", help="JSON train config")
    p.add_argument("--out", required=True, help="output directory for checkpoint and logs")
    _add_field_flags(p, {**field_types(TrainConfig), **field_types(LossConfig)})
    p.set_defaults(func=cmd_train)


def _add_infer_parser(sub):
    p = sub.add_parser("infer", help="run inference with a trained checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint file or training output directory")
    p.add_argument("--data", required=True, help="dataset directory or manifest path")
    p.add_argument("--mode", choices=network.THRESHOLD_RULES, default="predicted")
    p.add_argument("--out", required=True, help="output detections (JSON lines)")
    p.set_defaults(func=cmd_infer)


def _add_eval_parser(sub):
    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--det", required=True, help="detections JSONL")
    p.add_argument("--gt", required=True, help="dataset manifest with ground truth segments")
    p.add_argument("--iou", default="0.3:0.7:0.1", help="threshold, comma list, or start:stop:step")
    p.add_argument("--out", required=True, help="output report JSON (CSV written alongside)")
    p.set_defaults(func=cmd_eval)


def _add_gradcheck_parser(sub):
    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)


def _add_ablate_parser(sub):
    p = sub.add_parser("ablate", help="run the ablation grids on a synthetic preset")
    p.add_argument("--config", help="JSON ablate config")
    p.add_argument("--out", required=True, help="output directory")
    _add_field_flags(p, _ABLATE_TYPES)
    p.set_defaults(func=cmd_ablate)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ttcloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth_parser(sub)
    _add_train_parser(sub)
    _add_infer_parser(sub)
    _add_eval_parser(sub)
    _add_gradcheck_parser(sub)
    _add_ablate_parser(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:  # OSError: a path given cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # a size given asks for more memory than the system grants
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
