"""The benchmark's workloads: the flags each stage is driven with.

The workload seed is appended to ``synth`` and ``train`` as ``--seed``; the
program sees nothing else of it.
"""

from __future__ import annotations

from dataclasses import dataclass

SEMI_JOINT = ("--supervision", "semi", "--semi-k", "1", "--strategy", "joint")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple[str, ...]  # synth flags besides --seed and --out
    train: tuple[str, ...]  # train flags besides --seed, --data and --out
    iterations: int
    iou: tuple[float, float, float]  # lo, hi, step for ``eval --iou lo:hi:step``
    setup_repeats: int  # synth runs before the first round; setup_s is the median of all synth runs
    slices: int  # per untraced round after train: groups of infer and eval of each mode, then synth
    eval_repeats: int  # eval runs per mode and slice; infer runs once per mode and slice
    synth_per_slice: int  # synth runs per slice (per traced round when tracing)

    def iou_spec(self) -> str:
        return ":".join(f"{v:g}" for v in self.iou)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="accept-medium",
            why=(
                "acceptance config (medium preset, hidden 128, clip 64, 300 semi steps): "
                "per-clip Python overhead beside small matmuls"
            ),
            synth=("--preset", "medium"),
            train=(
                "--hidden-dim", "128", "--max-clip-len", "64", "--batch-size", "10",
                "--dropout", "0.7", "--learning-rate", "1e-3", *SEMI_JOINT,
            ),
            iterations=300,
            iou=(0.3, 0.7, 0.1),
            setup_repeats=21,
            slices=10,
            eval_repeats=5,
            synth_per_slice=1,
        ),
        Workload(
            name="paper-scale",
            why=(
                "paper defaults (hidden 2048, clip 320), 4 semi steps: matmul-bound steps and "
                "parameter-sized Adam work; not in BENCHMARK.json, see README"
            ),
            synth=("--preset", "medium"),
            train=SEMI_JOINT,
            iterations=4,
            iou=(0.3, 0.7, 0.1),
            setup_repeats=21,
            slices=1,
            eval_repeats=25,
            synth_per_slice=21,
        ),
        Workload(
            name="long-videos",
            why=(
                "20 classes, 300-600 snippet videos, short hidden-64 training: localizer run "
                "extraction and evaluator matching over ~60k detections dominate"
            ),
            synth=(
                "--preset", "medium", "--num-classes", "20", "--feature-dim", "64",
                "--videos-per-class", "4", "--snippets-min", "300", "--snippets-max", "600",
                "--segments-min", "3", "--segments-max", "8",
            ),
            train=(
                "--hidden-dim", "64", "--max-clip-len", "64", "--batch-size", "10",
                "--dropout", "0.7", "--learning-rate", "1e-3", *SEMI_JOINT,
            ),
            iterations=150,
            iou=(0.1, 0.7, 0.1),
            setup_repeats=4,
            slices=1,
            eval_repeats=1,
            synth_per_slice=2,
        ),
    )
}
