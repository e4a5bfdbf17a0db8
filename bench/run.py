"""Pipeline benchmark: synth -> train -> infer (predicted, manual) -> eval (both).

Run from the repository root:

    python3 bench/run.py --workload accept-medium --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 0

One workload runs in this process, with BLAS pinned to one thread.  Each
stage is driven through ``ttcloc.cli.main`` and its on-disk files, as the
``ttcloc`` subcommands are.  Set-up runs ``synth`` several times; then whole
rounds of train, infer, eval and synth repeat until ``--seconds`` have
passed; the metrics use the median wall time of each stage.  With ``--trace 1`` rounds alternate
between untraced and traced, and the per-layer metrics come from the traced
ones.  The outputs of the last round are then checked (see ``checks.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any stage
or check failed.  ``--workload all`` runs every workload untraced and traced,
each in its own process, and prints a summary.
"""

import os

# Pinned before NumPy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, traced
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, source): "inc"/"self" time or call count of a
# span, or a named counter
PER_LAYER = {
    "synth.generate_s": ("s", "inc", "synth.generate"),
    "data.write_dataset_s": ("s", "inc", "data.write_dataset"),
    "data.load_dataset_s": ("s", "inc", "data.load_dataset"),
    "data.load_dataset_calls": ("count", "calls", "data.load_dataset"),
    "data.crop_clip_s": ("s", "inc", "data.crop_clip"),
    "data.rasterize_s": ("s", "inc", "data.rasterize"),
    "network.forward_s": ("s", "inc", "network.forward"),
    "network.forward_calls": ("count", "calls", "network.forward"),
    "network.backward_s": ("s", "inc", "network.backward"),
    "network.backward_calls": ("count", "calls", "network.backward"),
    "network.gflop": ("GFLOP", "derived", None),
    "network.gflop_per_s": ("GFLOP/s", "derived", None),
    "network.save_params_s": ("s", "inc", "network.save_params"),
    "network.load_params_s": ("s", "inc", "network.load_params"),
    "network.checkpoint_bytes": ("bytes", "count", "network.checkpoint_bytes"),
    "objectives.total_loss_self_s": ("s", "self", "objectives.total_loss"),
    "objectives.pool_and_classify_s": ("s", "inc", "objectives.pool_and_classify"),
    "objectives.pool_backward_s": ("s", "inc", "objectives.pool_backward"),
    "objectives.classification_loss_s": ("s", "inc", "objectives.classification_loss"),
    "objectives.threshold_regularization_loss_s": ("s", "inc", "objectives.threshold_regularization_loss"),
    "objectives.localization_loss_s": ("s", "inc", "objectives.localization_loss"),
    "trainer.train_step_self_s": ("s", "self", "trainer.train_step"),
    "trainer.adam_update_s": ("s", "inc", "trainer.adam_update"),
    "trainer.steps": ("count", "calls", "trainer.train_step"),
    "trainer.final_loss": ("loss", "derived", None),
    "localizer.infer_video_self_s": ("s", "self", "localizer.infer_video"),
    "localizer.extract_segments_s": ("s", "inc", "localizer.extract_segments"),
    "localizer.extract_segments_calls": ("count", "calls", "localizer.extract_segments"),
    "localizer.detections": ("count", "count", "localizer.detections"),
    "localizer.write_detections_s": ("s", "inc", "localizer.write_detections"),
    "localizer.load_detections_s": ("s", "inc", "localizer.load_detections"),
    "evaluator.evaluate_self_s": ("s", "self", "evaluator.evaluate"),
    "evaluator.match_detections_s": ("s", "inc", "evaluator.match_detections"),
    "evaluator.match_detections_calls": ("count", "calls", "evaluator.match_detections"),
    "evaluator.interval_iou_calls": ("count", "calls", "evaluator.interval_iou"),
    "infer_snippets_per_s": ("snippets/s", "derived", None),
    "eval_detections_per_s": ("detections/s", "derived", None),
    "cli.self_s": ("s", "self", "cli"),
    "trace.overhead_s": ("s", "derived", None),
}
SETUP_LAYERS = ("synth.generate_s", "data.write_dataset_s")


class StageFailed(Exception):
    pass


def import_program():
    """Import ttcloc from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ttcloc.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ttcloc from {SRC}: {exc}")
    if SRC.resolve() not in Path(ttcloc.cli.__file__).resolve().parents:
        raise SystemExit(f"bench: ttcloc was imported from {ttcloc.cli.__file__}, not from {SRC}")
    return ttcloc.cli.main


def blas_threads():
    """Thread count reported by the BLAS NumPy links, else the pinned setting."""
    from numpy._core import _multiarray_umath

    handle = ctypes.CDLL(_multiarray_umath.__file__)  # dlsym also searches its BLAS
    for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
        if hasattr(handle, symbol):
            return int(getattr(handle, symbol)())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def pin_to_fastest_cpu() -> int:
    """Pin this process to the allowed CPU where a fixed Python loop runs fastest.

    The program is single-threaded.  On a shared VM one virtual CPU can run
    much slower than the other while a neighbour loads its hardware thread,
    and a process that migrates between them mixes both speeds.
    """
    def loop_s():
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        return time.perf_counter() - start

    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(loop_s() for _ in range(5))
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return best


def machine_facts(pinned_cpu: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


class Run:
    """Counts operations and failures; drives stages through the CLI."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def stage(self, argv, tracer=None) -> float:
        self.attempted += 1
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = tracer.run("cli", self.main, argv) if tracer else self.main(argv)
        except Exception:
            rc = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.failed += 1
            raise StageFailed(f"{argv[0]} failed ({rc}): {captured.getvalue().strip()}")
        return elapsed

    def check(self, name, fn) -> None:
        self.attempted += 1
        try:
            problems = fn()
        except Exception:
            problems = [traceback.format_exc()]
        status = "ok" if not problems else "FAILED"
        print(f"check {name}: {status}")
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def synthesize(run, wl, seed, work: Path, trace: bool, repeats: int, keep: Path | None = None):
    """Run ``synth`` ``repeats`` times into a fresh directory each.

    Returns the wall times and, when tracing, one tracer per run.  The last
    dataset is moved to ``keep`` if given and deleted otherwise.
    """
    times, tracers = [], []
    target = work / "synth"
    for _ in range(repeats):
        shutil.rmtree(target, ignore_errors=True)
        argv = ["synth", *wl.synth, "--seed", str(seed), "--out", str(target)]
        if trace:
            tracers.append(Tracer())
            with traced(tracers[-1]):
                times.append(run.stage(argv))
        else:
            times.append(run.stage(argv))
    if keep is None:
        shutil.rmtree(target)
    else:
        target.rename(keep)
    return times, tracers


def pipeline_round(run, wl, seed, work: Path, data: Path, samples: dict, tracer=None) -> float:
    """Train once, then infer in both modes and evaluate both detection files.

    Appends each stage's wall times to ``samples`` and returns the round's
    pipeline time.  An untraced round then runs ``wl.slices`` slices, each
    one infer and ``wl.eval_repeats`` evals per mode and
    ``wl.synth_per_slice`` synths (timed as ``setup``).  Infer and eval can
    take milliseconds; interleaving them this way spreads their samples over
    the round, not into one burst, as the CPU speed of a shared VM drifts
    from second to second.  A traced round runs every stage once and no
    synth.
    """
    model = work / "model"
    manifest = data / "manifest.json"
    round_samples: dict = {}

    def timed(name, argv, repeats=1):
        round_samples.setdefault(name, []).extend(run.stage(argv, tracer) for _ in range(repeats))

    timed(
        "train",
        ["train", "--data", str(data), "--out", str(model), "--iterations", str(wl.iterations), "--seed", str(seed), *wl.train],
    )
    for _ in range(1 if tracer else wl.slices):
        for mode in ("predicted", "manual"):
            det = work / f"{mode}.jsonl"
            timed(f"infer.{mode}", ["infer", "--ckpt", str(model), "--data", str(data), "--mode", mode, "--out", str(det)])
            report = work / f"{mode}_report.json"
            argv = ["eval", "--det", str(det), "--gt", str(manifest), "--iou", wl.iou_spec(), "--out", str(report)]
            timed(f"eval.{mode}", argv, 1 if tracer else wl.eval_repeats)
        if not tracer:
            round_samples.setdefault("setup", []).extend(synthesize(run, wl, seed, work, False, wl.synth_per_slice)[0])
    for name, times in round_samples.items():
        samples.setdefault(name, []).extend(times)
    return sum(statistics.median(times) for name, times in round_samples.items() if name != "setup")


def end_to_end(wl, samples: dict, work: Path, data: Path) -> dict:
    """Throughputs and pipeline time from the median time of each stage."""
    t = {name: statistics.median(times) for name, times in samples.items() if name != "setup"}
    modes = ("predicted", "manual")
    snippets = sum(v["num_snippets"] for v in checks.read_json(data / "manifest.json")["videos"])
    detections = sum(count_lines(work / f"{mode}.jsonl") for mode in modes)
    infer_s = sum(t[f"infer.{mode}"] for mode in modes)
    eval_s = sum(t[f"eval.{mode}"] for mode in modes)
    return {
        "train_steps_per_s": wl.iterations / t["train"],
        "infer_snippets_per_s": 2 * snippets / infer_s,
        "eval_detections_per_s": detections / eval_s,
        "pipeline_s": t["train"] + infer_s + eval_s,
    }


def final_loss(records: list[dict]) -> float:
    """Mean total loss over the last tenth of the steps (at least one)."""
    n = max(1, len(records) // 10)
    return statistics.fmean(r["L"] for r in records[-n:])


def layer_values(t: Tracer) -> dict:
    flop = t.counts["network.flop"]
    busy = t.inclusive["network.forward"] + t.inclusive["network.backward"]
    values = {"network.gflop": flop / 1e9, "network.gflop_per_s": flop / 1e9 / busy if busy else 0.0}
    source = {"inc": t.inclusive, "self": t.self_time, "calls": t.calls, "count": t.counts}
    for name, (_, kind, key) in PER_LAYER.items():
        if kind != "derived":
            values[name] = source[kind][key]
    return values


def run_checks(run, wl, seed, work: Path, data: Path) -> list[str]:
    """Check the last round's outputs; returns the mAP lines to print."""
    from ttcloc import network

    model = work / "model"
    config = checks.read_json(model / "train_config.json")
    manifest = checks.read_json(data / "manifest.json")
    videos = manifest["videos"]
    num_classes = manifest["num_classes"]
    feature_dim = videos[0]["feature_dim"]

    run.check("train.losses_finite", lambda: checks.check_losses_finite(checks.read_jsonl(model / "metrics.ndjson"), wl.iterations))
    run.check(
        "train.checkpoint_size",
        lambda: checks.check_checkpoint_size(model / "checkpoint.ttck", feature_dim, config["hidden_dim"], num_classes),
    )
    run.check("train.directional_gradient", lambda: checks.gradient_check(model, data, seed))

    outputs = {}

    def forward_check():
        arrays = checks.read_checkpoint(model / "checkpoint.ttck")
        program = network.load_params(str(model / "checkpoint.ttck"))
        problems = []
        for v in videos:
            x = checks.read_features(data, v)
            outputs[v["id"]] = (checks.reference_forward(arrays, x), v["snippet_duration"])
            smap, _ = network.forward(program, x)
            problems += checks.check_forward(outputs[v["id"]][0], (smap.scores, smap.thresholds), v["id"])
        return problems[: checks.MAX_REPORTED]

    run.check("infer.reference_forward", forward_check)
    found, expected = {}, {}
    for mode in ("predicted", "manual"):
        found[mode] = checks.detection_tuples(checks.read_jsonl(work / f"{mode}.jsonl"))
        expected[mode] = [
            det for vid, ((s, b), tau) in outputs.items() for det in checks.expected_detections(vid, s, b, tau, mode)
        ]
        run.check(f"infer.{mode}_runs", lambda m=mode: checks.check_runs(expected[m], found[m]))
    run.check(
        "infer.scores",
        lambda: checks.check_scores(expected["predicted"], found["predicted"]) + checks.check_scores(expected["manual"], found["manual"]),
    )

    thresholds = checks.iou_range(*wl.iou)
    ground_truth = [(v["id"], s["class_id"], s["start"], s["end"]) for v in videos for s in v["segments"] or ()]
    lines = []
    for mode in ("predicted", "manual"):
        report = checks.read_json(work / f"{mode}_report.json")
        run.check(
            f"eval.{mode}_ap",
            lambda r=report, m=mode: checks.check_report(
                r, checks.reference_ap(found[m], ground_truth, num_classes, thresholds), manifest["class_names"], thresholds
            ),
        )
        lines.append(f"{mode} mAP over IoU {wl.iou_spec()}: {report['average_map']:.4f} ({len(found[mode])} detections)")
    return lines


def run_workload(wl, seed: int, seconds: float, trace: bool) -> int:
    main = import_program()
    run = Run(main)
    facts = machine_facts(pin_to_fastest_cpu())
    work = OUT / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    metrics: dict = {}
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    try:
        # Set-up is sampled before the first round and within every round, so
        # that setup_s is not all taken in one slow or fast spell.
        data = work / "data"
        setup_times, setup_tracers = synthesize(run, wl, seed, work, trace, wl.setup_repeats, keep=data)
        samples, traced_rounds, untraced_s, round_s = {"setup": setup_times}, [], [], []
        started = time.perf_counter()
        while True:
            begun = time.perf_counter()
            if trace and len(round_s) % 2 == 1:
                tracer = Tracer()
                with traced(tracer):
                    pipeline_s = pipeline_round(run, wl, seed, work, data, {}, tracer)
                traced_rounds.append((pipeline_s, layer_values(tracer)))
                setup_tracers += synthesize(run, wl, seed, work, True, wl.synth_per_slice)[1]
            else:
                untraced_s.append(pipeline_round(run, wl, seed, work, data, samples))
            round_s.append(time.perf_counter() - begun)
            # stop before a round that would end past the deadline
            late = time.perf_counter() - started + statistics.median(round_s) > seconds
            if late and (not trace or traced_rounds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loss = final_loss(checks.read_jsonl(work / "model" / "metrics.ndjson"))
        measured = end_to_end(wl, samples, work, data)
        map_lines = run_checks(run, wl, seed, work, data)
    except StageFailed as exc:
        run.problems.append(str(exc))
        round_s = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {wl.name}, seed {seed}, {len(round_s)} rounds ({wl.iterations} train steps each)")
    if round_s and not trace:
        metrics = dict(measured, setup_s=statistics.median(samples["setup"]), peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    elif round_s:
        layers = {name: statistics.median(layer[name] for _, layer in traced_rounds) for name in traced_rounds[0][1]}
        for name in SETUP_LAYERS:
            layers[name] = statistics.median(layer_values(t)[name] for t in setup_tracers)
        traced_s = statistics.median(pipeline_s for pipeline_s, _ in traced_rounds)
        layers["trace.overhead_s"] = traced_s - statistics.median(untraced_s)
        layers["trainer.final_loss"] = loss
        for name in ("infer_snippets_per_s", "eval_detections_per_s"):
            layers[name] = measured[name]
        metrics = {name: {"value": layers[name], "unit": unit} for name, (unit, _, _) in PER_LAYER.items()}
        print(f"traced round: {traced_s:.3f} s; share of it per layer:")
        for name, m in metrics.items():
            share = f"{100 * m['value'] / traced_s:5.1f}%" if m["unit"] == "s" and name not in SETUP_LAYERS else ""
            print(f"  {name:45s} {m['value']:>14.6g} {m['unit']:8s} {share}")
    if round_s:
        print("\n".join(map_lines))
        print(f"final loss (mean L over the last tenth of the steps): {loss:.6f}")
    if round_s and not trace:
        for name, m in metrics.items():
            print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
        for name in ("infer_snippets_per_s", "eval_detections_per_s"):
            print(f"  {name:45s} {measured[name]:>14.6g} {PER_LAYER[name][0]} (per-layer)")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not run.problems
    print(f"attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} (trace {trace}, exit {proc.returncode})")
            print("\n".join(lines[:-1]))
            status = status or proc.returncode
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0, help="measure whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    if args.workload == "all":
        sys.exit(run_all(args.seed, args.seconds))
    sys.exit(run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)))
