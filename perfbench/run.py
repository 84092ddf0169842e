#!/usr/bin/env python3
"""Seeded synthetic-world benchmark for the triplescore CLI.

Run from the repository root:

    python3 perfbench/run.py --workload predict-wide --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 35 [--save perfbench/baseline.json]

One invocation generates a world from the seed (not timed), then makes
closed-loop runs for --seconds: one client, one fresh interpreter per
run that calls the `triplescore` CLI's main(), the next run spawned
after the previous one exits. With --trace 0 every run is untraced and the end-to-end
metrics are medians over the runs, with times scaled to a reference
machine speed that speed_probe() measures between runs. With --trace 1
untraced and traced runs alternate; the per-layer metrics are medians
over the traced runs, and trace.overhead_s is the difference of the two
kinds' wall medians.
The first completed run's outputs are checked against a plain-numpy
reference (reference.py); every later run must write the same bytes.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. --all runs every workload in both modes and prints a table.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
from client import LOAD_STAGES  # noqa: E402
from world import WorldSpec, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
PACKAGE = Path("src") / "triplescore" / "__init__.py"
WORK_ROOT = Path(".bench_build") / "perfbench"
NPROC = len(os.sched_getaffinity(0))
DEADLINE_S = 170         # every child is killed by then; the invocation must end by 180 s
GRAD_TOL = 1e-3          # max |d NLL / d params| accepted at a fitted model
MIN_RUNS = {False: 3, True: 4}   # per invocation, untraced / alternating traced
PROBE_REF_S = 0.075      # speed_probe() time that defines the reference speed


@dataclass(frozen=True)
class Workload:
    """BENCHMARK.json records each workload's why as
    "<why>; 1 closed-loop client; unchanged by <unchanged_by>"."""

    command: str
    world: WorldSpec
    why: str
    unchanged_by: str
    max_workers: int = 1


WORKLOADS = {
    "predict-wide": Workload(
        command="predict",
        world=WorldSpec(persons=100, holdout=40, universe=200, page_len=40, dim=100,
                        triples_per_person=5, oou_share=0.02, unembedded_share=0.02),
        why="predict with a stored ordinal artifact, 40 held-out persons, U=200 L=40 d=100; "
            "the per-entity ops/ops_rank ranking dominates",
        unchanged_by="model-layer changes",
    ),
    "cv-narrow": Workload(
        command="cv",
        world=WorldSpec(persons=300, universe=16, page_len=4, dim=50, triples_per_person=6,
                        oou_share=0.02, unembedded_share=0.02, pageless_share=0.02),
        why="cv --max-workers 2 on 1800 triples, U=16 L=4 d=50; model fits, Kendall tau, "
            "first-mention regex and the fold pool dominate",
        unchanged_by="features-only changes",
        max_workers=min(2, NPROC),
    ),
    "train-bigvocab": Workload(
        command="train",
        world=WorldSpec(persons=100, universe=60, page_len=20, dim=100, triples_per_person=5,
                        filler=59000, oou_share=0.2, unembedded_share=0.2,
                        pageless_share=0.1),
        why="train on dirty data against a 56 MB file of 60k d=100 vectors, mostly unused; "
            "embedding load dominates, the artifact is written",
        unchanged_by="model predict or CV-pool changes",
    ),
}


END_TO_END = {   # name: (unit, better, bound)
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "triples_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "ok_frac": ("share", "higher", 0.01),
    "acc_d2": ("share", "higher", 0.05),
    "asd": ("score", "lower", 0.25),
    "kendall_tau": ("tau", "higher", 0.2),
}

# name: (unit, better)
PER_LAYER = {
    "embeddings.load_s": ("s", "lower"),
    "embeddings.vectors": ("count", "lower"),
    "embeddings.file_mb": ("MB", "lower"),
    "corpus.load_s": ("s", "lower"),
    "corpus.linked_entities": ("count", "lower"),
    "features.inputs_load_s": ("s", "lower"),
    "features.extract_s": ("s", "lower"),
    "features.sim_s": ("s", "lower"),
    "features.ops_rank_s": ("s", "lower"),
    "features.mention_s": ("s", "lower"),
    "features.ops_oou_s": ("s", "lower"),
    "features.rows": ("count", "higher"),
    "features.entities": ("count", "higher"),
    "features.cosine_terms": ("count", "lower"),
    "features.oou_share": ("share", "lower"),
    "features.flagged_share": ("share", "lower"),
    "features.standardize_s": ("s", "lower"),
    "ordinal.fit_s": ("s", "lower"),
    "ordinal.fits": ("count", "lower"),
    "ordinal.predict_s": ("s", "lower"),
    "ordinal.predict_us_per_row": ("us", "lower"),
    "baselines.multinomial_fit_s": ("s", "lower"),
    "baselines.multinomial_predict_s": ("s", "lower"),
    "baselines.first_mention_s": ("s", "lower"),
    "evaluation.evaluate_s": ("s", "lower"),
    "evaluation.cv_ordinal_s": ("s", "lower"),
    "evaluation.cv_multinomial_s": ("s", "lower"),
    "evaluation.cv_first_s": ("s", "lower"),
    "evaluation.fold_max_s": ("s", "lower"),
    "evaluation.fold_overlap": ("ratio", "higher"),
    "artifact.save_s": ("s", "lower"),
    "artifact.load_s": ("s", "lower"),
    "artifact.bytes": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unspanned_s": ("s", "lower"),
}

# per-layer time metric -> span whose summed duration it reports
SPAN_METRICS = {
    "embeddings.load_s": "cli.load_embeddings",
    "corpus.load_s": "cli.load_corpus",
    "features.inputs_load_s": "cli.load_inputs",
    "features.extract_s": "cli.extract",
    "features.sim_s": "features.sim",
    "features.ops_rank_s": "features.ops_rank",
    "features.mention_s": "features.mention",
    "features.ops_oou_s": "features.ops_oou",
    "features.standardize_s": "features.standardize",
    "ordinal.fit_s": "ordinal.fit",
    "ordinal.predict_s": "ordinal.predict",
    "baselines.multinomial_fit_s": "baselines.multinomial_fit",
    "baselines.multinomial_predict_s": "baselines.multinomial_predict",
    "baselines.first_mention_s": "baselines.first_mention",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "evaluation.cv_ordinal_s": "evaluation.cv_ordinal",
    "evaluation.cv_multinomial_s": "evaluation.cv_multinomial",
    "evaluation.cv_first_s": "evaluation.cv_first",
    "artifact.save_s": "cli.save",
    "artifact.load_s": "cli.load_artifact",
    "cli.import_s": "cli.import",
}


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now.

    On a shared VM the CPU speed drifts by up to 1.8x over tens of
    seconds, and every stage of a run slows together. The probe runs in
    this process between client runs, and the end-to-end times are scaled
    by PROBE_REF_S over the mean of the probes just before and just after
    each run.
    """
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(400_000):
        total += (i * i) % 7
        table[i & 1023] = total
    return time.perf_counter() - start


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-c", "from triplescore.cli import run; run()", *args]


def run_child(argv: list[str], stdout_path: Path | None,
              deadline: float) -> tuple[int, float, bytes]:
    """Spawn, wait for exit, return (exit code, spawn-to-exit seconds, stderr).

    A child still running at the deadline (a perf_counter value) is
    killed and waited for, and subprocess.TimeoutExpired propagates.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE, env=child_env(),
                              timeout=max(1.0, deadline - start))
        wall = time.perf_counter() - start
    finally:
        if stdout_path:
            out.close()
    return proc.returncode, wall, proc.stderr


class Invocation:
    """One workload at one seed: the world, its check and its timed runs."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.name, self.seed, self.work, self.deadline = name, seed, work, deadline
        self.load = WORKLOADS[name]
        self.world_dir = work / "world"
        self.info = generate(self.load.world, seed, self.world_dir)
        w = self.world_dir
        self.triples_file = "test.tsv" if self.load.command == "predict" else "triples.tsv"
        self.model = {"predict": str(w / "model.json"),
                      "train": str(w / "trained.json")}.get(self.load.command)
        self.output = str(w / "scores.tsv") if self.load.command == "predict" else None
        self.stdout = work / "stdout.txt"
        self.first = work / "first"      # the first completed run's outputs, for check()
        self.first.mkdir()
        if self.load.command == "predict":
            self._cli(["train", *self._inputs("triples.tsv"), "--model", self.model],
                      work / "train_stdout.txt")

    def _inputs(self, triples: str) -> list[str]:
        w = self.world_dir
        return ["--embeddings", str(w / "embeddings.txt"), "--corpus", str(w / "corpus.jsonl"),
                "--universe", str(w / "universe.txt"), "--triples", str(w / triples)]

    def _cli(self, args, stdout_path):
        code, _, err = run_child(cli_command(args), stdout_path, self.deadline)
        if code != 0:
            raise BenchError(f"triplescore {args[0]} exited {code}: {err.decode()[-400:]}")

    def written(self) -> list[Path]:
        """The files one run of the command writes."""
        paths = [self.stdout]
        if self.output:
            paths.append(Path(self.output))
        if self.load.command == "train":
            paths.append(Path(self.model))
        return paths

    def output_bytes(self) -> bytes:
        """What the command wrote, with the artifact's timestamp line removed."""
        parts = [p.read_bytes() for p in self.written()]
        if self.load.command == "train":
            parts[-1] = b"".join(line for line in parts[-1].splitlines(True)
                                 if not line.lstrip().startswith(b'"created"'))
        return b"\0".join(parts)

    def keep_first(self) -> None:
        """Copy the first completed run's outputs to self.first for check()."""
        for path in self.written():
            shutil.copyfile(path, self.first / path.name)

    def argv(self) -> list[str]:
        args = [self.load.command, *self._inputs(self.triples_file)]
        if self.model:
            args += ["--model", self.model]
        if self.output:
            args += ["--output", self.output]
        if self.load.max_workers > 1:
            args += ["--max-workers", str(self.load.max_workers)]
        return args

    def client_run(self, index: int, traced: bool, dump: bool):
        spec = {
            "argv": self.argv(), "run_id": f"{self.name}-{self.seed}-{index}",
            "trace": traced, "embeddings": str(self.world_dir / "embeddings.txt"),
            "model": self.model, "record": str(self.work / "record.json"),
            "dump": str(self.first / "features") if dump else None,
        }
        spec_path = self.work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        Path(spec["record"]).unlink(missing_ok=True)
        code, wall, err = run_child([sys.executable, str(HERE / "client.py"), str(spec_path)],
                                    self.stdout, self.deadline)
        if code != 0:
            print(f"# run {index} exited {code}: {err.decode()[-400:]}", file=sys.stderr)
            return None, wall, b""
        return json.loads(Path(spec["record"]).read_text()), wall, self.output_bytes()


def check(inv: Invocation) -> tuple[int, dict, list[str]]:
    """Rows that disagree with the reference, quality metrics, notes."""
    ref = reference.World(inv.world_dir, inv.triples_file)
    rows = ref.features()
    first = inv.first
    X = np.load(first / "features.npy")
    flags = json.loads((first / "features.flags.json").read_text())
    notes = ["measured shares: oou_share={:.4f}, flagged_share={:.4f}".format(
        np.mean([r["oou"] for r in rows]), np.mean([bool(r["flags"]) for r in rows]))]
    if X.shape != (len(rows), 4) or len(flags) != len(rows):
        notes.append(f"feature matrix has shape {X.shape} for {len(rows)} rows")
        return len(rows), dict.fromkeys(QUALITY, 0.0), notes
    ok = np.array([reference.feature_row_ok(r, x, f) for r, x, f in zip(rows, X, flags)])
    notes.append(f"feature rows matching the reference: {int(ok.sum())}/{len(rows)}")
    entities = [reference.normalize_key(e) for e, _, _ in ref.triples]
    command = inv.load.command

    if command in ("predict", "train"):
        model_path = Path(inv.model) if command == "predict" else first / Path(inv.model).name
        art = json.loads(model_path.read_text())
        X_std = reference.standardize(X, art["standardizer"]["means"],
                                      art["standardizer"]["stddevs"])
        expected = reference.ordinal_argmax(X_std, art["w"], art["theta"])
    if command == "predict":
        truth = [t for _, _, t in reference.read_triples(inv.world_dir / "test_truth.tsv")]
        lines = (first / Path(inv.output).name).read_text(encoding="utf-8").splitlines()
        got = []
        for i, (ent, obj, _) in enumerate(ref.triples):
            fields = lines[i].split("\t") if i < len(lines) else []
            score = int(fields[2]) if len(fields) == 3 and fields[2].isdigit() else -1
            ok[i] &= fields[:2] == [ent, obj] and score == expected[i]
            got.append(score)
        ok &= len(lines) == len(ref.triples)
        quality = reference.metrics(entities, got, truth)
    elif command == "train":
        truth = np.array([t for _, _, t in ref.triples])
        means, stds = X.mean(axis=0), X.std(axis=0)
        std_ok = (np.allclose(art["standardizer"]["means"], means, rtol=1e-9, atol=1e-12)
                  and np.allclose(art["standardizer"]["stddevs"], stds, rtol=1e-9, atol=1e-12))
        grad = reference.ordinal_gradient(X_std, truth, art["w"], art["theta"],
                                          art["fit_config"]["reg_lambda"])
        gmax = float(np.max(np.abs(grad)))
        notes.append(f"artifact: standardizer matches={std_ok}, max |gradient|={gmax:.2e}")
        if not (std_ok and gmax <= GRAD_TOL and art["model_type"] == "ordinal"):
            ok[:] = False
        quality = reference.metrics(entities, expected, truth)
    else:
        bad_rows, quality = check_cv(inv, ref, entities, X, notes)
        ok[bad_rows] = False
    return int((~ok).sum()), quality, notes


FOLD_METRICS = (("accuracy", "acc_d2"), ("avg_score_diff", "asd"),
                ("kendall_tau", "kendall_tau"))
QUALITY = tuple(n for _, n in FOLD_METRICS)


def fold_model_ok(fit: dict, X_train, y_train, X_held) -> tuple[bool, float, np.ndarray]:
    """Standardizer and gradient of one fold's fitted model, and its held-out predictions."""
    means, stds = X_train.mean(axis=0), X_train.std(axis=0)
    std_ok = (np.allclose(fit["means"], means, rtol=1e-9, atol=1e-12)
              and np.allclose(fit["stddevs"], stds, rtol=1e-9, atol=1e-12))
    X_tr = reference.standardize(X_train, fit["means"], fit["stddevs"])
    X_ho = reference.standardize(X_held, fit["means"], fit["stddevs"])
    if "w" in fit:
        grad = reference.ordinal_gradient(X_tr, y_train, fit["w"], fit["theta"],
                                          fit["reg_lambda"])
        predicted = reference.ordinal_argmax(X_ho, fit["w"], fit["theta"])
    else:
        grad = reference.multinomial_gradient(X_tr, y_train, fit["W"], fit["b"],
                                              fit["reg_lambda"])
        predicted = reference.multinomial_argmax(X_ho, fit["W"], fit["b"])
    gmax = float(np.max(np.abs(grad)))
    return std_ok and gmax <= GRAD_TOL, gmax, predicted


def check_cv(inv: Invocation, ref: reference.World, entities: list[str], X, notes):
    """Every fold recomputed: sizes, the first-mention baseline, and each learned
    model's standardizer, gradient, held-out predictions and fold metrics."""
    truth = np.array([t for _, _, t in ref.triples])
    text = (inv.first / inv.stdout.name).read_text(encoding="utf-8")
    try:
        results = json.loads(text[text.index("{"):])
        fits = json.loads((inv.first / "features.folds.json").read_text())
        mean = results["ordinal"]["mean"]
        quality = {n: float(mean[m]) for m, n in FOLD_METRICS}
    except (ValueError, KeyError, TypeError) as exc:
        notes.append(f"cv output unreadable: {exc!r}")
        return list(range(len(entities))), dict.fromkeys(QUALITY, 0.0)
    objects = [reference.normalize_key(o) for _, o, _ in ref.triples]
    folds = reference.fold_entities(list(dict.fromkeys(entities)), 5, 0)
    bad: list[int] = []
    gmax_seen = 0.0
    for k, fold in enumerate(folds):
        held = set(fold)
        idx = [i for i, e in enumerate(entities) if e in held]
        rest = [i for i, e in enumerate(entities) if e not in held]
        fit_on = sorted({entities[i] for i in rest})
        held_entities = [entities[i] for i in idx]
        predicted = {"first": reference.first_mention_scores(
            ref.records, held_entities, [objects[i] for i in idx])}
        good = True
        for model in ("multinomial", "ordinal"):
            found = [f for f in fits if f["model_type"] == model and f["entities"] == fit_on]
            if len(found) != 1:
                good = False
                continue
            fit_ok, gmax, predicted[model] = fold_model_ok(found[0], X[rest], truth[rest],
                                                           X[idx])
            good &= fit_ok
            gmax_seen = max(gmax_seen, gmax)
        for model in ("first", "multinomial", "ordinal"):
            got = results.get(model, {}).get("folds", [])
            got = got[k] if k < len(got) else {}
            good &= got.get("n_triples") == len(idx) and got.get("n_entities") == len(fold)
            if model in predicted:
                want = reference.metrics(held_entities, predicted[model], truth[idx])
                good &= all(abs(got.get(m, np.nan) - want[n]) <= reference.METRIC_TOL
                            for m, n in FOLD_METRICS)
        if not good:
            bad += idx
    notes.append(f"cv: {len(fits)} fold models checked, max |gradient|={gmax_seen:.2e}")
    return bad, quality


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build[k] for k in ("name", "version", "openblas configuration") if k in build}
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"), "blas": blas, "nproc": NPROC, "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cpus = os.sched_getaffinity(0)
    # A single-worker workload runs on one CPU, and so does speed_probe, so
    # the probe measures the CPU the runs use; children inherit the mask.
    if WORKLOADS[name].max_workers == 1:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        return _measure(Invocation(name, seed, work, deadline), seconds, trace)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)


def _measure(inv: Invocation, seconds: int, trace: bool) -> dict:
    plain, traced = [], []        # (record, wall, slowdown) of runs that exited 0
    rows = inv.info["test_rows"] if inv.load.command == "predict" else inv.info["train_rows"]
    runs = lost = 0
    first_bytes = None
    start = time.perf_counter()
    last = 0.0
    probe = speed_probe()
    while runs < MIN_RUNS[trace] or time.perf_counter() - start + last <= seconds:
        is_traced = trace and runs % 2 == 1
        record, wall, out = inv.client_run(runs, is_traced, dump=first_bytes is None)
        after = speed_probe()
        slowdown, probe = (probe + after) / (2 * PROBE_REF_S), after
        runs += 1
        last = wall * (2 if trace else 1)
        if record is None:
            lost += 1
            continue
        if first_bytes is None:
            first_bytes = out
            inv.keep_first()
        elif out != first_bytes:
            lost += 1
            continue
        (traced if is_traced else plain).append((record, wall, slowdown))
    if first_bytes is None or not plain or (trace and not traced):
        raise BenchError(f"{inv.name}: no run completed")

    bad_rows, quality, notes = check(inv)
    kept = len(plain) + len(traced)
    attempted = rows * runs
    failed = rows * lost + bad_rows * kept
    notes.append(f"runs: {runs} ({len(plain)} untraced, {len(traced)} traced kept, "
                 f"{lost} lost); rows per run: {rows}")

    if trace:
        metrics = per_layer(plain, traced, notes, inv)
    else:
        metrics = end_to_end(plain, rows, failed, attempted, quality, notes)
    return {"workload": inv.name, "seed": inv.seed, "correct": failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def end_to_end(plain, rows, failed, attempted, quality, notes) -> dict:
    """Medians over the runs; times at reference speed (see speed_probe)."""
    slow = [f for _, _, f in plain]
    walls = [w for _, w, _ in plain]
    setups = [sum(r["stages"].get(s, 0.0) for s in LOAD_STAGES) for r, _, _ in plain]
    rates = [rows / (r["stages"]["cli.main"] - s) for (r, _, _), s in zip(plain, setups)]
    rss = [r["peak_rss_kb"] / 1024 for r, _, _ in plain]
    scaled = {"wall_s": [w / f for w, f in zip(walls, slow)],
              "setup_s": [s / f for s, f in zip(setups, slow)],
              "triples_per_s": [r * f for r, f in zip(rates, slow)]}
    for label, raw in (("wall_s", walls), ("setup_s", setups), ("triples_per_s", rates),
                       ("slowdown", slow)):
        for kind, values in (("as timed", raw), ("at reference speed", scaled.get(label))):
            if values:
                q = _quartiles(values)
                notes.append(f"{label} {kind}: median {q[1]:.4f}, quartiles {q[0]:.4f}.."
                             f"{q[2]:.4f}, n={len(values)}; runs: "
                             + " ".join(f"{v:.4f}" for v in values))
    values = {**{k: statistics.median(v) for k, v in scaled.items()},
              "peak_rss_mb": statistics.median(rss),
              "ok_frac": 1.0 - failed / attempted, **quality}
    return {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}


def per_layer(plain, traced, notes, inv) -> dict:
    samples: dict[str, list[float]] = {k: [] for k in PER_LAYER}
    untraced_wall = statistics.median([w for _, w, _ in plain])
    for record, wall, _ in traced:
        totals: dict[str, float] = {}
        for s in record["spans"]:
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
        for metric, span_name in SPAN_METRICS.items():
            samples[metric].append(totals.get(span_name, 0.0))
        for metric, value in record["counts"].items():
            samples[metric].append(value)
        spanned = record["stages"]["cli.import"] + record["stages"]["cli.main"]
        samples["trace.overhead_s"].append(wall - record["probe_s"] - untraced_wall)
        samples["trace.unspanned_s"].append(wall - record["probe_s"] - spanned)
    notes.append("coverage: cli.import + cli.main {:.4f} s, traced wall without probes "
                 "{:.4f} s, untraced wall {:.4f} s (medians)".format(
                     statistics.median([r["stages"]["cli.import"] + r["stages"]["cli.main"]
                                        for r, _, _ in traced]),
                     statistics.median([w - r["probe_s"] for r, w, _ in traced]), untraced_wall))
    selfs = spans.self_times(traced[-1][0]["spans"])
    notes.append("self time by span (last traced run): " + ", ".join(
        f"{k}={v:.4f}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
    trace_path = WORK_ROOT / f"trace-{inv.name}-{inv.seed}.json"
    trace_path.write_text(json.dumps({"spans": traced[-1][0]["spans"], "self_s": selfs}))
    notes.append(f"spans written to {trace_path}")
    return {k: {"value": statistics.median(v), "unit": PER_LAYER[k][0]}
            for k, v in samples.items()}


def report(result: dict) -> None:
    for note in result["notes"]:
        print(f"# {note}")
    for name, m in result["metrics"].items():
        print(f"# {result['workload']:<15} {name:<34} {m['value']:>14.6g} {m['unit']}")


def run_all(seed: int, seconds: int, save: str | None) -> int:
    env = environment()
    print(f"# env: {json.dumps(env)}")
    results = []
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, seed, seconds, trace)
            report(result)
            results.append(result)
    ok = all(r["correct"] for r in results)
    if save:
        Path(save).write_text(json.dumps({"env": env, "seed": seed, "seconds": seconds,
                                          "results": results}, indent=1) + "\n")
    print(json.dumps({"correct": ok, "workloads": len(WORKLOADS)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="with --all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE} not found: run from the root of a triplescore checkout",
              file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.save)
        if not args.workload:
            parser.error("--workload or --all is required")
        print(f"# env: {json.dumps(environment())}")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
