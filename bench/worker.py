"""The measured process of one benchmark run.

``bench/run.py`` generates the inputs and starts this script with a config
file; only this process (and, for the CLI workload, its children) runs
package code, so its peak memory is the program's and not the generator's.
It writes its measurements to ``result.json`` next to the config.

    python3 bench/worker.py <work-dir>/config.json
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import (
    CALLER,
    CHECKPOINT_CALLER,
    FILE_BYTES,
    SIZE_OF_LAST_ARG,
    SIZE_OF_RESULT,
    Tracer,
)
from vropt import cli, optimizers, problems, sampling

EPS = 1e-2                      # target of the summarize step and epochs_to_eps
SETUP_SLICE_S = 0.4             # CLI workload: set-up sampling before each repetition
DRAW_BATCH_SECONDS = 0.02
DRAW_BATCHES = 7

# Host-speed calibration (see bench/README.md, "Run-to-run spread").  The
# kernel is the benchmark's own: the same kind of work as the package's full
# pass, but sharing no code with it, so no change to the package moves it.
CAL_D = 2_000
CAL_ROWS = 16_000
CAL_REF_S = 0.20                # the kernel's median time on the host in README

SETUP_SPANS = {"cli.load_dataset", "problems.build_problem", "cli.build_scheme"}
ESTIMATORS = ("svrg_direction", "saga_direction", "sarah_increment")
ANCHOR_SPANS = {
    "optimizers.take_snapshot",
    "optimizers.init_saga_memory",
    "optimizers.saga_recompute_average",
}
RUNNERS = ("run_svrg", "run_saga", "run_sarah")


def setup_targets():
    """The set-up calls inside run_experiment, timed so run_s can leave them
    out; everything else runs untouched."""
    return [
        (cli, "load_dataset", "cli.load_dataset", None),
        (cli, "build_problem", "problems.build_problem", None),
        (cli, "build_scheme", "cli.build_scheme", None),
    ]


def all_targets():
    """Every layer boundary the traced run records."""
    targets = setup_targets() + [
        (cli, "parse_libsvm", "dataio.parse_libsvm", None),
        (cli, "maxabs_scale", "dataio.maxabs_scale", None),
        (cli, "optimal_probabilities", "sampling.optimal_probabilities", None),
        (cli, "write_trace_csv", "cli.write_trace_csv", FILE_BYTES),
        (optimizers, "draw", "sampling.draw", SIZE_OF_RESULT),
        (optimizers, "full_gradient", "problems.full_gradient", CALLER),
        (optimizers, "loss_value", "problems.loss_value", CALLER),
        (optimizers, "take_snapshot", "optimizers.take_snapshot", None),
        (optimizers, "init_saga_memory", "optimizers.init_saga_memory", None),
        (optimizers, "saga_recompute_average", "optimizers.saga_recompute_average", None),
        (optimizers, "saga_refresh", "optimizers.saga_refresh", SIZE_OF_LAST_ARG),
    ]
    targets += [(optimizers, f, f"optimizers.{f}", SIZE_OF_LAST_ARG) for f in ESTIMATORS]
    # the runners are resolved through cli's namespace by the grid cell
    targets += [(cli, r, f"optimizers.{r}", None) for r in RUNNERS]
    return targets


def run_seeds(cfg, rep: int) -> list[int]:
    """Run seeds of repetition ``rep``: each repetition runs on fresh seeds,
    all derived from the workload seed."""
    return [1_000_000 * cfg["data_seed"] + 1000 * rep + j
            for j in range(1, cfg["seeds_per_rep"] + 1)]


def grid_cells(cfg) -> list[tuple]:
    return [(m, s, float(b)) for m in cfg["methods"] for s in cfg["schemes"]
            for b in cfg["batches"]]


def make_spec(cfg, out_dir, rep=0, workers=None, cells=None) -> cli.ExperimentSpec:
    """The grid of ``cells`` (all of the workload's by default) on the run
    seeds of repetition ``rep``."""
    cells = cells or grid_cells(cfg)
    return cli.ExperimentSpec(
        methods=list(dict.fromkeys(c[0] for c in cells)),
        schemes=list(dict.fromkeys(c[1] for c in cells)),
        batches=list(dict.fromkeys(c[2] for c in cells)),
        seeds=run_seeds(cfg, rep),
        epochs=float(cfg["epochs"]),
        out_dir=str(out_dir),
        dataset_path=cfg.get("dataset_path"),
        synthetic=tuple(cfg["synthetic"]) if cfg.get("synthetic") else None,
        data_seed=int(cfg["data_seed"]),
        scale=bool(cfg["scale"]),
        eps=EPS,
        checkpoint_epochs=float(cfg["cadence"]),
        workers=int(workers or cfg["workers"]),
        timing=True,
    )


def cell_count(spec) -> int:
    return len(spec.methods) * len(spec.schemes) * len(spec.batches) * len(spec.seeds)


def set_up(spec):
    """The workload's set-up calls; returns (problem, seconds)."""
    t0 = time.perf_counter()
    dataset = cli.load_dataset(spec)
    problem = problems.build_problem(dataset, spec.loss, spec.mu)
    for name in spec.schemes:
        for b in spec.batches:
            cli.build_scheme(name, problem.L, b)
    return problem, time.perf_counter() - t0


def sample_set_ups(spec, seconds: float) -> list[float]:
    """Set up at least once and until ``seconds`` have passed."""
    samples = []
    t0 = time.perf_counter()
    while True:
        samples.append(set_up(spec)[1])
        if time.perf_counter() - t0 >= seconds:
            return samples


def host_kernel(_=None) -> float:
    """Seconds one run of the calibration kernel takes: a compensated
    full-gradient pass over CAL_ROWS seeded sparse rows of dimension CAL_D."""
    rng = np.random.default_rng(0)
    cols = rng.integers(0, CAL_D, (CAL_ROWS, 16))
    vals = rng.standard_normal((CAL_ROWS, 16))
    x = 0.01 * rng.standard_normal(CAL_D)
    s, c = np.zeros(CAL_D), np.zeros(CAL_D)
    t0 = time.perf_counter()
    for i in range(CAL_ROWS):
        idx, val = cols[i], vals[i]
        z = float(val @ x[idx])
        g = np.zeros(CAL_D)
        g[idx] = math.tanh(z) * val
        yc = g - c
        t = s + yc
        c = (t - s) - yc
        s = t
    return time.perf_counter() - t0


def calibrate(pool, workers: int) -> float:
    """Kernel time at the parallelism the workload runs with: in this
    process, on the CPU the in-process cells run on, or the mean over
    ``workers`` copies run at once in ``pool``."""
    if workers == 1:
        return host_kernel()
    return statistics.mean(pool.map(host_kernel, range(workers)))


# ---------------------------------------------------------------------------
# checks on the program's outputs


def read_trace(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def check_outputs(out_dir: Path, expected_cells: int) -> dict:
    """Every expected cell is in the manifest with status ok; its trace is
    finite and its final grad_norm_sq is below its first.  For sarah the
    final row may equal the first: its output is an inner iterate drawn
    uniformly, and with one outer loop that draw can be the start point."""
    errors = []
    evals = 0
    try:
        with open(out_dir / cli.MANIFEST_NAME, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return {"cells": expected_cells, "failed": expected_cells, "evals": 0,
                "errors": [f"manifest: {exc}"]}
    missing = max(0, expected_cells - len(rows))
    if missing:
        errors.append(f"{missing} cells missing from the manifest")
    for row in rows:
        cell = f"{row['method']}/{row['scheme']}/b={row['b']}/seed={row['seed']}"
        if row["status"] != "ok":
            errors.append(f"{cell}: {row['status']} {row['error']}")
            continue
        try:
            trace = read_trace(out_dir / row["file"])
        except (OSError, ValueError) as exc:
            errors.append(f"{cell}: unreadable trace: {exc}")
            continue
        if len(trace) < 2 or not all(math.isfinite(v) for r in trace for v in r[:4]):
            errors.append(f"{cell}: trace too short or not finite")
            continue
        first, final = trace[0][2], trace[-1][2]
        if not (final <= first if row["method"] == "sarah" else final < first):
            errors.append(f"{cell}: final grad_norm_sq {final!r} not below the first {first!r}")
            continue
        evals += int(trace[-1][3])
    return {"cells": max(expected_cells, len(rows)), "failed": len(errors),
            "evals": evals, "errors": errors}


def check_summary(csv_text: str, spec) -> bool:
    """One summary row per (method, scheme, b) of the grid, no other rows."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    keys = [(r["method"], r["scheme"], float(r["b"])) for r in rows]
    want = {(m, s, float(b)) for m in spec.methods for s in spec.schemes for b in spec.batches}
    return len(keys) == len(want) and set(keys) == want


# ---------------------------------------------------------------------------
# one repetition of the workload's cells


def job_in_process(spec, targets):
    """run_experiment in this process.  Its load_dataset and build_problem
    calls, and the build_scheme call of each cell, are the set-up: run_s
    leaves them out and setup_s is their sum."""
    out = Path(spec.out_dir)
    shutil.rmtree(out, ignore_errors=True)
    tracer = Tracer(targets)
    with tracer:
        t0 = time.perf_counter()
        cli.run_experiment(spec)
        wall = time.perf_counter() - t0
    rep = check_outputs(out, cell_count(spec))
    setup = tracer.top_level_seconds(SETUP_SPANS)
    rep["wall_s"] = wall
    rep["run_s"] = wall - setup
    rep["setup_s"] = [setup]
    return rep, tracer


def run_command(cmd, timeout):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -signal.SIGKILL, "", f"timed out after {timeout:.0f} s"
    return proc.returncode, out, err


def job_cli(spec, cfg, deadline):
    """`vropt run` then `vropt summarize` as subprocesses; run_s is the wall
    time of both."""
    out = Path(spec.out_dir)
    shutil.rmtree(out, ignore_errors=True)
    summary_csv = out.parent / "summary.csv"
    run_cmd = [
        sys.executable, "-m", "vropt.cli", "run",
        "--synthetic", ",".join(str(v) for v in cfg["synthetic"]),
        "--data-seed", str(spec.data_seed),
        "--method", ",".join(spec.methods),
        "--scheme", ",".join(spec.schemes),
        "--batch", ",".join(f"{b:g}" for b in spec.batches),
        "--seed", ",".join(str(s) for s in spec.seeds),
        "--epochs", f"{spec.epochs:g}",
        "--cadence", f"{spec.checkpoint_epochs:g}",
        "--workers", str(spec.workers),
        "--timing",
        "--out", str(out),
    ]
    sum_cmd = [sys.executable, "-m", "vropt.cli", "summarize", str(out),
               "--eps", f"{EPS:g}", "--csv", str(summary_csv)]
    t0 = time.perf_counter()
    code_run, _, err_run = run_command(run_cmd, max(1.0, deadline - time.monotonic()))
    code_sum, _, err_sum = run_command(sum_cmd, max(1.0, deadline - time.monotonic()))
    wall = time.perf_counter() - t0
    rep = check_outputs(out, cell_count(spec))
    rep["checks"] = 1
    summary_ok = code_run == 0 and code_sum == 0 and summary_csv.is_file() and \
        check_summary(summary_csv.read_text(encoding="utf-8"), spec)
    if not summary_ok:
        rep["failed"] += 1
        rep["errors"].append(f"run exit {code_run}, summarize exit {code_sum}, "
                             f"or summary rows wrong: {err_run.strip()} {err_sum.strip()}")
    rep["wall_s"] = rep["run_s"] = wall
    return rep


# ---------------------------------------------------------------------------
# direct timings and per-layer metrics (traced run only)


def time_draws(scheme, seed: int) -> float:
    """Median microseconds per sampling.draw over DRAW_BATCHES batches."""
    rng = np.random.default_rng(seed)
    k = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(k):
            sampling.draw(scheme, rng)
        if time.perf_counter() - t0 >= DRAW_BATCH_SECONDS:
            break
        k *= 2
    samples = []
    for _ in range(DRAW_BATCHES):
        t0 = time.perf_counter()
        for _ in range(k):
            sampling.draw(scheme, rng)
        samples.append((time.perf_counter() - t0) / k)
    return statistics.median(samples) * 1e6


def epochs_to_eps(csv_text: str, budget: float) -> dict:
    """Median epochs to grad_norm_sq <= EPS of the importance cells, per
    method.  A method that did not reach EPS, or that the workload does not
    run, reads as the whole epoch budget: never better than a real count."""
    out = {m: budget for m in ("svrg", "saga", "sarah")}
    for r in csv.DictReader(io.StringIO(csv_text)):
        if r["scheme"] == "importance" and r["epochs_to_eps"]:
            out[r["method"]] = float(r["epochs_to_eps"])
    return out


def layer_metrics(tracer, run_s, total_evals, cfg, extra) -> dict:
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    calls, total_ns, self_ns, sizes = {}, {}, {}, {}
    checkpoint_ns = anchor_ns = 0
    for i, (name, t0, t1, parent, extra_value) in enumerate(spans):
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
        if isinstance(extra_value, int):
            sizes[name] = sizes.get(name, 0) + extra_value
        is_pass = name in ("problems.full_gradient", "problems.loss_value")
        if is_pass and extra_value == CHECKPOINT_CALLER:
            checkpoint_ns += dur
        elif name in ANCHOR_SPANS or is_pass:
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent_name not in ANCHOR_SPANS:
                anchor_ns += dur

    scale = {"us": 1e3, "ms": 1e6, "s": 1e9}
    m = {}

    def mean_time(name, unit):
        c = calls.get(name, 0)
        return (total_ns[name] / c / scale[unit]) if c else 0.0

    def timed(name, unit):
        m[f"{name}.{unit}"] = (mean_time(name, unit), unit)
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.share"] = (self_ns.get(name, 0) / 1e9 / run_s, "ratio")

    b = float(cfg["batches"][0])
    draws = calls.get("sampling.draw", 0)
    size_mean = sizes.get("sampling.draw", 0) / draws if draws else 0.0
    timed("sampling.draw", "us")
    m["sampling.draw.size_mean"] = (size_mean, "count")
    m["sampling.draw.size_over_b"] = (size_mean / b, "ratio")
    for name in ("uniform", "importance", "approx"):
        m[f"sampling.draw_{name}.us"] = (extra[f"draw_{name}_us"], "us")
    m["sampling.optimal_probabilities.ms"] = (mean_time("sampling.optimal_probabilities", "ms"), "ms")

    timed("problems.full_gradient", "ms")
    fg_s = mean_time("problems.full_gradient", "s")
    computed_bytes = cfg["nnz"] * 16 + cfg["n"] * 8
    m["problems.full_gradient.mb_per_s_computed"] = (computed_bytes / 1e6 / fg_s if fg_s else 0.0, "MB/s")
    timed("problems.loss_value", "ms")
    m["problems.build_problem.ms"] = (mean_time("problems.build_problem", "ms"), "ms")

    for f in ESTIMATORS + ("saga_refresh",):
        timed(f"optimizers.{f}", "us")
    for f in ("take_snapshot", "init_saga_memory", "saga_recompute_average"):
        timed(f"optimizers.{f}", "ms")
    runner_self_ns = sum(self_ns.get(f"optimizers.{r}", 0) for r in RUNNERS)
    m["optimizers.checkpoint.share"] = (checkpoint_ns / 1e9 / run_s, "ratio")
    m["optimizers.anchor.share"] = (anchor_ns / 1e9 / run_s, "ratio")
    m["optimizers.runner_self.share"] = (runner_self_ns / 1e9 / run_s, "ratio")
    minibatch = (sizes.get("optimizers.svrg_direction", 0) + sizes.get("optimizers.saga_direction", 0)
                 + 2 * sizes.get("optimizers.sarah_increment", 0))
    refresh = sizes.get("optimizers.saga_refresh", 0)
    m["optimizers.steps"] = (sum(calls.get(f"optimizers.{f}", 0) for f in ESTIMATORS), "count")
    m["optimizers.evals_anchor"] = (total_evals - minibatch - refresh, "count")
    m["optimizers.evals_minibatch"] = (minibatch, "count")
    m["optimizers.evals_refresh"] = (refresh, "count")
    for method in ("svrg", "saga", "sarah"):
        m[f"optimizers.epochs_to_eps.{method}"] = (extra["epochs_to_eps"][method], "epochs")

    parse_s = mean_time("dataio.parse_libsvm", "s")
    m["dataio.parse_libsvm.s"] = (parse_s, "s")
    m["dataio.parse_libsvm.mb_per_s"] = (cfg["file_bytes"] / 1e6 / parse_s if parse_s else 0.0, "MB/s")
    m["dataio.maxabs_scale.ms"] = (mean_time("dataio.maxabs_scale", "ms"), "ms")

    m["cli.load_dataset.s"] = (mean_time("cli.load_dataset", "s"), "s")
    m["cli.run_experiment.s"] = (extra["run_experiment_s"], "s")
    m["cli.write_trace_csv.ms"] = (mean_time("cli.write_trace_csv", "ms"), "ms")
    m["cli.write_trace_csv.bytes"] = (sizes.get("cli.write_trace_csv", 0), "bytes")
    m["cli.summarize.ms"] = (extra["summarize_ms"], "ms")
    m["bruteforce.verify_all.ms"] = (extra["verify_ms"], "ms")
    m["trace.overhead_ratio"] = (extra["overhead_ratio"], "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------


def verify_all():
    t0 = time.perf_counter()
    ok = cli.run_verification("all", stream=io.StringIO())
    return bool(ok), (time.perf_counter() - t0) * 1e3


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_loop(cfg, work: Path, pool, deadline: float, result: dict) -> None:
    """Repetitions until cfg["seconds"] have passed, each between two runs of
    the calibration kernel.  In process a repetition is one cell, the cells
    taken in turn, and the run measures every cell at least once; through
    the CLI a repetition is the whole grid."""
    cells = grid_cells(cfg)
    calib = [calibrate(pool, cfg["workers"])]
    t_runs = time.monotonic()
    while True:
        i = len(result["reps"])
        if "synthetic" in cfg:
            setups = sample_set_ups(make_spec(cfg, work / "out"), SETUP_SLICE_S)
            rep = job_cli(make_spec(cfg, work / "out", rep=i), cfg, deadline - 15.0)
            rep["setup_s"], rep["cell"] = setups, "grid"
        else:
            cell = cells[i % len(cells)]
            rep, _ = job_in_process(make_spec(cfg, work / "out", rep=i, cells=[cell]),
                                    setup_targets())
            rep["cell"] = "/".join(f"{v:g}" if isinstance(v, float) else v for v in cell)
        calib.append(calibrate(pool, cfg["workers"]))
        rep["calib_s"] = calib[-2:]
        rep["speed"] = CAL_REF_S / statistics.mean(calib[-2:])
        result["reps"].append(rep)
        elapsed = time.monotonic() - t_runs
        per_rep = elapsed / len(result["reps"])
        every_cell = len(result["reps"]) >= len(cells) or "synthetic" in cfg
        if (elapsed >= cfg["seconds"] and every_cell) \
                or time.monotonic() + per_rep > deadline - 20.0:
            return


def main(config_path: str) -> int:
    start = time.monotonic()
    work = Path(config_path).parent
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    package = Path(cli.__file__).resolve().parent
    if Path(cfg["src"]).resolve() not in package.parents:
        print(f"vropt imported from {package}, not from {cfg['src']}", file=sys.stderr)
        return 2
    deadline = start + cfg["budget_s"]
    spec = make_spec(cfg, work / "out")
    x = np.array(json.loads((work / "x.json").read_text(encoding="utf-8")))
    result = {"reps": []}

    problem, _ = set_up(spec)
    result["grad"] = [float(v) for v in problems.full_gradient(problem, x)]
    L = problem.L
    problem = None

    if cfg["trace"]:
        # traced in-process with one worker: spans from pool workers are lost
        spec = make_spec(cfg, work / "out", workers=1)
        base, _ = job_in_process(spec, setup_targets())
        traced, tracer = job_in_process(spec, all_targets())
        result["reps"] = [base, traced]
        tracer.write(work / "spans.csv")
        t0 = time.perf_counter()
        _, summary = cli.summarize(spec.out_dir, EPS)
        summarize_ms = (time.perf_counter() - t0) * 1e3
        extra = {"epochs_to_eps": epochs_to_eps(summary, spec.epochs), "summarize_ms": summarize_ms,
                 "run_experiment_s": traced["wall_s"],
                 "overhead_ratio": traced["run_s"] / base["run_s"]}
        for i, name in enumerate(("uniform", "importance", "approx")):
            scheme = cli.build_scheme(name, L, spec.batches[0])
            extra[f"draw_{name}_us"] = time_draws(scheme, cfg["data_seed"] + i)
        result["verify_ok"], extra["verify_ms"] = verify_all()
        result["layers"] = layer_metrics(tracer, traced["run_s"], traced["evals"], cfg, extra)
    else:
        with concurrent.futures.ProcessPoolExecutor(cfg["workers"]) as pool:
            run_loop(cfg, work, pool, deadline, result)
            result["verify_ok"], _ = verify_all()
            # read while the calibration processes still run, so that only
            # the program's own children are counted
            result["peak_rss_mb"] = peak_rss_mb()
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
