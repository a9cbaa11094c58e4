#!/usr/bin/env python3
"""vropt benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sparse-large --seed 1 --seconds 50 --trace 0

Generates the workload's inputs from --seed into a fresh directory under
``.bench_work/``, runs the package in a separate measured process
(``bench/worker.py``), checks the outputs against the benchmark's own
references, and prints the metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones (tracing off); with --trace 1 they are
the per-layer ones from a traced run.  A copy of every result, with the
machine it ran on, goes to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread everywhere, set before numpy loads here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

GRAD_RTOL = 1e-12
TIME_LIMIT_S = 170.0   # the whole run, generation and checks included

# Why each workload exists is in bench/README.md.  A workload on a LIBSVM file
# runs in process through cli.run_experiment; one on synthetic data runs the
# CLI commands as subprocesses.
WORKLOADS = {
    # a LIBSVM file large enough for per-step O(n) work and parsing to show
    "sparse-large": dict(
        sparse=(20_000, 2_000, 16, 100.0), methods=["saga", "sarah"],
        schemes=["uniform", "importance"], batches=[8], epochs=1.5, cadence=1000.0,
        seeds_per_rep=1, workers=1, scale=True,
    ),
    # the CLI as users run it: checkpoint-dense grid, process pool, summarize
    "grid-checkpoint": dict(
        synthetic=(500, 20, 100.0), methods=["svrg", "saga", "sarah"],
        schemes=["uniform", "importance"], batches=[4], epochs=3.0, cadence=0.1,
        seeds_per_rep=5, workers=2, scale=False,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def make_inputs(name: str, seed: int, work: Path) -> tuple[dict, tuple]:
    """Write the workload's inputs into ``work``; return the worker config and
    the rows the reference gradient is computed from."""
    w = WORKLOADS[name]
    cfg = {k: w[k] for k in ("methods", "schemes", "batches", "epochs", "cadence",
                             "seeds_per_rep", "workers", "scale")}
    cfg["data_seed"] = seed
    cfg["file_bytes"] = 0
    if "sparse" in w:
        n, d, nnz, skew = w["sparse"]
        cols, vals, labels = inputs.sparse_rows(n, d, nnz, skew, seed)
        path = work / "data.libsvm"
        cfg["file_bytes"] = inputs.write_libsvm(path, cols, vals, labels)
        cfg["dataset_path"] = str(path)
        d = int(cols.max()) + 1          # the parser's dimension: largest index seen
        vals = inputs.maxabs_scaled(cols, vals, d)
    else:
        n, d, skew = w["synthetic"]
        cfg["synthetic"] = [n, d, skew]
        cols, vals, labels = inputs.synthetic_rows(n, d, skew, seed)
    cfg["n"], cfg["nnz"] = n, int(vals.size)
    x = np.random.default_rng([seed, 5]).standard_normal(d)
    (work / "x.json").write_text(json.dumps(x.tolist()), encoding="utf-8")
    return cfg, (cols, vals, labels, x, d)


def run_worker(cfg: dict, work: Path, timeout: float) -> dict:
    (work / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    env = dict(os.environ, TMPDIR=str(work), PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(work / "config.json")],
        env=env, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{out}{err}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def end_to_end(res: dict, scaled: bool = True) -> dict:
    """Times scaled by each repetition's host speed (bench/README.md), or as
    measured.  run_s is the sum over the cells of each cell's median, so it
    is the time of one pass over all the workload's cells."""
    reps = res["reps"]
    speed = {id(r): r["speed"] if scaled else 1.0 for r in reps}
    cells = {}
    for r in reps:
        cells.setdefault(r["cell"], []).append(r)
    run_s = sum(statistics.median(r["run_s"] * speed[id(r)] for r in rs)
                for rs in cells.values())
    evals = sum(statistics.median(r["evals"] for r in rs) for rs in cells.values())
    return {
        "setup_s": statistics.median(t * speed[id(r)] for r in reps for t in r["setup_s"]),
        "run_s": run_s,
        "evals_per_s": evals / run_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "vropt" / "__init__.py").is_file():
        print(f"no vropt package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=ROOT / ".bench_work"))
    try:
        cfg, (cols, vals, labels, x, d) = make_inputs(args.workload, args.seed, work)
        cfg.update(src=str(SRC), seconds=args.seconds, trace=args.trace)
        cfg["budget_s"] = TIME_LIMIT_S - (time.monotonic() - start) - 10.0
        res = run_worker(cfg, work, cfg["budget_s"] + 5.0)
        ref = inputs.reference_gradient(cols, vals, labels, x, d)
        spans = work / "spans.csv"
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if spans.exists():
            shutil.copyfile(spans, out_dir / f"{stem}-spans.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    grad_err = inputs.relative_error(res["grad"], ref)
    checks = {
        "full_gradient vs fsum reference": grad_err <= GRAD_RTOL,
        "run_verification('all')": bool(res["verify_ok"]),
    }
    attempted = sum(r["cells"] + r.get("checks", 0) for r in res["reps"]) + len(checks)
    failed = sum(r["failed"] for r in res["reps"]) + sum(not ok for ok in checks.values())
    errors = [e for r in res["reps"] for e in r["errors"]]
    errors += [f"check failed: {name}" for name, ok in checks.items() if not ok]

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(res).items()}
    machine = machine_info()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reps {len(res['reps'])}  set-ups {sum(len(r['setup_s']) for r in res['reps'])}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'cell_fail_ratio':<44} {failed / attempted:>14.6g} ratio "
          f"({failed} failed of {attempted} cells and checks)")
    if not args.trace:
        raw = end_to_end(res, scaled=False)
        print("  as measured, not scaled by host speed: " + "  ".join(
            f"{k} {raw[k]:.6g}" for k in ("setup_s", "run_s", "evals_per_s")))
    print(f"  full_gradient max relative error vs fsum reference: {grad_err:.3g}")
    for e in errors:
        print(f"  FAILED: {e}")
    print("machine " + json.dumps(machine))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine,
                  reps=[{k: r.get(k) for k in ("cell", "run_s", "wall_s", "setup_s", "evals",
                                               "calib_s", "speed", "cells", "failed")}
                        for r in res["reps"]],
                  grad_rel_error=grad_err, errors=errors)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
