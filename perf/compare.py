#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics between a base tree and this one.

    git archive BASE_REV | tar -x -C BASE_DIR
    python3 perf/compare.py BASE_DIR --out BENCH_label.json

BASE_DIR holds the base tree (made with ``git archive``, as above).  The
script copies the ``bench/`` and ``src/`` of three trees into one fresh
temporary directory, as ``base`` (from BASE_DIR), ``head`` (this tree's
files as they stand) and ``ctrl`` (this tree again), so all three sit at
paths of equal length: two clones of one commit, at paths of different
lengths, once read ``grid-checkpoint`` ``run_s`` 0.406 against 0.457 s in 10
of 10 pairs.

For each workload, in each of ten rounds, it runs ``bench/run.py --seed 1
--trace 0`` once in each tree, for the ``run_seconds`` that ``BENCHMARK.json``
fixes (at 50 s, about an hour for both workloads): base, head, ctrl in even
rounds and ctrl, head, base in odd ones, so each pair of sides alternates
which goes first.  Per workload and end-to-end metric, scaled by host speed
and as measured, it reports each side's median
and quartiles, how many rounds head beat base and ctrl beat head (ties count
for neither), whether head's median is within the bound ``BENCHMARK.json``
fixes, and whether the control pair (the same code from two paths) reads
within noise: its medians no further apart than head's quartiles.  A
head-against-base difference no larger than the control's is host drift.

The full record (every run, the summaries, the machine, this tree's git
revision, the base directory's name) is written to ``--out`` as JSON.
Exits 1 if a run fails or reads ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head", "ctrl")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]
SEED = 1
PAIRS = 10
RUN_TIMEOUT_S = 600


def stage(tree: Path, dest: Path) -> None:
    """Copy the ``bench/`` and ``src/`` that ``bench/run.py`` reads."""
    for part in ("bench", "src"):
        shutil.copytree(tree / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def run_once(tree: Path, workload: str) -> dict:
    """One untraced ``bench/run.py`` run in ``tree``: its scaled metrics, the
    times as measured, correctness and machine."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    scaled = {k: m["value"] for k, m in result["metrics"].items()}
    measured = {"peak_rss_mb": scaled.get("peak_rss_mb")}
    machine = None
    for line in lines:
        text = line.strip()
        if text.startswith("as measured, not scaled by host speed:"):
            words = text.split(":", 1)[1].split()
            measured.update((k, float(v)) for k, v in zip(words[::2], words[1::2]))
        elif text.startswith("machine "):
            machine = json.loads(text[len("machine "):])
    return {"correct": bool(result["correct"]), "failed": result["failed"],
            "attempted": result["attempted"], "scaled": scaled, "as_measured": measured,
            "machine": machine}


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def wins(new: list, old: list, better: str) -> int:
    """Rounds in which ``new`` beat ``old``; ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (o - n) > 0 for n, o in zip(new, old))


def summarize(runs: dict) -> dict:
    """Per metric, for the scaled and the as-measured values: each side's
    median and quartiles, head against base and ctrl against head."""
    out = {}
    for kind in ("scaled", "as_measured"):
        out[kind] = {}
        for name, spec in METRICS.items():
            values = {s: [r[kind].get(name) for r in runs[s]] for s in SIDES}
            if any(v is None for vs in values.values() for v in vs):
                continue
            stats = {s: quartiles(values[s]) for s in SIDES}
            base, head, ctrl = (stats[s]["median"] for s in SIDES)
            worse = (head - base) / base if spec["better"] == "lower" else (base - head) / base
            out[kind][name] = dict(stats, head_vs_base={
                "ratio": head / base,
                "head_won": wins(values["head"], values["base"], spec["better"]),
                "worse_by": worse,
                "within_bound": worse <= spec["bound"],
            }, ctrl_vs_head={
                "ratio": ctrl / head,
                "ctrl_won": wins(values["ctrl"], values["head"], spec["better"]),
                "within_noise": abs(ctrl - head) <= stats["head"]["q3"] - stats["head"]["q1"],
            })
    return out


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def git_revision() -> str:
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return (git("rev-parse", "HEAD") or "unknown") + (" (with uncommitted changes)" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", type=Path, help="the base tree, made with git archive")
    parser.add_argument("--out", type=Path, required=True, help="the JSON record to write")
    args = parser.parse_args(argv)
    base_dir = args.base_dir.resolve()
    if not (base_dir / "bench" / "run.py").is_file() or not (base_dir / "src" / "vropt").is_dir():
        parser.error(f"{base_dir} holds no bench/run.py and src/vropt")

    record = {"seed": SEED, "seconds": SECONDS, "pairs": PAIRS, "machine": None,
              "base_dir": base_dir.name, "head_git": git_revision(), "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="vropt-compare-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for side, source in zip(SIDES, (base_dir, ROOT, ROOT)):
            stage(source, trees[side])
        record["tree_path_length"] = len(str(trees["base"]))
        for workload in WORKLOADS:
            runs = {s: [] for s in SIDES}
            for i in range(PAIRS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    res = run_once(trees[side], workload)
                    res["round"] = i
                    machine = res.pop("machine", None)
                    if record["machine"] is None:
                        record["machine"] = machine
                    runs[side].append(res)
                    if not res["correct"]:
                        ok = False
                        print(f"{workload} {side} round {i}: not correct: "
                              f"{res.get('error', res)}", file=sys.stderr)
                    else:
                        print(f"{workload} round {i} {side}: " + "  ".join(
                            f"{k} {v:.6g}" for k, v in res["scaled"].items()), flush=True)
            record["workloads"][workload] = {"runs": runs}
            if all(r["correct"] for rs in runs.values() for r in rs):
                record["workloads"][workload]["summary"] = summarize(runs)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, entry in record["workloads"].items():
        for name, m in entry.get("summary", {}).get("scaled", {}).items():
            hb, ch = m["head_vs_base"], m["ctrl_vs_head"]
            print(f"{workload:<16} {name:<12} base {m['base']['median']:.6g} "
                  f"[{m['base']['q1']:.6g}, {m['base']['q3']:.6g}]  head {m['head']['median']:.6g} "
                  f"[{m['head']['q1']:.6g}, {m['head']['q3']:.6g}]  head/base {hb['ratio']:.3f} "
                  f"won {hb['head_won']}/{PAIRS} within bound {hb['within_bound']}  "
                  f"ctrl/head {ch['ratio']:.3f} won {ch['ctrl_won']}/{PAIRS} "
                  f"within noise {ch['within_noise']}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
