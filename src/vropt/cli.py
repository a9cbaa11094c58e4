"""Experiment harness: grid runs over methods/samplings/minibatch sizes with
reproducible CSV traces, summaries, and enumeration-backed verification.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bruteforce
from .dataio import ParseError, maxabs_scale, parse_libsvm, subsample
from .optimizers import (
    derive_saga_config,
    derive_sarah_config,
    derive_svrg_config,
    run_saga,
    run_sarah,
    run_svrg,
)
from .problems import (
    Dataset,
    LossKind,
    build_problem,
    component_gradient,
    full_gradient,
    synthesize,
)
from .sampling import (
    approximate_independent,
    compute_alpha,
    independent,
    optimal_probabilities,
    probability_matrix,
    uniform_minibatch,
    verify_eso,
)

TRACE_HEADER = "epoch,loss,grad_norm_sq,sgrad_evals,wall_ns"
MANIFEST_NAME = "manifest.csv"
MANIFEST_FIELDS = (
    "method,scheme,b,seed,status,file,eta,m,outer,steps,d_refresh,alpha,K,"
    "Lbar,n,d,loss,mu,epochs,eps,dataset,scale,subsample,data_seed,error"
)

METHOD_NAMES = ("svrg", "saga", "sarah")
SCHEME_NAMES = ("uniform", "importance", "approx")


class UsageError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    """One experiment grid: the cross product of methods x schemes x batch
    sizes x seeds on a single problem."""

    methods: list
    schemes: list
    batches: list
    seeds: list
    epochs: float
    out_dir: str
    loss: LossKind = LossKind.SIGMOID_SQUARED
    mu: float = 0.0
    dataset_path: str | None = None
    synthetic: tuple | None = None      # (n, d, skew)
    data_seed: int = 0
    scale: bool = False
    subsample_to: int = 0
    eps: float = 1e-4
    checkpoint_epochs: float = 1.0
    workers: int = 1
    timing: bool = False

    def validate(self) -> None:
        if not (self.methods and self.schemes and self.batches and self.seeds):
            raise UsageError("method, scheme, batch and seed lists must be non-empty")
        if self.epochs <= 0:
            raise UsageError("epochs budget must be positive")
        if self.checkpoint_epochs <= 0:
            raise UsageError("checkpoint cadence must be positive")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise UsageError("provide exactly one of --dataset or --synthetic")


def load_dataset(spec: ExperimentSpec) -> Dataset:
    if spec.dataset_path is not None:
        ds, _ = parse_libsvm(spec.dataset_path)
    else:
        n, d, skew = spec.synthetic
        ds = synthesize(int(n), int(d), float(skew), spec.data_seed)
    if spec.subsample_to:
        ds = subsample(ds, spec.subsample_to, spec.data_seed)
    if spec.scale:
        ds = maxabs_scale(ds)
    return ds


def build_scheme(name: str, L, b: float):
    """uniform -> fixed-size minibatch; importance -> independent sampling with
    the variance-optimal probabilities; approx -> its two-stage approximation."""
    if name == "uniform":
        return uniform_minibatch(len(L), b)
    p = optimal_probabilities(L, b)
    if name == "importance":
        return independent(p)
    if name == "approx":
        return approximate_independent(p)
    raise UsageError(f"unknown scheme {name!r}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_trace_csv(path: Path, trace, timing: bool = False) -> None:
    """Stable schema, LF endings, shortest-repr floats.  wall_ns is zeroed by
    default so reruns of the same cell are byte-identical; pass timing=True
    for real measurements."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for i in range(trace.epoch.size):
            wall = int(trace.wall_ns[i]) if timing else 0
            fh.write(
                f"{float(trace.epoch[i])!r},{float(trace.loss[i])!r},"
                f"{float(trace.grad_norm_sq[i])!r},{int(trace.sgrad_evals[i])},{wall}\n"
            )


def _run_cell(problem, spec: ExperimentSpec, method: str, scheme_name: str, b, seed: int):
    """Derive the theorem config and run one grid cell; returns a manifest row
    (dict) plus the trace (or None on failure)."""
    row = {
        "method": method,
        "scheme": scheme_name,
        "b": _fmt(float(b)),
        "seed": seed,
        "status": "ok",
        "file": "",
        "error": "",
        "eta": "",
        "m": "",
        "outer": "",
        "steps": "",
        "d_refresh": "",
        "alpha": "",
        "K": "",
        "Lbar": _fmt(problem.Lbar),
        "n": problem.dataset.n,
        "d": problem.dataset.d,
        "loss": spec.loss.value,
        "mu": _fmt(problem.mu),
        "epochs": _fmt(float(spec.epochs)),
        "eps": _fmt(float(spec.eps)),
        "dataset": spec.dataset_path or "synthetic:%d,%d,%g" % spec.synthetic,
        "scale": int(spec.scale),
        "subsample": spec.subsample_to,
        "data_seed": spec.data_seed,
    }
    try:
        scheme = build_scheme(scheme_name, problem.L, b)
        cc = compute_alpha(problem.L, scheme)
        row["alpha"] = _fmt(cc.alpha)
        row["K"] = _fmt(cc.K)
        if method == "svrg":
            cfg = derive_svrg_config(
                problem, scheme, epochs=spec.epochs, seed=seed,
                checkpoint_epochs=spec.checkpoint_epochs,
            )
            trace = run_svrg(problem, cfg)
        elif method == "saga":
            cfg = derive_saga_config(
                problem, scheme, epochs=spec.epochs, seed=seed,
                checkpoint_epochs=spec.checkpoint_epochs,
            )
            trace = run_saga(problem, cfg)
        elif method == "sarah":
            cfg = derive_sarah_config(
                problem, scheme, epochs=spec.epochs, seed=seed,
                checkpoint_epochs=spec.checkpoint_epochs,
            )
            trace = run_sarah(problem, cfg)
        else:
            raise UsageError(f"unknown method {method!r}")
        row["eta"] = _fmt(cfg.eta)
        row["m"] = cfg.m
        row["outer"] = cfg.outer
        row["steps"] = cfg.steps
        row["d_refresh"] = _fmt(cfg.d_refresh)
        row["file"] = f"{method}_{scheme_name}_b{b:g}_seed{seed}.csv"
        return row, trace
    except Exception as exc:  # cell failures must not kill the grid
        row["status"] = "failed"
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row, None


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Run every grid cell, write one CSV per successful cell plus a manifest
    recording all derived hyperparameters (failures included)."""
    spec.validate()
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(spec)
    problem = build_problem(dataset, spec.loss, spec.mu)
    cells = [
        (m, s, b, seed)
        for m in spec.methods
        for s in spec.schemes
        for b in spec.batches
        for seed in spec.seeds
    ]
    if spec.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(spec.workers) as pool:
            results = list(
                pool.map(_cell_worker, [(problem, spec, *cell) for cell in cells])
            )
    else:
        results = [_cell_worker((problem, spec, *cell)) for cell in cells]
    rows = []
    for row, trace in results:
        if trace is not None:
            write_trace_csv(out / row["file"], trace, timing=spec.timing)
        rows.append(row)
    _write_manifest(out / MANIFEST_NAME, rows)
    return rows


def _cell_worker(packed):
    problem, spec, method, scheme_name, b, seed = packed
    return _run_cell(problem, spec, method, scheme_name, b, seed)


def _write_manifest(path: Path, rows: list[dict]) -> None:
    fields = MANIFEST_FIELDS.split(",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([str(row.get(name, "")) for name in fields])


def read_manifest(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# summarize


def _read_trace(path: Path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            rows.append((float(parts[0]), float(parts[1]), float(parts[2]), int(parts[3])))
    return rows


def summarize(trace_dir: str, epsilon: float) -> tuple[str, str]:
    """Per-cell epochs/evaluations to first grad_norm_sq <= eps and final
    loss; medians across seeds; uniform/importance ratio per (method, b).

    Returns (text table, csv text)."""
    directory = Path(trace_dir)
    manifest = directory / MANIFEST_NAME
    if not manifest.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {trace_dir}")
    cells: dict[tuple, list] = {}
    for row in read_manifest(manifest):
        if row.get("status") == "ok":
            trace = _read_trace(directory / row["file"])
            hit_epoch = math.inf
            hit_evals = math.inf
            for epoch, _, gnorm, evals in trace:
                if gnorm <= epsilon:
                    hit_epoch, hit_evals = epoch, evals
                    break
            key = (row["method"], row["scheme"], float(row["b"]))
            cells.setdefault(key, []).append((hit_epoch, hit_evals, trace[-1][1]))
    if not cells:
        raise FileNotFoundError(f"no successful traces found in {trace_dir}")
    med = {
        key: (
            float(np.median([v[0] for v in vals])),
            float(np.median([v[1] for v in vals])),
            float(np.median([v[2] for v in vals])),
        )
        for key, vals in cells.items()
    }
    lines = [f"epochs/evals to grad_norm_sq <= {epsilon:g} (medians across seeds)"]
    csv_lines = ["method,scheme,b,epochs_to_eps,evals_to_eps,final_loss"]
    fmt = "{:>6} {:>11} {:>6} {:>14} {:>14} {:>13}"
    lines.append(fmt.format("method", "scheme", "b", "epochs_to_eps", "evals_to_eps", "final_loss"))
    for key in sorted(med):
        epochs, evals, floss = med[key]
        shown = "not reached (budget)" if math.isinf(epochs) else f"{epochs:g}"
        lines.append(
            fmt.format(key[0], key[1], f"{key[2]:g}", shown,
                       "-" if math.isinf(evals) else f"{evals:g}", f"{floss:.3e}")
        )
        csv_lines.append(
            f"{key[0]},{key[1]},{key[2]!r},"
            f"{'' if math.isinf(epochs) else repr(epochs)},"
            f"{'' if math.isinf(evals) else repr(evals)},{floss!r}"
        )
    ratio_lines = []
    for (method, scheme, b), (epochs_u, _, _) in sorted(med.items()):
        if scheme != "uniform":
            continue
        imp = med.get((method, "importance", b))
        if imp is None or math.isinf(imp[0]) or imp[0] == 0 or math.isinf(epochs_u):
            continue
        ratio_lines.append(f"  {method} b={b:g}: uniform/importance = {epochs_u / imp[0]:.2f}x")
    if ratio_lines:
        lines.append("speedup of importance over uniform sampling (epochs to eps):")
        lines.extend(ratio_lines)
    return "\n".join(lines) + "\n", "\n".join(csv_lines) + "\n"


# ---------------------------------------------------------------------------
# verification command


def _verify_eso_suite(report) -> bool:
    rng = np.random.default_rng(20240211)
    ok = True
    for n in range(3, 7):
        for kind in ("uniform", "independent", "approx"):
            for _ in range(5):
                if kind == "uniform":
                    scheme = uniform_minibatch(n, int(rng.integers(1, n + 1)))
                elif kind == "independent":
                    scheme = independent(rng.uniform(0.05, 1.0, size=n))
                else:
                    scheme = approximate_independent(
                        rng.uniform(0.05, 0.6, size=n)
                    )
                P = probability_matrix(scheme)
                good = verify_eso(P, scheme.p, scheme.v)
                ok &= good
                report(
                    f"eso {kind} n={n} b={scheme.b:.3f}: "
                    f"{'PASS' if good else 'FAIL'}"
                )
    return ok


def _verify_alpha_suite(report) -> bool:
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(4):
        n = int(rng.integers(4, 9))
        L = rng.uniform(0.5, 10.0, size=n)
        b = float(rng.uniform(1.0, n - 1))
        p_star = optimal_probabilities(L, b)
        a_star = compute_alpha(L, independent(p_star)).alpha
        _, a_best = bruteforce.search_alpha_optimum(L, b, trials=10_000, seed=3)
        good = a_star <= a_best + 1e-12
        ok &= good
        report(
            f"alpha n={n} b={b:.2f}: closed form {a_star:.6f} <= "
            f"best of 10^4 random {a_best:.6f}: {'PASS' if good else 'FAIL'}"
        )
    return ok


def _verify_unbiased_suite(report) -> bool:
    ds = synthesize(4, 3, 10.0, seed=5)
    problem = build_problem(ds, LossKind.SIGMOID_SQUARED)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(3)
    ref = rng.standard_normal(3)
    target = full_gradient(problem, x)
    ok = True
    schemes = {
        "uniform": uniform_minibatch(4, 2),
        "importance": independent(optimal_probabilities(problem.L, 2.0)),
        "approx": approximate_independent(np.array([0.4, 0.5, 0.5, 0.6])),
    }
    for name, scheme in schemes.items():
        law = bruteforce.enumerate_law(scheme)
        zeta = np.array(
            [
                component_gradient(problem, i, x) - component_gradient(problem, i, ref)
                for i in range(4)
            ]
        )
        mean, _ = bruteforce.exact_estimator_moments(law, zeta)
        est = mean + full_gradient(problem, ref)
        err = float(np.max(np.abs(est - target)))
        good = err <= 1e-12
        ok &= good
        report(f"unbiased {name}: max deviation {err:.2e}: {'PASS' if good else 'FAIL'}")
    return ok


def run_verification(suite: str, stream=None) -> bool:
    stream = stream or sys.stdout

    def report(msg):
        print(msg, file=stream)

    ok = True
    if suite in ("eso", "all"):
        ok &= _verify_eso_suite(report)
    if suite in ("alpha", "all"):
        ok &= _verify_alpha_suite(report)
    if suite in ("unbiased", "all"):
        ok &= _verify_unbiased_suite(report)
    return ok


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"malformed config line: {raw.rstrip()}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _names(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _synthetic(text: str) -> tuple:
    parts = _floats(text)
    if len(parts) != 3:
        raise UsageError("--synthetic expects n,d,skew")
    return int(parts[0]), int(parts[1]), float(parts[2])


def _build_spec(args) -> ExperimentSpec:
    cfg_path = getattr(args, "config", None)
    cfg = _parse_config_file(cfg_path) if cfg_path else {}

    def pick(name, default, conv=lambda x: x):
        """The flag's value, else the config file's, else ``default``;
        ``conv`` parses it when it is text (argparse types some flags)."""
        value = getattr(args, name, None)
        if value is None or value is False:
            value = cfg.get(name)
        if value is None:
            return default
        return conv(value) if isinstance(value, str) else value

    loss_name = pick("loss", "sigmoid-squared")
    try:
        loss = LossKind(loss_name)
    except ValueError:
        raise UsageError(f"unknown loss {loss_name!r}") from None
    spec = ExperimentSpec(
        methods=pick("method", ["svrg"], _names),
        schemes=pick("scheme", ["uniform", "importance"], _names),
        batches=pick("batch", [1.0], _floats),
        seeds=pick("seed", [0], _ints),
        epochs=pick("epochs", 10.0, float),
        out_dir=pick("out", "traces"),
        loss=loss,
        mu=pick("mu", 0.0, float),
        dataset_path=pick("dataset", None),
        synthetic=pick("synthetic", None, _synthetic),
        data_seed=pick("data_seed", 0, int),
        scale=pick("scale", False, lambda v: v in ("1", "true", "yes")),
        subsample_to=pick("subsample", 0, int),
        eps=pick("eps", 1e-4, float),
        checkpoint_epochs=pick("cadence", 1.0, float),
        workers=pick("workers", 1, int),
        timing=bool(getattr(args, "timing", False)),
    )
    for m in spec.methods:
        if m not in METHOD_NAMES:
            raise UsageError(f"unknown method {m!r} (choose from {METHOD_NAMES})")
    for s in spec.schemes:
        if s not in SCHEME_NAMES:
            raise UsageError(f"unknown scheme {s!r} (choose from {SCHEME_NAMES})")
    return spec


def _add_problem_flags(sub):
    sub.add_argument("--dataset", help="LIBSVM text file")
    sub.add_argument("--synthetic", help="n,d,skew synthetic problem")
    sub.add_argument("--loss", choices=[k.value for k in LossKind], default=None)
    sub.add_argument("--mu", type=float, default=None, help="strong convexity of the quadratic loss")
    sub.add_argument("--scale", action="store_true", help="per-feature max-abs scaling")
    sub.add_argument("--subsample", type=int, default=None, help="keep this many random rows")
    sub.add_argument("--data-seed", type=int, default=None)


def make_parser() -> _Parser:
    parser = _Parser(prog="vropt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment grid")
    _add_problem_flags(run_p)
    run_p.add_argument("--method", help="comma list: svrg,saga,sarah")
    run_p.add_argument("--scheme", help="comma list: uniform,importance,approx")
    run_p.add_argument("--batch", help="comma list of minibatch sizes")
    run_p.add_argument("--seed", help="comma list of seeds")
    run_p.add_argument("--epochs", type=float, default=None)
    run_p.add_argument("--eps", type=float, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--cadence", type=float, default=None, help="checkpoint cadence in epochs")
    run_p.add_argument("--workers", type=int, default=None)
    run_p.add_argument("--config", help="key = value config file; flags override")
    run_p.add_argument("--timing", action="store_true", help="record real wall_ns (breaks byte-identical reruns)")

    sum_p = sub.add_parser("summarize", help="table of epochs-to-target from traces")
    sum_p.add_argument("trace_dir")
    sum_p.add_argument("--eps", type=float, default=1e-4)
    sum_p.add_argument("--csv", help="also write the summary CSV here")

    ver_p = sub.add_parser("verify", help="run enumeration-backed correctness suites")
    ver_p.add_argument("suite", choices=("eso", "alpha", "unbiased", "all"))

    alpha_p = sub.add_parser("alpha", help="print variance constants for a problem")
    _add_problem_flags(alpha_p)
    alpha_p.add_argument("--batch", help="comma list of minibatch sizes", default="1")

    chk_p = sub.add_parser("parse-check", help="validate a LIBSVM file")
    chk_p.add_argument("path")
    return parser


def cmd_run(args) -> int:
    spec = _build_spec(args)
    rows = run_experiment(spec)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows) - len(failed)}/{len(rows)} cells ok; traces in {spec.out_dir}")
    for row in failed:
        print(f"  failed: {row['method']}/{row['scheme']}/b={row['b']}/seed={row['seed']}: {row['error']}")
    return 0


def cmd_summarize(args) -> int:
    text, csv_text = summarize(args.trace_dir, args.eps)
    print(text, end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    return 0


def cmd_verify(args) -> int:
    return 0 if run_verification(args.suite) else 3


def cmd_alpha(args) -> int:
    batches = _floats(args.batch)
    args.batch = None
    spec = _build_spec(args)
    spec.batches = batches
    dataset = load_dataset(spec)
    problem = build_problem(dataset, spec.loss, spec.mu)
    L = problem.L
    b_max = math.floor(L.sum() / L.max())
    print(f"n = {dataset.n}, d = {dataset.d}, Lbar = {problem.Lbar:.6g}, "
          f"Lmax = {problem.Lmax:.6g}, b_max = {b_max}")
    for b in batches:
        print(f"b = {b:g}:")
        for name in SCHEME_NAMES:
            try:
                scheme = build_scheme(name, L, b)
                cc = compute_alpha(L, scheme)
                extra = ""
                if name != "uniform":
                    p = scheme.p
                    extra = f", p* in [{p.min():.4g}, {p.max():.4g}], k = {scheme.k}"
                print(f"  {name:<11} alpha = {cc.alpha:.6g}, K = {cc.K:.6g}{extra}")
            except Exception as exc:
                print(f"  {name:<11} unavailable: {exc}")
    return 0


def cmd_parse_check(args) -> int:
    dataset, report = parse_libsvm(args.path)
    pos = int(np.sum(dataset.labels > 0))
    print(
        f"{args.path}: {report.rows_read} examples, d = {dataset.d}, "
        f"{pos} positive / {dataset.n - pos} negative"
    )
    for line_no, msg in report.warnings:
        print(f"  warning line {line_no}: {msg}")
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "summarize":
            return cmd_summarize(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "alpha":
            return cmd_alpha(args)
        if args.command == "parse-check":
            return cmd_parse_check(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
