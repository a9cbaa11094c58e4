"""Experiment harness: grid runs over methods/samplings/minibatch sizes with
reproducible CSV traces, summaries, and enumeration-backed verification.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 verification failure,
4 some cells of a run failed or diverged (their reasons are printed and in the
manifest).
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .common import LossKind, ParseError

# The numeric names this module calls, each with its module and attribute
# (None: the module itself).  _load binds them on first use, so each command
# imports only what it runs: summarize imports no numpy.  Call sites look the
# names up as module globals at call time, and _load never replaces a value
# already bound, so a wrapper swapped onto one of them stays in place.
_SOURCES = {
    "np": ("numpy", None),
    "bruteforce": (".bruteforce", None),
    **{name: (".dataio", name) for name in ("maxabs_scale", "parse_libsvm", "subsample")},
    **{name: (".optimizers", name) for name in (
        "DivergenceError", "derive_saga_config", "derive_sarah_config", "derive_svrg_config",
        "run_saga", "run_sarah", "run_svrg")},
    **{name: (".problems", name) for name in (
        "build_problem", "component_gradient", "full_gradient", "synthesize")},
    **{name: (".sampling", name) for name in (
        "approximate_independent", "compute_alpha", "independent", "optimal_probabilities",
        "probability_matrix", "uniform_minibatch", "verify_eso")},
}


def _load(*names) -> None:
    """Bind each of ``names`` that this module has not bound yet."""
    bound = globals()
    for name in names:
        if name not in bound:
            module, attr = _SOURCES[name]
            value = importlib.import_module(module, __package__)
            bound[name] = value if attr is None else getattr(value, attr)


def __getattr__(name):
    """``cli.<name>`` from outside the module binds a numeric name on first use."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(name)
    return globals()[name]


TRACE_HEADER = "epoch,loss,grad_norm_sq,sgrad_evals,wall_ns"
MANIFEST_NAME = "manifest.csv"
MANIFEST_FIELDS = (
    "method,scheme,b,seed,status,file,eta,m,outer,steps,d_refresh,alpha,K,"
    "Lbar,n,d,loss,mu,epochs,eps,cadence,dataset,scale,subsample,data_seed,error"
)

METHOD_NAMES = ("svrg", "saga", "sarah")
SCHEME_NAMES = ("uniform", "importance", "approx")


class UsageError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    """One experiment grid: the cross product of methods x schemes x batch
    sizes x seeds on a single problem."""

    methods: list = field(default_factory=lambda: ["svrg"])
    schemes: list = field(default_factory=lambda: ["uniform", "importance"])
    batches: list = field(default_factory=lambda: [1.0])
    seeds: list = field(default_factory=lambda: [0])
    epochs: float = 10.0
    out_dir: str = "traces"
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
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise UsageError(f"unknown method {m!r} (choose from {METHOD_NAMES})")
        for s in self.schemes:
            if s not in SCHEME_NAMES:
                raise UsageError(f"unknown scheme {s!r} (choose from {SCHEME_NAMES})")
        # batches are told apart as the trace file names print them
        lists = (("method", self.methods), ("scheme", self.schemes),
                 ("batch", [f"{b:g}" for b in self.batches]), ("seed", self.seeds))
        for name, values in lists:
            if len(set(values)) < len(values):
                raise UsageError(f"duplicate values in the {name} list")
        if min(self.seeds) < 0:
            raise UsageError("seeds must be non-negative")
        if self.data_seed < 0:
            raise UsageError("data seed must be non-negative")
        if not all(math.isfinite(b) and b > 0 for b in self.batches):
            raise UsageError("minibatch sizes must be positive and finite")
        if not (math.isfinite(self.epochs) and self.epochs > 0):
            raise UsageError("epochs budget must be positive and finite")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise UsageError("eps target must be positive and finite")
        if not (math.isfinite(self.checkpoint_epochs) and self.checkpoint_epochs > 0):
            raise UsageError("checkpoint cadence must be positive and finite")
        if self.workers < 1:
            raise UsageError("workers must be at least 1")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise UsageError("provide exactly one of --dataset or --synthetic")


def load_dataset(spec: ExperimentSpec):
    if spec.dataset_path is not None:
        _load("parse_libsvm")
        ds, _ = parse_libsvm(spec.dataset_path)
    else:
        _load("synthesize")
        n, d, skew = spec.synthetic
        ds = synthesize(int(n), int(d), float(skew), spec.data_seed)
    if spec.subsample_to:
        _load("subsample")
        ds = subsample(ds, spec.subsample_to, spec.data_seed)
    if spec.scale:
        _load("maxabs_scale")
        ds = maxabs_scale(ds)
    return ds


def _load_problem(spec: ExperimentSpec):
    """The spec's problem.  Values the library rejects while building it are
    usage errors; a malformed data file (ParseError) stays a data error."""
    _load("build_problem")
    try:
        return build_problem(load_dataset(spec), spec.loss, spec.mu)
    except ParseError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def build_scheme(name: str, L, b: float):
    """uniform -> fixed-size minibatch; importance -> independent sampling with
    the variance-optimal probabilities; approx -> its two-stage approximation."""
    _load("uniform_minibatch", "optimal_probabilities", "independent", "approximate_independent")
    if name == "uniform":
        return uniform_minibatch(len(L), b)
    p = optimal_probabilities(L, b)
    if name == "importance":
        return independent(p)
    if name == "approx":
        return approximate_independent(p)
    raise UsageError(f"unknown scheme {name!r}")


def _replace_file(path: Path, write) -> None:
    """Call write(fh) on a temp file beside ``path``, then rename it over
    ``path``: a crash leaves the old file or the new one, never part of one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_trace_csv(path: Path, trace, timing: bool = False) -> None:
    """Stable schema, LF endings, shortest-repr floats.  wall_ns is zeroed by
    default so reruns of the same cell are byte-identical; pass timing=True
    for real measurements."""

    def write(fh):
        fh.write(TRACE_HEADER + "\n")
        for i in range(trace.epoch.size):
            wall = int(trace.wall_ns[i]) if timing else 0
            fh.write(
                f"{float(trace.epoch[i])!r},{float(trace.loss[i])!r},"
                f"{float(trace.grad_norm_sq[i])!r},{int(trace.sgrad_evals[i])},{wall}\n"
            )

    _replace_file(Path(path), write)


def _cell_row(problem, spec: ExperimentSpec, method: str, scheme_name: str, b, seed: int) -> dict:
    """A cell's manifest row before it runs: its status reads ok."""
    row = dict.fromkeys(MANIFEST_FIELDS.split(","), "")
    row.update(
        method=method, scheme=scheme_name, b=float(b), seed=seed, status="ok",
        Lbar=problem.Lbar, n=problem.dataset.n, d=problem.dataset.d,
        loss=spec.loss.value, mu=problem.mu, epochs=float(spec.epochs),
        eps=float(spec.eps), cadence=float(spec.checkpoint_epochs),
        dataset=spec.dataset_path or "synthetic:%d,%d,%g" % spec.synthetic,
        scale=int(spec.scale), subsample=spec.subsample_to, data_seed=spec.data_seed,
    )
    return row


def _failed(row: dict, exc: Exception) -> tuple:
    row.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    return row, None


# what _run_group calls, besides build_scheme
_CELL_NAMES = ("derive_svrg_config", "run_svrg", "derive_saga_config", "run_saga",
               "derive_sarah_config", "run_sarah", "compute_alpha", "DivergenceError")

# Most seeds stepped together in one group, so that a group's look-ahead
# holds at most this many times the entries of one run's (optimizers._chunks).
GROUP_SEEDS = 8


def _run_group(problem, spec: ExperimentSpec, method: str, scheme_name: str, b, seeds):
    """Derive the theorem config of one (method, scheme, b) and run it on
    ``seeds`` together; returns each seed's manifest row (dict) and trace
    (None on failure).  A run that diverges keeps its checkpoints up to the
    last finite one, with status ``diverged``."""
    _load(*_CELL_NAMES)
    # built per call, so wrappers swapped onto this module's names are used
    derive, run = {
        "svrg": (derive_svrg_config, run_svrg),
        "saga": (derive_saga_config, run_saga),
        "sarah": (derive_sarah_config, run_sarah),
    }[method]
    rows = [_cell_row(problem, spec, method, scheme_name, b, seed) for seed in seeds]
    try:
        scheme = build_scheme(scheme_name, problem.L, b)
        cc = compute_alpha(problem.L, scheme)
        for row in rows:
            row.update(alpha=cc.alpha, K=cc.K)
        cfg = derive(problem, scheme, epochs=spec.epochs, seed=seeds[0],
                     checkpoint_epochs=spec.checkpoint_epochs)
        results = run(problem, cfg, seeds=seeds)
    except Exception as exc:  # cell failures must not kill the grid
        return [_failed(row, exc) for row in rows]
    cells = []
    for row, seed, trace in zip(rows, seeds, results):
        if isinstance(trace, DivergenceError):
            row.update(status="diverged", error=f"{type(trace).__name__}: {trace}")
            trace = trace.trace
        row.update(eta=cfg.eta, m=cfg.m, outer=cfg.outer, steps=cfg.steps,
                   d_refresh=cfg.d_refresh, file=f"{method}_{scheme_name}_b{b:g}_seed{seed}.csv")
        cells.append((row, trace))
    return cells


def _groups(spec: ExperimentSpec) -> list[tuple]:
    """The grid as seed groups (method, scheme, b, seeds), in grid order:
    the consecutive seeds of each (method, scheme, b), in as few groups of
    at most GROUP_SEEDS as there are, split further only while there would
    be fewer groups than workers."""
    keys = list(itertools.product(spec.methods, spec.schemes, spec.batches))
    seeds = spec.seeds
    parts = max(-(-len(seeds) // GROUP_SEEDS), min(len(seeds), -(-spec.workers // len(keys))))
    cuts = [len(seeds) * i // parts for i in range(parts + 1)]
    return [(*key, seeds[lo:hi]) for key in keys for lo, hi in zip(cuts, cuts[1:])]


def _run_cells(problem, spec: ExperimentSpec, groups):
    """Each group's cells, a list of (row, trace), in grid order, as soon as
    the group and the groups before it have finished.  A worker that dies
    breaks the pool: every cell of a group without a result then fails with
    the BrokenProcessPool error."""
    if spec.workers == 1:
        for group in groups:
            yield _run_group(problem, spec, *group)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork where the platform has it, whatever its default start method
    # (forkserver on Linux from Python 3.14): each worker is forked at the
    # first submit with numpy and the problem loaded, not imported afresh
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    with ProcessPoolExecutor(min(spec.workers, len(groups)), mp_context=context) as pool:
        futures = [pool.submit(_run_group, problem, spec, *group) for group in groups]
        for (*cell, seeds), future in zip(groups, futures):
            try:
                yield future.result()
            except BrokenProcessPool as exc:
                yield [_failed(_cell_row(problem, spec, *cell, seed), exc) for seed in seeds]


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Run every grid cell, the seeds of each (method, scheme, b) stepped
    together in groups, and write one CSV per successful cell as its group
    finishes; after each group's traces, rewrite the manifest recording the
    derived hyperparameters of every cell finished so far (failures
    included), so each row it names has its trace on disk."""
    spec.validate()
    # before the problem and before any worker forks: forked workers inherit
    # the modules, and on the benchmark grid, loading them after the problem
    # was built raised this process's peak RSS by ~1.7 MB
    _load(*_CELL_NAMES)
    problem = _load_problem(spec)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for cells in _run_cells(problem, spec, _groups(spec)):
        for row, trace in cells:
            if trace is not None:
                write_trace_csv(out / row["file"], trace, timing=spec.timing)
            rows.append(row)
        _write_manifest(out / MANIFEST_NAME, rows)
    return rows


def _write_manifest(path: Path, rows: list[dict]) -> None:
    fields = MANIFEST_FIELDS.split(",")

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([str(row[name]) for name in fields])

    _replace_file(path, write)


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
            raise ParseError(1, f"{path}: unexpected trace header {header!r}")
        for line_no, line in enumerate(fh, 2):
            try:
                epoch, loss, gnorm, evals, _ = line.strip().split(",")
                rows.append((float(epoch), float(loss), float(gnorm), int(evals)))
            except ValueError:
                raise ParseError(line_no, f"{path}: malformed trace row {line.strip()!r}") from None
    if not rows:
        raise ParseError(1, f"{path}: no checkpoints after the header")
    return rows


def _median(values) -> float:
    """np.median of a non-empty sequence of numbers, from the standard
    library: NaN if any value is NaN, else the middle value or the mean of
    the two middle ones."""
    import statistics  # here: only summarize needs it, and it adds ~0.7 MB to a run's RSS

    values = [float(v) for v in values]
    return math.nan if any(map(math.isnan, values)) else statistics.median(values)


def summarize(trace_dir: str, epsilon: float | None = None) -> tuple[str, str]:
    """Per-cell epochs/evaluations to first grad_norm_sq <= eps and final
    loss; medians across seeds; uniform/importance ratio per (method, b).
    ``epsilon`` defaults to the eps the run recorded in its manifest.

    Returns (text table, csv text)."""
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
        raise UsageError("eps target must be positive and finite")
    directory = Path(trace_dir)
    manifest = directory / MANIFEST_NAME
    if not manifest.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {trace_dir}")
    cells: dict[tuple, list] = {}
    with open(manifest, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if row.get("status") != "ok":
                continue
            try:
                key = (row["method"], row["scheme"], float(row["b"]))
                if epsilon is None:
                    epsilon = float(row["eps"])
                    if not (math.isfinite(epsilon) and epsilon > 0):
                        raise ValueError(f"eps {row['eps']} is not positive and finite")
                path = directory / row["file"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(reader.line_num, f"{manifest}: malformed row ({exc})") from None
            trace = _read_trace(path)
            hit_epoch = math.inf
            hit_evals = math.inf
            for epoch, _, gnorm, evals in trace:
                if gnorm <= epsilon:
                    hit_epoch, hit_evals = epoch, evals
                    break
            cells.setdefault(key, []).append((hit_epoch, hit_evals, trace[-1][1]))
    if not cells:
        raise FileNotFoundError(f"no successful traces found in {trace_dir}")
    med = {key: tuple(map(_median, zip(*vals))) for key, vals in cells.items()}
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
    _load(*_SOURCES)
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
        raise UsageError(message)


def _switch(text: str) -> bool:
    if text not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"takes 1/true/yes or 0/false/no, not {text!r}")
    return text in ("1", "true", "yes")


def _list(conv):
    """A comma list read by ``conv``; blank items are skipped."""
    return lambda text: [conv(tok) for tok in text.split(",") if tok.strip()]


def _synthetic(text: str) -> tuple:
    parts = _list(float)(text)
    if len(parts) != 3 or not all(v.is_integer() for v in parts[:2]):
        raise argparse.ArgumentTypeError(f"expects n,d,skew with whole n and d, not {text!r}")
    return int(parts[0]), int(parts[1]), parts[2]


class _ConfigFile(argparse.Action):
    """``--config FILE``: each ``key = value`` line is read by the same parser
    as the flag ``--key=value`` (a bare ``key`` as ``--key``); blank lines and
    ``#`` comments are skipped, and flags on the command line win."""

    def __call__(self, parser, namespace, path, option_string=None):
        tokens = []
        try:
            with open(path, encoding="utf-8") as fh:
                for line in map(str.strip, fh):
                    key, sep, value = (part.strip() for part in line.partition("="))
                    if key == "config":  # a file naming itself would never end
                        raise UsageError("a config file cannot name another")
                    if line and not line.startswith("#"):
                        tokens.append(f"--{key}{sep}{value}")
            values = parser.parse_args(tokens)
        except (UsageError, UnicodeDecodeError) as exc:
            raise UsageError(f"{path}: {exc}") from None
        for name, value in vars(values).items():
            vars(namespace).setdefault(name, value)


def _option(sub, flag: str, dest: str, conv=str, **kw):
    """``--flag`` read into ``dest`` by ``conv``; a ValueError from ``conv``
    becomes a usage error naming the flag and the text."""

    def parse(text):
        try:
            return conv(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed {flag} value {text!r}") from None

    kw.setdefault("metavar", flag.upper().replace("-", "_"))
    sub.add_argument(f"--{flag}", dest=dest, type=parse, **kw)


def _add_problem_flags(sub):
    _option(sub, "dataset", "dataset_path", help="LIBSVM text file")
    _option(sub, "synthetic", "synthetic", _synthetic, help="n,d,skew synthetic problem")
    _option(sub, "loss", "loss", LossKind,
            metavar="{" + ",".join(k.value for k in LossKind) + "}")
    _option(sub, "mu", "mu", float, help="strong convexity of the quadratic loss")
    _option(sub, "scale", "scale", _switch, nargs="?", const=True,
            help="per-feature max-abs scaling (optionally 1/true/yes or 0/false/no)")
    _option(sub, "subsample", "subsample_to", int, help="keep this many random rows")
    _option(sub, "data-seed", "data_seed", int)


def _build_spec(args) -> ExperimentSpec:
    """The spec of the options given; ExperimentSpec supplies the rest."""
    names = {f.name for f in fields(ExperimentSpec)}
    spec = ExperimentSpec(**{k: v for k, v in vars(args).items() if k in names})
    spec.validate()
    return spec


def make_parser() -> _Parser:
    parser = _Parser(prog="vropt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # options left out are left out of the namespace: ExperimentSpec holds their defaults
    run_p = sub.add_parser("run", help="run an experiment grid",
                           argument_default=argparse.SUPPRESS)
    run_p.set_defaults(func=cmd_run)
    _add_problem_flags(run_p)
    _option(run_p, "method", "methods", _list(str.strip), help="comma list: svrg,saga,sarah")
    _option(run_p, "scheme", "schemes", _list(str.strip), help="comma list: uniform,importance,approx")
    _option(run_p, "batch", "batches", _list(float), help="comma list of minibatch sizes")
    _option(run_p, "seed", "seeds", _list(int), help="comma list of seeds")
    _option(run_p, "epochs", "epochs", float)
    _option(run_p, "eps", "eps", float)
    _option(run_p, "out", "out_dir")
    _option(run_p, "cadence", "checkpoint_epochs", float, help="checkpoint cadence in epochs")
    _option(run_p, "workers", "workers", int)
    run_p.add_argument("--config", action=_ConfigFile, help="file of key = value lines, "
                       "each read as the flag --key=value; flags on the command line win")
    _option(run_p, "timing", "timing", _switch, nargs="?", const=True,
            help="record real wall_ns (breaks byte-identical reruns)")

    sum_p = sub.add_parser("summarize", help="table of epochs-to-target from traces")
    sum_p.set_defaults(func=cmd_summarize)
    sum_p.add_argument("trace_dir")
    sum_p.add_argument("--eps", type=float, default=None, help="target (default: the run's eps)")
    sum_p.add_argument("--csv", help="also write the summary CSV here")

    ver_p = sub.add_parser("verify", help="run enumeration-backed correctness suites")
    ver_p.set_defaults(func=cmd_verify)
    ver_p.add_argument("suite", choices=("eso", "alpha", "unbiased", "all"))

    alpha_p = sub.add_parser("alpha", help="print variance constants for a problem",
                             argument_default=argparse.SUPPRESS)
    alpha_p.set_defaults(func=cmd_alpha)
    _add_problem_flags(alpha_p)
    _option(alpha_p, "batch", "batches", _list(float), help="comma list of minibatch sizes")

    chk_p = sub.add_parser("parse-check", help="validate a LIBSVM file")
    chk_p.set_defaults(func=cmd_parse_check)
    chk_p.add_argument("path")
    return parser


def cmd_run(args) -> int:
    spec = _build_spec(args)
    rows = run_experiment(spec)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows) - len(failed)}/{len(rows)} cells ok; traces in {spec.out_dir}")
    for row in failed:
        cell = f"{row['method']}/{row['scheme']}/b={row['b']}/seed={row['seed']}"
        print(f"  {row['status']}: {cell}: {row['error']}")
    return 4 if failed else 0


def cmd_summarize(args) -> int:
    text, csv_text = summarize(args.trace_dir, args.eps)
    print(text, end="")
    if args.csv:
        _replace_file(Path(args.csv), lambda fh: fh.write(csv_text))
    return 0


def cmd_verify(args) -> int:
    return 0 if run_verification(args.suite) else 3


def cmd_alpha(args) -> int:
    spec = _build_spec(args)
    problem = _load_problem(spec)
    _load("compute_alpha")
    L = problem.L
    b_max = math.floor(L.sum() / L.max())
    print(f"n = {problem.dataset.n}, d = {problem.dataset.d}, Lbar = {problem.Lbar:.6g}, "
          f"Lmax = {problem.Lmax:.6g}, b_max = {b_max}")
    for b in spec.batches:
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
    _load("parse_libsvm")
    dataset, report = parse_libsvm(args.path)
    pos = int((dataset.labels > 0).sum())
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
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entry(argv=None) -> int:
    """The process entry of `vropt` and `python -m vropt.cli`: ``main``,
    then ``gc.freeze()``, so that the interpreter's shutdown skips its last
    full collection over every module object (numpy's included).  Every
    trace, manifest and summary is written by then; atexit handlers, stream
    flushes and refcount frees still run, and only reference cycles that die
    with the process are left unreclaimed.  A live process calls ``main``."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(entry())
