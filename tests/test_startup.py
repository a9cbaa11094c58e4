"""Each CLI command imports only what it runs: the package and the CLI bind
their numeric names on first use, and `vropt summarize` needs no numpy.  And
each command's process ends frozen (no last full collection), with the
outputs of an in-process `cli.main`."""

import gc
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vropt
from vropt import cli, dataio, optimizers, problems, sampling
from vropt.dataio import write_libsvm
from vropt.problems import LossKind, synthesize

SRC = str(Path(vropt.__file__).resolve().parents[1])


# the `vropt` console script's module and function, as pyproject.toml names them
ENTRY = re.search(r'^vropt = "([\w.]+):(\w+)"$',
                  (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8"), re.M).groups()


def run_cli(argv, block_numpy=False, script=False, exit_hook=False, cwd=None):
    """`python -m vropt.cli <argv>` in a fresh process; with script, the
    `vropt` console script's call instead: `sys.exit(function())` of the
    function that pyproject.toml names.  With block_numpy the process cannot
    import numpy.  After the command's own output, stderr ends with the list
    of vropt, numpy and concurrent modules it loaded, and with exit_hook then
    with the `gc.get_freeze_count()` that its last atexit handler reads."""
    module, function = ENTRY
    code = (
        "import atexit, gc, runpy, sys\n"
        + ("atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
           if exit_hook else "")
        + ("sys.modules['numpy'] = None\n" if block_numpy else "")
        + f"sys.argv = ['vropt', *{list(argv)!r}]\n"
        "try:\n"
        + (f"    from {module} import {function}\n    sys.exit({function}())\n" if script else
           "    runpy.run_module('vropt.cli', run_name='__main__', alter_sys=True)\n")
        + "finally:\n"
        "    print(sorted(name for name, module in sys.modules.items()\n"
        "                 if module is not None and name.startswith(LOADED)), file=sys.stderr)\n"
    ).replace("LOADED", repr(("vropt.", "numpy", "concurrent")))
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, cwd=cwd)


def test_summarize_runs_without_numpy(tmp_path):
    out = tmp_path / "traces"
    # skewed data and an even seed count: medians of two middle values, and a
    # target both schemes reach, so the table prints speed-up ratios
    spec = cli.ExperimentSpec(methods=["sarah"], schemes=["uniform", "importance"],
                              batches=[1.0, 2.0], seeds=[1, 2, 3, 4], epochs=12.0,
                              out_dir=str(out), synthetic=(40, 5, 60.0))
    cli.run_experiment(spec)
    finals = [float(p.read_text().splitlines()[-1].split(",")[2]) for p in out.glob("sarah_*")]
    eps = f"{1.2 * max(finals)!r}"
    runs = {}
    for block in (False, True):
        csv_path = tmp_path / f"summary-{block}.csv"
        runs[block] = run_cli(["summarize", str(out), "--eps", eps, "--csv", str(csv_path)],
                              block)
        assert runs[block].returncode == 0, runs[block].stderr
        runs[block].csv = csv_path.read_bytes()
    assert runs[True].stdout == runs[False].stdout
    assert runs[True].csv == runs[False].csv
    assert "uniform/importance" in runs[True].stdout
    assert runs[True].stderr.strip() == "['vropt.common']"
    text, csv_text = cli.summarize(str(out), float(eps))
    assert runs[True].stdout == text and runs[True].csv.decode() == csv_text


def test_run_loads_only_what_it_runs(tmp_path):
    done = run_cli(["run", "--synthetic", "20,3,10", "--out", str(tmp_path / "t")])
    assert done.returncode == 0, done.stderr
    loaded = done.stderr.strip()
    assert "'vropt.optimizers'" in loaded and "'numpy'" in loaded
    for name in ("vropt.dataio", "vropt.bruteforce", "concurrent.futures"):
        assert f"'{name}'" not in loaded
    done = run_cli(["run", "--synthetic", "20,3,10", "--workers", "2", "--scale",
                    "--out", str(tmp_path / "w")])
    assert done.returncode == 0, done.stderr
    assert "'concurrent.futures'" in done.stderr and "'vropt.dataio'" in done.stderr
    # the parser and every command's help need no numpy
    for command in ("run", "summarize", "verify", "alpha", "parse-check"):
        assert run_cli([command, "-h"], block_numpy=True).returncode == 0, command


def test_verify_loads_only_what_its_suites_call(capsys):
    done = run_cli(["verify", "all"])
    assert done.returncode == 0, done.stderr
    loaded = done.stderr.strip()
    assert "'vropt.bruteforce'" in loaded and "'numpy'" in loaded
    for name in ("vropt.dataio", "vropt.optimizers", "concurrent"):
        assert f"'{name}" not in loaded, name
    # the report of the eso, alpha and unbiased suites, every check passed
    lines = done.stdout.splitlines()
    assert len(lines) == 60 + 4 + 3 and all(line.endswith(": PASS") for line in lines)
    assert cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == done.stdout


def test_package_resolves_bruteforce_and_maxabs_scale():
    code = ("import vropt\n"
            "print(vropt.bruteforce.__name__, vropt.maxabs_scale is vropt.dataio.maxabs_scale)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "vropt.bruteforce True\n"


def read_tree(directory):
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


SYNTHETIC = ["--synthetic", "20,3,10", "--scheme", "uniform,importance", "--epochs", "2"]


@pytest.mark.parametrize("script", [False, True], ids=["module", "console-script"])
@pytest.mark.parametrize("argv, want", [
    (["run", *SYNTHETIC, "--seed", "2,1", "--out", "t"], 0),
    (["run", *SYNTHETIC, "--batch", "2.5", "--out", "t"], 4),
    (["run", *SYNTHETIC, "--batch", "abc", "--out", "t"], 1),
    (["summarize", "TRACES", "--csv", "summary.csv"], 0),
], ids=["run-ok", "run-failed-cell", "run-usage-error", "summarize"])
def test_process_ends_frozen_with_the_live_outputs(tmp_path, monkeypatch, capsys,
                                                   argv, want, script):
    traces = tmp_path / "traces"
    cli.run_experiment(cli.ExperimentSpec(methods=["sarah"], schemes=["uniform", "importance"],
                                          batches=[2.0], seeds=[1, 2], epochs=2.0,
                                          out_dir=str(traces), synthetic=(20, 3, 10.0)))
    argv = [str(traces) if arg == "TRACES" else arg for arg in argv]
    for where in ("process", "live"):
        (tmp_path / where).mkdir()
    done = run_cli(argv, script=script, exit_hook=True, cwd=tmp_path / "process")
    *stderr, _, frozen = done.stderr.splitlines(keepends=True)
    # the process's shutdown began with every object it held frozen
    assert int(frozen) > 0
    monkeypatch.chdir(tmp_path / "live")
    before = gc.get_freeze_count()
    assert cli.main(argv) == done.returncode == want
    # a live process keeps collecting: main freezes nothing
    assert gc.get_freeze_count() == before
    out, err = capsys.readouterr()
    assert done.stdout == out and "".join(stderr) == err
    assert read_tree(tmp_path / "process") == read_tree(tmp_path / "live")
    if want == 1:
        assert err.startswith("usage error: ")
    else:
        assert read_tree(tmp_path / "live"), "the command wrote nothing"


def test_public_names_unchanged():
    assert sorted(vropt.__all__) == [
        "ComplexityConstants", "ConfigError", "Dataset", "DivergenceError", "LossKind",
        "ParseError", "ParseReport", "Problem", "RunConfig", "RunTrace", "SamplingKind",
        "SamplingScheme", "approximate_independent", "bernoulli_subset", "bruteforce",
        "build_problem", "component_gradient", "compute_alpha", "dataio", "derive_saga_config",
        "derive_sarah_config", "derive_sarah_convex_config", "derive_svrg_config", "draw",
        "full_gradient", "independent", "loss_value", "make_dataset", "maxabs_scale",
        "optimal_probabilities", "optimizers", "parse_libsvm", "predict_complexity",
        "probability_matrix", "problems", "run_gd_wrapper", "run_saga", "run_sarah",
        "run_sarah_convex", "run_svrg", "sampling", "smoothness_constants", "subsample",
        "synthesize", "uniform_minibatch", "verify_eso", "write_libsvm",
    ]
    namespace = {}
    exec("from vropt import *", namespace)
    assert set(vropt.__all__) <= namespace.keys()
    assert namespace["run_svrg"] is optimizers.run_svrg and namespace["dataio"] is dataio
    assert vropt.LossKind is problems.LossKind and vropt.ParseError is dataio.ParseError
    with pytest.raises(AttributeError):
        vropt.no_such_name


# every name the benchmark swaps onto vropt.cli, and where it is defined
SWAPPED = {
    "load_dataset": cli, "build_problem": problems, "build_scheme": cli,
    "parse_libsvm": dataio, "maxabs_scale": dataio,
    "optimal_probabilities": sampling, "write_trace_csv": cli,
    "run_svrg": optimizers, "run_saga": optimizers, "run_sarah": optimizers,
}


@pytest.mark.parametrize("when", ["before-first-use", "after-first-use"])
def test_wrappers_swapped_onto_cli_are_called(tmp_path, monkeypatch, when):
    path = tmp_path / "toy.libsvm"
    write_libsvm(synthesize(30, 4, 10.0, seed=3), path)
    spec = lambda out: cli.ExperimentSpec(  # noqa: E731
        methods=["svrg", "saga", "sarah"], schemes=["importance"], batches=[2.0],
        seeds=[1], epochs=2.0, out_dir=str(tmp_path / out), dataset_path=str(path),
        scale=True, loss=LossKind.QUADRATIC, mu=0.5)
    counts = dict.fromkeys(SWAPPED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    if when == "before-first-use":  # unbind what a fresh process has not loaded yet
        for name in cli._SOURCES:
            monkeypatch.delitem(vars(cli), name, raising=False)
    else:
        cli.run_experiment(spec("warm"))
    for name, home in SWAPPED.items():
        monkeypatch.setitem(vars(cli), name, counting(name, vars(home)[name]))
    rows = cli.run_experiment(spec("t"))
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert all(counts.values()), counts
    assert counts["run_svrg"] == counts["run_saga"] == counts["run_sarah"] == 1


@pytest.mark.parametrize("values", [
    [3.0], [2, 1], [4, 1, 3, 2], [0.1, 0.7, 0.2, 0.3], [1e308, 1.7e308],
    [1.0, math.inf], [math.inf, math.inf], [1, 2, math.inf], [-math.inf, math.inf],
    [1.0, math.nan], [math.nan, 1.0, 2.0], [math.inf, math.nan],
])
def test_median_matches_numpy(values):
    with np.errstate(invalid="ignore", over="ignore"):
        want = float(np.median(values))
    got = cli._median(values)
    assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)
