import io
import multiprocessing
import os
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vropt import cli
from vropt.cli import (
    ExperimentSpec,
    MANIFEST_NAME,
    UsageError,
    _build_spec,
    _run_group,
    build_scheme,
    main,
    make_parser,
    read_manifest,
    run_experiment,
    run_verification,
    summarize,
)
from vropt.dataio import ParseError
from vropt.problems import LossKind
from vropt.sampling import SamplingKind


def tiny_spec(out_dir, **kw):
    base = dict(
        methods=["svrg"],
        schemes=["uniform", "importance"],
        batches=[2.0],
        seeds=[1, 2],
        epochs=3.0,
        out_dir=str(out_dir),
        loss=LossKind.SIGMOID_SQUARED,
        synthetic=(30, 5, 20.0),
        eps=1e-2,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def read_bytes_map(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.csv"))
    }


def _run_group_killing_seed_3(problem, spec, method, scheme, b, seeds):
    """_run_group, except that the group holding seed 3 kills its worker
    process once the other group has written its traces."""
    if 3 in seeds:
        deadline = time.monotonic() + 30
        while len(list(Path(spec.out_dir).glob("*.csv"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(1)
    return _run_group(problem, spec, method, scheme, b, seeds)


class TestRunExperiment:
    def test_cell_count_and_manifest(self, tmp_path):
        rows = run_experiment(tiny_spec(tmp_path / "t"))
        assert len(rows) == 1 * 2 * 1 * 2
        files = list((tmp_path / "t").glob("*.csv"))
        assert (tmp_path / "t" / MANIFEST_NAME).exists()
        assert len(files) == 4 + 1  # four traces plus the manifest

    def test_csv_schema(self, tmp_path):
        run_experiment(tiny_spec(tmp_path / "t"))
        trace = next(p for p in (tmp_path / "t").glob("svrg_*.csv"))
        lines = trace.read_text().splitlines()
        assert lines[0] == "epoch,loss,grad_norm_sq,sgrad_evals,wall_ns"
        first = lines[1].split(",")
        assert len(first) == 5
        assert first[4] == "0"  # deterministic by default

    def test_rerun_byte_identical(self, tmp_path):
        run_experiment(tiny_spec(tmp_path / "a"))
        run_experiment(tiny_spec(tmp_path / "b"))
        a = read_bytes_map(tmp_path / "a")
        b = read_bytes_map(tmp_path / "b")
        assert a == b

    def test_failed_cell_recorded_others_run(self, tmp_path):
        # b = 29 violates the step-size precondition for svrg but not sarah
        spec = tiny_spec(tmp_path / "t", methods=["svrg", "sarah"], batches=[25.0])
        rows = run_experiment(spec)
        by_method = {}
        for row in rows:
            by_method.setdefault(row["method"], set()).add(row["status"])
        assert "failed" in by_method["svrg"]
        assert by_method["sarah"] == {"ok"}

    def test_manifest_records_hyperparameters(self, tmp_path):
        from vropt.cli import read_manifest

        run_experiment(tiny_spec(tmp_path / "t"))
        row = read_manifest(tmp_path / "t" / MANIFEST_NAME)[0]
        assert float(row["eta"]) > 0
        assert float(row["alpha"]) > 0
        assert row["status"] == "ok"
        assert row["dataset"].startswith("synthetic:")
        assert row["data_seed"] == "0"  # fields after the quoted one stay aligned

    def test_workers_same_output(self, tmp_path):
        run_experiment(tiny_spec(tmp_path / "seq"))
        run_experiment(tiny_spec(tmp_path / "par", workers=2))
        assert read_bytes_map(tmp_path / "seq") == read_bytes_map(tmp_path / "par")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_manifest_written_once_per_group(self, tmp_path, monkeypatch, workers):
        # groups of at most two seeds: per (method, b), seed 1 then seeds 2
        # and 3; b = 2.5 fails every uniform cell, whose rows name no file
        monkeypatch.setattr(cli, "GROUP_SEEDS", 2)
        spec = tiny_spec(tmp_path / "t", methods=["svrg", "sarah"], schemes=["uniform"],
                         batches=[2.0, 2.5], seeds=[1, 2, 3], workers=workers)
        assert [len(g[3]) for g in cli._groups(spec)] == [1, 2] * 4
        written, write = [], cli._write_manifest

        def counted(path, rows):
            missing = [row["file"] for row in rows
                       if row["file"] and not (path.parent / row["file"]).is_file()]
            written.append((len(rows), missing))
            write(path, rows)

        monkeypatch.setattr(cli, "_write_manifest", counted)
        rows = run_experiment(spec)
        assert written == [(k, []) for k in (1, 3, 4, 6, 7, 9, 10, 12)]
        assert sum(row["status"] == "failed" for row in rows) == 6

    def test_files_are_replaced_whole(self, tmp_path):
        out = tmp_path / "t"
        run_experiment(tiny_spec(out, workers=2))
        written = read_bytes_map(out)
        assert len(written) == 5 and not list(out.glob("*.tmp"))

        def fails_part_way(fh):
            fh.write("method,scheme\n")
            raise OSError("disk full")

        # a write that fails leaves the previous file and no temp file
        with pytest.raises(OSError, match="disk full"):
            cli._replace_file(out / MANIFEST_NAME, fails_part_way)
        assert read_bytes_map(out) == written and not list(out.glob("*.tmp"))

    def test_uniform_non_integer_batch_fails_cell(self, tmp_path):
        spec = tiny_spec(tmp_path / "t", schemes=["uniform"], batches=[2.5])
        rows = run_experiment(spec)
        assert all(r["status"] == "failed" for r in rows)

    def test_spec_validation(self, tmp_path):
        with pytest.raises(UsageError):
            tiny_spec(tmp_path / "t", methods=[]).validate()
        with pytest.raises(UsageError):
            tiny_spec(tmp_path / "t", dataset_path="x").validate()

    @pytest.mark.parametrize(
        "flags",
        [["--scheme", ","], ["--batch", ","], ["--cadence", "-1"], ["--cadence", "0"]],
        ids=["no-scheme", "no-batch", "negative-cadence", "zero-cadence"],
    )
    def test_empty_grid_or_cadence_is_usage_error(self, tmp_path, flags):
        out = tmp_path / "t"
        assert main(["run", "--synthetic", "10,3,2", "--out", str(out), *flags]) == 1
        assert not out.exists()

    def test_trace_reproducible_from_manifest_alone(self, tmp_path):
        from vropt.cli import read_manifest

        run_experiment(tiny_spec(tmp_path / "orig", methods=["saga"], seeds=[3],
                                 checkpoint_epochs=0.25))
        row = read_manifest(tmp_path / "orig" / MANIFEST_NAME)[0]
        assert row["scheme"] == "uniform" or row["scheme"] == "importance"
        n, d, skew = row["dataset"].split(":")[1].split(",")
        rebuilt = ExperimentSpec(
            methods=[row["method"]],
            schemes=[row["scheme"]],
            batches=[float(row["b"])],
            seeds=[int(row["seed"])],
            epochs=float(row["epochs"]),
            out_dir=str(tmp_path / "rebuilt"),
            loss=LossKind(row["loss"]),
            mu=float(row["mu"]),
            synthetic=(int(n), int(d), float(skew)),
            data_seed=int(row["data_seed"]),
            scale=bool(int(row["scale"])),
            subsample_to=int(row["subsample"]),
            eps=float(row["eps"]),
            checkpoint_epochs=float(row["cadence"]),
        )
        run_experiment(rebuilt)
        original = (tmp_path / "orig" / row["file"]).read_bytes()
        again = (tmp_path / "rebuilt" / row["file"]).read_bytes()
        assert original == again


class TestSummarize:
    def test_table_and_ratio(self, tmp_path):
        spec = tiny_spec(tmp_path / "t", epochs=6.0, seeds=[1, 2, 3])
        run_experiment(spec)
        text, csv_text = summarize(str(tmp_path / "t"), epsilon=1e-2)
        assert "svrg" in text
        lines = csv_text.splitlines()
        assert lines[0] == "method,scheme,b,epochs_to_eps,evals_to_eps,final_loss"
        assert len(lines) == 3  # header + two scheme rows

    def test_not_reached_reported(self, tmp_path):
        spec = tiny_spec(tmp_path / "t", epochs=2.0)
        run_experiment(spec)
        text, _ = summarize(str(tmp_path / "t"), epsilon=1e-30)
        assert "not reached (budget)" in text

    def test_importance_speedup_ratio_at_least_one(self, tmp_path):
        # skewed data: pick a target both schemes cross, then the
        # uniform/importance epoch ratio must come out >= 1
        spec = tiny_spec(
            tmp_path / "t", methods=["sarah"], epochs=12.0, seeds=[1, 2, 3],
            synthetic=(40, 5, 60.0),
        )
        run_experiment(spec)
        finals = [
            float(p.read_text().splitlines()[-1].split(",")[2])
            for p in (tmp_path / "t").glob("sarah_*.csv")
        ]
        eps = 1.2 * max(finals)
        text, csv_text = summarize(str(tmp_path / "t"), epsilon=eps)
        rows = {}
        for line in csv_text.splitlines()[1:]:
            parts = line.split(",")
            rows[parts[1]] = float(parts[3])
        assert rows["uniform"] >= rows["importance"]
        assert "uniform/importance" in text

    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize(str(tmp_path / "nothing"), epsilon=1e-3)

    # a manifest eps that is not positive and finite: nan and -1 once read
    # every cell "not reached", inf every cell reached at epoch 0
    @pytest.mark.parametrize("target", ["trace", "manifest", "eps=nan", "eps=-1", "eps=inf", "eps=0"])
    def test_malformed_file_is_data_error(self, tmp_path, capsys, target):
        run_experiment(tiny_spec(tmp_path / "t", schemes=["uniform"], seeds=[1]))
        if target == "trace":
            path = tmp_path / "t" / "svrg_uniform_b2_seed1.csv"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[2] = "1.0,abc,3,4,5\n"
            line_no = 3
        else:
            path = tmp_path / "t" / MANIFEST_NAME
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            if target == "manifest":
                lines[1] = lines[1].replace("svrg,uniform,2.0,", "svrg,uniform,xyz,", 1)
            else:
                fields = lines[1].split(",")
                fields[lines[0].split(",").index("eps")] = target[len("eps="):]
                lines[1] = ",".join(fields)
            line_no = 2
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["summarize", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: line {line_no}: {path}")
        if target.startswith("eps="):
            assert f"eps {target[len('eps='):]} is not positive and finite" in err

    def test_reports_exact_crossing_epoch(self, tmp_path):
        # hand-written single trace crossing the target at epoch 7.5
        d = tmp_path / "t"
        d.mkdir()
        (d / "svrg_uniform_b2_seed1.csv").write_text(
            "epoch,loss,grad_norm_sq,sgrad_evals,wall_ns\n"
            "0.0,1.0,1.0,0,0\n"
            "5.0,0.5,0.1,100,0\n"
            "7.5,0.4,0.0009,150,0\n"
            "9.0,0.3,0.0001,180,0\n",
            encoding="utf-8",
        )
        header = (
            "method,scheme,b,seed,status,file,eta,m,outer,steps,d_refresh,"
            "alpha,K,Lbar,n,d,loss,mu,epochs,eps,dataset,scale,subsample,"
            "data_seed,error"
        )
        (d / MANIFEST_NAME).write_text(
            header + "\n"
            "svrg,uniform,2.0,1,ok,svrg_uniform_b2_seed1.csv,0.1,1,1,0,0.0,"
            "1.0,1.0,1.0,20,2,sigmoid-squared,0.0,9.0,0.001,synthetic:20,2,1,"
            "0,0,\n",
            encoding="utf-8",
        )
        _, csv_text = summarize(str(d), epsilon=1e-3)
        row = csv_text.splitlines()[1].split(",")
        assert float(row[3]) == 7.5
        assert float(row[4]) == 150


class TestBuildScheme:
    def test_uniform(self):
        s = build_scheme("uniform", np.ones(10), 3.0)
        assert s.kind is SamplingKind.UNIFORM_MINIBATCH

    def test_importance_uses_optimal_probabilities(self):
        L = np.array([1.0, 2.0, 3.0, 4.0])
        s = build_scheme("importance", L, 2.0)
        assert np.allclose(s.p, [0.2, 0.4, 0.6, 0.8])

    def test_unknown(self):
        with pytest.raises(UsageError):
            build_scheme("bogus", np.ones(3), 1.0)


class TestVerification:
    def test_all_suites_pass(self):
        buf = io.StringIO()
        assert run_verification("all", stream=buf)
        out = buf.getvalue()
        assert "PASS" in out and "FAIL" not in out.replace("PASS", "")

    def test_failure_exit_code(self, monkeypatch):
        import vropt.cli as cli

        monkeypatch.setattr(cli, "run_verification", lambda suite: False)
        assert main(["verify", "eso"]) == 3


class TestMainEntry:
    def test_usage_error_exit_code(self, tmp_path, capsys):
        assert main(["run", "--method", "nope", "--synthetic", "10,3,2"]) == 1
        # malformed numbers and lists, from a flag or a config file
        out = tmp_path / "t"
        assert main(["run", "--synthetic", "10,3,2", "--batch", "abc", "--out", str(out)]) == 1
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("synthetic = 10,3,2\nseed = x\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert main(["alpha", "--synthetic", "10,3,2", "--batch", "abc"]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "malformed batch value 'abc'" in err and "malformed seed value 'x'" in err
        # no data source; values the library rejects while building the
        # problem; worker counts; non-finite budgets; repeated grid values;
        # batch sizes and eps targets (of a run or of a summary of finished
        # traces) that are not positive and finite
        syn = ["--synthetic", "10,3,2"]
        done = tmp_path / "done"
        run_experiment(tiny_spec(done, schemes=["uniform"], seeds=[1]))
        good = tmp_path / "good.libsvm"
        good.write_text("1 1:0.5 2:1\n-1 1:1\n1 2:0.3\n", encoding="utf-8")
        huge = tmp_path / "huge.libsvm"
        huge.write_text("1 1:0.5 2:1\n-1 1:1e300\n1 2:0.3\n", encoding="utf-8")
        labels = tmp_path / "labels.libsvm"  # rows that store no nonzero value
        labels.write_text("1\n-1\n1\n", encoding="utf-8")
        for argv in (
            ["alpha"],
            ["alpha", *syn, "--mu", "0.5"],
            ["run", *syn, "--subsample", "-3"],
            ["run", "--synthetic", "0,5,10"],
            ["run", "--synthetic", "50,5,0.5"],
            ["run", *syn, "--loss", "quadratic", "--mu", "-1"],
            ["run", *syn, "--loss", "quadratic", "--mu", "nan"],
            ["run", *syn, "--loss", "quadratic", "--mu", "inf"],
            ["alpha", *syn, "--loss", "quadratic", "--mu", "nan"],
            ["alpha", *syn, "--loss", "quadratic", "--mu", "inf"],
            ["run", "--synthetic", "10,3,nan"],
            ["run", "--synthetic", "10,3,inf"],
            ["alpha", "--synthetic", "10,3,nan"],
            ["run", *syn, "--mu", "0.5"],
            ["run", *syn, "--workers", "0"],
            ["run", *syn, "--workers", "-2"],
            ["run", *syn, "--epochs", "nan"],
            ["run", *syn, "--cadence", "nan"],
            ["run", *syn, "--seed", "1,1"],
            ["run", *syn, "--seed", "-1"],
            ["run", *syn, "--seed", "2,-3"],
            ["run", *syn, "--data-seed", "-1"],
            ["run", "--dataset", str(good), "--data-seed", "-1"],
            ["alpha", "--dataset", str(good), "--data-seed", "-1"],
            ["run", *syn, "--batch", "2,2.0"],
            ["run", *syn, "--batch", "nan"],
            ["run", *syn, "--batch", "inf"],
            ["run", *syn, "--batch", "0"],
            ["run", *syn, "--batch", "-2"],
            ["alpha", *syn, "--batch", "nan"],
            ["run", *syn, "--eps", "-5"],
            ["run", *syn, "--eps", "nan"],
            ["run", *syn, "--eps", "inf"],
            ["run", *syn, "--eps", "0"],
            ["summarize", str(done), "--eps", "nan"],
            ["summarize", str(done), "--eps", "inf"],
            ["summarize", str(done), "--eps", "0"],
            ["summarize", str(done), "--eps", "-5"],
            # finite numbers whose squared smoothness constants overflow
            ["run", "--synthetic", "10,3,1e308"],
            ["alpha", "--synthetic", "10,3,1e308"],
            ["run", *syn, "--loss", "quadratic", "--mu", "1e308"],
            ["alpha", *syn, "--loss", "quadratic", "--mu", "1e308"],
            ["run", "--dataset", str(huge)],
            ["alpha", "--dataset", str(huge)],
            ["run", "--dataset", str(labels)],
            ["alpha", "--dataset", str(labels)],
        ):
            if argv[0] == "run":
                argv = [*argv, "--out", str(out)]
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("usage error:"), argv
            if "1e308" in argv or str(huge) in argv:
                assert re.search(r"row \d+ \(counting from 0\): smoothness constant L_\d+ = ", err), err
            if str(labels) in argv:
                assert "every smoothness constant is 0" in err, err
            if "--data-seed" in argv:
                assert "data seed" in err, argv
        assert not out.exists()
        # a malformed or non-UTF-8 data file stays a data error
        bad = tmp_path / "bad.libsvm"
        for content in (b"1 1:0.5\n1 3:1 2:1\n", b"1 1:0.5\n\xff1 2:1\n"):
            bad.write_bytes(content)
            assert main(["run", "--dataset", str(bad), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("data error: line 2:")
        assert not out.exists()

    def test_failed_cells_exit_code(self, tmp_path, capsys):
        out = tmp_path / "t"
        flags = ["--synthetic", "10,3,2", "--scheme", "uniform", "--out", str(out)]
        assert main(["run", *flags, "--batch", "2.5"]) == 4
        assert "0/1 cells ok" in capsys.readouterr().out
        assert (out / MANIFEST_NAME).exists()
        assert main(["run", *flags, "--batch", "2"]) == 0

    def test_diverged_cell_keeps_its_finite_checkpoints(self, tmp_path, capsys, monkeypatch):
        cli._load(*cli._CELL_NAMES)
        derive = cli.derive_svrg_config

        def blown_up(*args, **kwargs):
            # a step size far above the theorem's: the quadratic loss blows up
            cfg = derive(*args, **kwargs)
            cfg.eta *= 1e4
            return cfg

        monkeypatch.setitem(vars(cli), "derive_svrg_config", blown_up)
        out = tmp_path / "t"
        flags = ["run", "--synthetic", "30,4,10", "--loss", "quadratic", "--method", "svrg,sarah",
                 "--scheme", "uniform", "--batch", "2", "--epochs", "6", "--cadence", "0.5"]
        assert main([*flags, "--out", str(out)]) == 4
        printed = capsys.readouterr().out
        assert "1/2 cells ok" in printed and "  diverged: svrg/uniform/b=2.0/seed=0: " in printed
        diverged, ok = read_manifest(out / MANIFEST_NAME)
        assert (diverged["status"], ok["status"]) == ("diverged", "ok")
        assert diverged["error"].startswith("DivergenceError: objective diverged at ")
        assert float(diverged["eta"]) > 0 and diverged["file"] == "svrg_uniform_b2_seed0.csv"
        # the trace the error carries: every checkpoint before the blow-up
        spec = _build_spec(make_parser().parse_args([*flags, "--out", str(tmp_path / "ref")]))
        problem = cli._load_problem(spec)
        cfg = blown_up(problem, build_scheme("uniform", problem.L, 2.0), epochs=6.0, seed=0,
                       checkpoint_epochs=0.5)
        with pytest.raises(cli.DivergenceError) as err:
            cli.run_svrg(problem, cfg)
        cli.write_trace_csv(tmp_path / "want.csv", err.value.trace)
        written = (out / diverged["file"]).read_text(encoding="utf-8")
        assert written == (tmp_path / "want.csv").read_text(encoding="utf-8")
        losses = [float(line.split(",")[1]) for line in written.splitlines()[1:]]
        assert len(losses) >= 2 and all(np.isfinite(losses))
        # summarize reads only the cells that are ok
        text, csv_text = summarize(str(out))
        assert csv_text.count("\n") == 2 and "\nsarah,uniform," in csv_text

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patched cell function reaches the workers by fork")
    def test_worker_killed_mid_grid(self, tmp_path, capsys, monkeypatch):
        flags = ["--synthetic", "25,4,10", "--method", "sarah", "--scheme", "uniform",
                 "--batch", "2", "--epochs", "2"]
        out = tmp_path / "t"
        # two workers split the four seeds into the groups 1,2 and 3,4
        spec = cli.ExperimentSpec(methods=["sarah"], schemes=["uniform"], batches=[2.0],
                                  seeds=[1, 2, 3, 4], workers=2)
        assert [group[3] for group in cli._groups(spec)] == [[1, 2], [3, 4]]
        monkeypatch.setattr(cli, "_run_group", _run_group_killing_seed_3)
        assert main(["run", *flags, "--seed", "1,2,3,4", "--workers", "2",
                     "--out", str(out)]) == 4
        printed = capsys.readouterr().out
        assert "2/4 cells ok" in printed and printed.count(": BrokenProcessPool: ") == 2
        rows = read_manifest(out / MANIFEST_NAME)
        assert [row["status"] for row in rows] == ["ok", "ok", "failed", "failed"]
        assert all(row["error"].startswith("BrokenProcessPool: ") for row in rows[2:])
        assert rows[3]["seed"] == "4" and rows[3]["n"] == "25" and rows[3]["file"] == ""
        # the cells that returned keep their traces, as a clean run writes them
        monkeypatch.undo()
        assert main(["run", *flags, "--seed", "1,2", "--out", str(tmp_path / "clean")]) == 0
        traces = read_bytes_map(out)
        clean = read_bytes_map(tmp_path / "clean")
        del traces[MANIFEST_NAME], clean[MANIFEST_NAME]
        assert traces == clean and len(traces) == 2
        assert not list(out.glob("*.tmp"))

    def test_interrupted_grid_keeps_manifest_of_finished_cells(self, tmp_path, monkeypatch):
        flags = ["--synthetic", "25,4,10", "--method", "sarah", "--scheme", "uniform",
                 "--batch", "2", "--epochs", "2", "--workers", "1"]
        calls = []

        def interrupted_second(*group):
            calls.append(group)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return _run_group(*group)

        # groups of two seeds: 1,2 finishes, then 3,4 is interrupted
        monkeypatch.setattr(cli, "GROUP_SEEDS", 2)
        monkeypatch.setattr(cli, "_run_group", interrupted_second)
        out = tmp_path / "t"
        with pytest.raises(KeyboardInterrupt):
            main(["run", *flags, "--seed", "1,2,3,4", "--out", str(out)])
        assert [group[5] for group in calls] == [[1, 2], [3, 4]]
        rows = read_manifest(out / MANIFEST_NAME)
        assert [(row["seed"], row["status"]) for row in rows] == [("1", "ok"), ("2", "ok")]
        assert all((out / row["file"]).is_file() for row in rows)
        assert not list(out.glob("*.tmp"))
        # the manifest and traces of a clean run of the finished cells
        monkeypatch.undo()
        assert main(["run", *flags, "--seed", "1,2", "--out", str(tmp_path / "clean")]) == 0
        assert read_bytes_map(out) == read_bytes_map(tmp_path / "clean")

    def test_groups_split_only_for_workers(self, monkeypatch):
        spec = cli.ExperimentSpec(methods=["svrg", "sarah"], schemes=["uniform"], batches=[2.0],
                                  seeds=list(range(11)))
        groups = cli._groups(spec)
        assert [(g[0], g[3]) for g in groups] == [("svrg", list(range(5))), ("svrg", list(range(5, 11))),
                                                  ("sarah", list(range(5))), ("sarah", list(range(5, 11)))]
        assert max(len(g[3]) for g in groups) <= cli.GROUP_SEEDS
        spec.workers = 4  # as many groups as workers already
        assert cli._groups(spec) == groups
        spec.workers, spec.seeds = 3, [7, 8, 9]
        assert [g[3] for g in cli._groups(spec)] == [[7], [8, 9], [7], [8, 9]]
        spec.workers = 64  # one seed per group at most
        assert [g[3] for g in cli._groups(spec)] == [[7], [8], [9]] * 2
        monkeypatch.setattr(cli, "GROUP_SEEDS", 1)
        spec.workers = 1
        assert [g[3] for g in cli._groups(spec)] == [[7], [8], [9]] * 2

    def test_pool_sized_to_its_groups(self, tmp_path, monkeypatch):
        import concurrent.futures
        sizes = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        flags = ["run", "--synthetic", "25,4,10", "--method", "sarah", "--scheme", "uniform",
                 "--batch", "2", "--epochs", "2", "--seed", "1,2"]
        for workers in (1, 2, 8):  # 2 groups: no pool, then 2 workers twice
            assert main([*flags, "--workers", str(workers),
                         "--out", str(tmp_path / f"w{workers}")]) == 0
        assert sizes == [2, 2]
        assert read_bytes_map(tmp_path / "w1") == read_bytes_map(tmp_path / "w8")

    def test_pool_forks_whatever_the_default(self, tmp_path, monkeypatch):
        import concurrent.futures
        methods = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, mp_context=None, **kwargs):
                methods.append(mp_context and mp_context.get_start_method())
                super().__init__(*args, mp_context=mp_context, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        flags = ["run", "--synthetic", "25,4,10", "--method", "svrg,sarah", "--scheme", "uniform",
                 "--batch", "2", "--epochs", "2", "--seed", "1,2,3"]
        for workers in (1, 2, 7):
            assert main([*flags, "--workers", str(workers),
                         "--out", str(tmp_path / f"w{workers}")]) == 0
        forks = "fork" in multiprocessing.get_all_start_methods()
        assert methods == ["fork" if forks else multiprocessing.get_start_method()] * 2
        assert read_bytes_map(tmp_path / "w1") == read_bytes_map(tmp_path / "w2")
        assert read_bytes_map(tmp_path / "w1") == read_bytes_map(tmp_path / "w7")

    def test_grouping_and_workers_change_no_byte(self, tmp_path, monkeypatch):
        flags = ["run", "--synthetic", "30,4,10", "--method", "svrg,saga,sarah",
                 "--scheme", "uniform,importance", "--batch", "2", "--seed", "5,1,3",
                 "--epochs", "2", "--cadence", "0.3"]
        assert main([*flags, "--workers", "1", "--out", str(tmp_path / "w1")]) == 0
        assert main([*flags, "--workers", "3", "--out", str(tmp_path / "w3")]) == 0
        monkeypatch.setattr(cli, "GROUP_SEEDS", 1)  # every seed alone
        assert main([*flags, "--workers", "1", "--out", str(tmp_path / "alone")]) == 0
        want = read_bytes_map(tmp_path / "alone")
        assert len(want) == 19
        assert read_bytes_map(tmp_path / "w1") == want == read_bytes_map(tmp_path / "w3")

    def test_cadence_past_the_budget_checkpoints_at_start_and_end(self, tmp_path):
        # however large the cadence, the traces are those of 1e6 epochs:
        # the checkpoint stride stays within int64's range
        flags = ["run", "--synthetic", "20,3,10", "--method", "svrg,saga,sarah",
                 "--scheme", "uniform", "--batch", "2", "--seed", "1", "--epochs", "2"]
        got = {}
        for cadence in ["1e6", "1e18", "1e300", "1e308"]:
            out = tmp_path / cadence
            assert main([*flags, "--cadence", cadence, "--out", str(out)]) == 0
            traces = read_bytes_map(out)
            del traces[MANIFEST_NAME]
            rows = read_manifest(out / MANIFEST_NAME)
            assert {float(row.pop("cadence")) for row in rows} == {float(cadence)}
            got[cadence] = traces, rows
        traces, rows = got["1e6"]
        assert len(traces) == 3 and all(t.count(b"\n") == 3 for t in traces.values())
        assert all(v == (traces, rows) for v in got.values())

    def test_summarize_csv_file(self, tmp_path, capsys):
        out = tmp_path / "t"
        run_experiment(tiny_spec(out))
        target = tmp_path / "summary.csv"
        assert main(["summarize", str(out), "--csv", str(target)]) == 0
        assert target.read_bytes() == summarize(str(out))[1].encode("utf-8")
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "case, exc, code, fragment",
        [
            ("scheme", UsageError, 1, "unknown scheme 'nope'"),
            ("header", ParseError, 2, "unexpected trace header 'epoch,loss'"),
            ("no rows", ParseError, 2, "no checkpoints after the header"),
            ("no ok rows", FileNotFoundError, 2, "no successful traces found in"),
        ],
    )
    def test_input_checks(self, tmp_path, capsys, case, exc, code, fragment):
        out = tmp_path / "t"
        if case == "scheme":
            argv = ["run", "--synthetic", "10,3,2", "--scheme", "uniform,nope", "--out", str(out)]
        else:
            run_experiment(tiny_spec(out, schemes=["uniform"], seeds=[1]))
            trace, manifest = out / "svrg_uniform_b2_seed1.csv", out / MANIFEST_NAME
            if case == "header":
                trace.write_text("epoch,loss\n0.0,1.0\n", encoding="utf-8")
            elif case == "no rows":
                trace.write_text(cli.TRACE_HEADER + "\n", encoding="utf-8")
            else:
                text = manifest.read_text(encoding="utf-8")
                manifest.write_text(text.replace(",ok,", ",failed,", 1), encoding="utf-8")
            argv = ["summarize", str(out)]
        args = make_parser().parse_args(argv)
        with pytest.raises(exc, match=re.escape(fragment)):
            args.func(args)
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error:" if code == 1 else "data error:")
        assert fragment in err
        if case == "scheme":
            assert not out.exists()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_parse_check_ok(self, tmp_path, capsys):
        path = tmp_path / "toy.libsvm"
        path.write_text("1 1:0.5\n0 2:1\n", encoding="utf-8")
        assert main(["parse-check", str(path)]) == 0
        assert "2 examples" in capsys.readouterr().out

    def test_parse_check_data_error(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 3:1 2:1\n", encoding="utf-8")
        assert main(["parse-check", str(path)]) == 2

    def test_index_past_int64_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.libsvm"
        path.write_text("1 1:0.5\n-1 99999999999999999999:1\n", encoding="utf-8")
        assert main(["parse-check", str(path)]) == 2
        assert main(["run", "--dataset", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "line 2: bad feature token '99999999999999999999:1'" in err

    def test_missing_file_data_error(self):
        assert main(["parse-check", "/nonexistent/file.libsvm"]) == 2

    def test_run_and_summarize_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "traces"
        code = main(
            [
                "run",
                "--synthetic", "25,4,10",
                "--method", "sarah",
                "--scheme", "uniform,importance",
                "--batch", "2",
                "--seed", "1,2",
                "--epochs", "4",
                "--eps", "1e-2",
                "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["summarize", str(out), "--eps", "1e-2"]) == 0
        text = capsys.readouterr().out
        assert "sarah" in text and "<= 0.01 " in text
        # without --eps, the target is the one the run recorded
        assert main(["summarize", str(out)]) == 0
        assert capsys.readouterr().out == text

    def test_alpha_command(self, capsys):
        assert main(["alpha", "--synthetic", "20,4,50", "--batch", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "b_max" in out

    def test_verify_command(self, capsys):
        assert main(["verify", "unbiased"]) == 0

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "synthetic = 25,4,10\n"
            "method = sarah\n"
            "scheme = uniform\n"
            "batch = 2\n"
            "seed = 7\n"
            "epochs = 2\n"
            f"out = {tmp_path / 'from_cfg'}\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / MANIFEST_NAME).exists()
        assert not (tmp_path / "from_cfg").exists()

    def test_flags_and_config_file_build_equal_specs(self, tmp_path):
        values = {
            "synthetic": "25,4,10", "loss": "quadratic", "mu": "0.5",
            "method": "saga,sarah", "scheme": "uniform,approx", "batch": "2,4",
            "seed": "3,1", "epochs": "2.5", "eps": "0.01", "cadence": "0.5",
            "workers": "2", "subsample": "20", "data-seed": "4",
            "out": str(tmp_path / "o"),
        }
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "".join(f"{k} = {v}\n" for k, v in values.items()) + "scale = 1\n",
            encoding="utf-8",
        )
        flags = [tok for k, v in values.items() for tok in (f"--{k}", v)]
        parser = make_parser()
        from_flags = _build_spec(parser.parse_args(["run", *flags, "--scale"]))
        from_file = _build_spec(parser.parse_args(["run", "--config", str(cfg)]))
        assert from_flags == from_file
        assert from_file.synthetic == (25, 4, 10.0) and from_file.batches == [2.0, 4.0]

    @pytest.mark.parametrize(
        "argv, config, reason",
        [
            (["--epochs", "abc"], None, "argument --epochs: malformed epochs value 'abc'"),
            (["--batchs", "3"], None, "unrecognized arguments: --batchs 3"),
            ([], "batchs = 3\n", "exp.cfg: unrecognized arguments: --batchs=3"),
            ([], "scale = banana\n", "exp.cfg: argument --scale: takes 1/true/yes or 0/false/no"),
            ([], "# comment\n\nepochs 3\n", "exp.cfg: unrecognized arguments: --epochs 3"),
            ([], "config = exp.cfg\n", "exp.cfg: a config file cannot name another"),
            ([], "out = \udcff\n", "exp.cfg: 'utf-8' codec can't decode byte 0xff"),
            (["--synthetic", "12.9,3,2"], None,
             "argument --synthetic: expects n,d,skew with whole n and d, not '12.9,3,2'"),
            ([], "synthetic = 12,inf,2\n",
             "exp.cfg: argument --synthetic: expects n,d,skew with whole n and d"),
        ],
        ids=["bad-number", "unknown-flag", "unknown-key", "bad-switch", "bare-line", "nested",
             "not-utf8", "fractional-size", "infinite-size"],
    )
    def test_usage_errors_carry_their_reason(self, tmp_path, capsys, monkeypatch,
                                             argv, config, reason):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            Path("exp.cfg").write_text("synthetic = 10,3,2\n" + config, encoding="utf-8",
                                       errors="surrogateescape")
            argv = [*argv, "--config", "exp.cfg"]
        assert main(["run", "--synthetic", "10,3,2", "--out", "t", *argv]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {reason}")
        assert not Path("t").exists()

    def test_switch_words(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        parse = make_parser().parse_args
        for word, value in [("1", True), ("true", True), ("yes", True),
                            ("0", False), ("false", False), ("no", False)]:
            cfg.write_text(f"scale = {word}\ntiming = {word}\n", encoding="utf-8")
            spec = _build_spec(parse(["run", "--synthetic", "10,3,2", "--config", str(cfg)]))
            assert spec.scale is value and spec.timing is value
            # flags on the command line win, before or after --config
            spec = _build_spec(parse(["run", "--synthetic", "10,3,2", f"--scale={1 - value}",
                                      "--config", str(cfg), f"--timing={1 - value}"]))
            assert spec.scale is not value and spec.timing is not value
        assert _build_spec(parse(["run", "--synthetic", "10,3,2", "--scale"])).scale is True
        assert _build_spec(parse(["run", "--synthetic", "10,3,2"])) == ExperimentSpec(
            synthetic=(10, 3, 2.0))

    def test_run_from_dataset_file(self, tmp_path):
        from vropt.dataio import write_libsvm
        from vropt.problems import synthesize

        path = tmp_path / "toy.libsvm"
        write_libsvm(synthesize(40, 4, 10.0, seed=3), path)
        out = tmp_path / "traces"
        code = main(
            [
                "run",
                "--dataset", str(path),
                "--subsample", "20",
                "--scale",
                "--loss", "quadratic",
                "--mu", "0.5",
                "--method", "saga",
                "--scheme", "importance",
                "--batch", "2",
                "--seed", "1",
                "--epochs", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        from vropt.cli import read_manifest

        row = read_manifest(out / MANIFEST_NAME)[0]
        assert row["status"] == "ok"
        assert row["n"] == "20"  # subsampled size recorded

    def test_timing_flag_breaks_determinism_surface(self, tmp_path):
        args = [
            "run", "--synthetic", "25,4,10", "--method", "sarah",
            "--scheme", "uniform", "--batch", "2", "--seed", "1",
            "--epochs", "2", "--timing",
        ]
        assert main(args + ["--out", str(tmp_path / "t1")]) == 0
        trace = next((tmp_path / "t1").glob("sarah_*.csv"))
        wall = [int(line.split(",")[4]) for line in trace.read_text().splitlines()[1:]]
        assert any(w > 0 for w in wall)
