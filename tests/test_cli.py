import csv
import json
import logging
import weakref
import zlib

import numpy as np
import pytest

from idsfx import cli, pipeline
from idsfx.classifiers import ALGORITHMS
from idsfx.cli import main
from idsfx.data import KDD_CATEGORICAL, KDD_FEATURES
from idsfx.pipeline import pipeline_load
from tests.conftest import make_blob_dataset, write_dataset_csv


@pytest.fixture
def blob_csv(tmp_path):
    d = make_blob_dataset(n_rows=100, n_numeric=4, n_classes=2, seed=1)
    return write_dataset_csv(d, tmp_path / "blobs.csv")


@pytest.fixture
def no_data_read(monkeypatch):
    def no_read(*args):
        raise AssertionError("dataset read despite a bad config")
    monkeypatch.setattr("idsfx.cli.load_csv", no_read)


def _flags(blob_csv, out, extra=()):
    return ["--dataset", str(blob_csv), "--profile", "generic",
            "--out", str(out), "--components", "4", "--select", "3",
            "--seed", "11", *extra]


class TestHandOver:
    """fit, transform and evaluate pass the loaded table on unbound, so it is
    freed before NMF runs."""

    @pytest.mark.parametrize("command", ["fit", "transform", "evaluate"])
    def test_loaded_table_is_freed_before_nmf(self, blob_csv, tmp_path,
                                              monkeypatch, command):
        refs, alive = [], []
        real_load, real_nmf = cli.load_csv, pipeline.nmf_transform

        def tracked_load(*args):
            d = real_load(*args)
            refs[:] = [weakref.ref(d), *map(weakref.ref, d.columns.values())]
            return d

        def spy(*args):
            alive.append(sum(r() is not None for r in refs))
            return real_nmf(*args)
        monkeypatch.setattr(cli, "load_csv", tracked_load)
        monkeypatch.setattr(pipeline, "nmf_transform", spy)
        run = tmp_path / "run"
        if command == "transform":
            assert main(["fit", *_flags(blob_csv, run)]) == 0
            alive.clear()
            argv = ["transform", "--pipeline", str(run / "pipeline.json"),
                    "--dataset", str(blob_csv), "--out", str(tmp_path / "tr")]
        else:
            argv = [command, *_flags(blob_csv, run)]
        assert main(argv) == 0
        # fit and transform project once; evaluate its train and its test rows
        assert len(refs) == 7 and alive == [0] * (2 if command == "evaluate" else 1)


class TestInspect:
    def test_ok(self, blob_csv, capsys):
        assert main(["inspect", "--dataset", str(blob_csv)]) == 0
        out = capsys.readouterr().out
        assert "rows: 100" in out
        assert "label column: label" in out

    def test_empty_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert main(["inspect", "--dataset", str(p)]) == 2
        assert "empty dataset" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["inspect", "--dataset", str(tmp_path / "nope.csv")]) == 1

    def test_directory_dataset_exit_1(self, tmp_path, capsys):
        assert main(["inspect", "--dataset", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_exit_code_follows_error_type_not_message(self, tmp_path, capsys):
        # a missing file is a runtime error even when its name reads "empty dataset"
        assert main(["inspect", "--dataset", str(tmp_path / "empty dataset.csv")]) == 1
        header_only = tmp_path / "header.csv"
        header_only.write_text("Flow ID, Label\n")
        assert main(["inspect", "--dataset", str(header_only),
                     "--profile", "cicids2017"]) == 2


class TestFit:
    def test_outputs(self, blob_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["fit", *_flags(blob_csv, out)]) == 0
        assert (out / "pipeline.json").exists()
        assert (out / "run_config.json").exists()
        rows = list(csv.reader((out / "chi2_scores.csv").open()))
        assert rows[0] == ["feature_name", "score"]
        assert len(rows) == 5  # header + U component scores
        assert sorted(p.name for p in out.iterdir()) == [
            "chi2_scores.csv", "pipeline.json", "run_config.json"]
        assert pipeline_load(out / "pipeline.json").nmf.iterations_run >= 1

    def test_v_above_u_exit_2(self, blob_csv, tmp_path):
        out = tmp_path / "run"
        rc = main(["fit", "--dataset", str(blob_csv), "--out", str(out),
                   "--components", "3", "--select", "9"])
        assert rc == 2
        assert not (out / "pipeline.json").exists()

    def test_config_file_with_flag_override(self, blob_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(blob_csv), "seed": 1,
                                   "pipeline": {"u": 4, "v": 2}}))
        out = tmp_path / "run"
        assert main(["fit", "--config", str(cfg), "--out", str(out),
                     "--select", "3"]) == 0
        echoed = json.loads((out / "run_config.json").read_text())
        assert echoed["pipeline"]["v"] == 3

    def test_every_flag_overrides_its_setting(self, blob_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "other.csv", "profile": "cicids2017",
                                   "test_fraction": 0.5, "seed": 1}))
        out = tmp_path / "run"
        assert main(["fit", "--config", str(cfg), *_flags(blob_csv, out),
                     "--test-fraction", "0.3", "--threshold", "0", "--no-tfidf"]) == 0
        echoed = json.loads((out / "run_config.json").read_text())
        assert {k: echoed[k] for k in ("dataset", "profile", "out", "test_fraction")} == {
            "dataset": str(blob_csv), "profile": "generic", "out": str(out),
            "test_fraction": 0.3}
        assert {k: echoed["pipeline"][k] for k in ("u", "v", "seed", "drop_threshold",
                                                   "tfidf_enabled")} == {
            "u": 4, "v": 3, "seed": 11, "drop_threshold": 0.0, "tfidf_enabled": False}

    def test_config_that_is_a_directory_exit_1(self, tmp_path, capsys):
        assert main(["fit", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_config_json_exit_2(self, blob_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["fit", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("nmf", [
        {"init": "bogus"}, {"max_iter": 0}, {"tol": -1.0},
        {"init": "nndsvd"}, {"max_iter": 50}, {"tol": 1e-6}])
    def test_bad_nmf_setting_exit_2_before_reading_data(self, blob_csv, tmp_path,
                                                        monkeypatch, nmf):
        def no_read(*args):
            raise AssertionError("dataset read despite a bad config")
        monkeypatch.setattr("idsfx.cli.load_csv", no_read)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(blob_csv), "pipeline": {"nmf": nmf}}))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("doc", [
        {"pipeline": {"u": "4"}}, {"pipeline": {"u": True, "v": 1}}, {"test_fraction": "abc"},
        {"seed": "3"}, {"pipeline": {"tfidf_enabled": 1}},
        {"pipeline": {"nmf": {"max_iter": 2.5}}}, {"pipeline": {"nmf": "nndsvd"}},
        {"pipeline": [4]}, {"classifiers": "knn"}, {"classifiers": ["nope"]},
        {"pipeline": {"drop_threshold": float("nan")}},
        {"pipeline": {"nmf": {"tol": float("nan")}}}, {"dataset": 5}, ["not", "an", "object"]])
    def test_malformed_config_value_exit_2_before_reading_data(self, blob_csv, tmp_path,
                                                               no_data_read, capsys, doc):
        cfg = tmp_path / "cfg.json"
        body = {"dataset": str(blob_csv), **doc} if isinstance(doc, dict) else doc
        cfg.write_text(json.dumps(body))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("names", [["knn", "knn"], ["knn", "gaussian_nb", "knn"]])
    def test_repeated_classifier_exit_2_before_reading_data(self, blob_csv, tmp_path,
                                                            no_data_read, capsys, names):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(blob_csv), "classifiers": names}))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'knn'" in err[0]
        assert not (tmp_path / "run").exists()

    def test_empty_classifier_list_exit_2_before_reading_data(self, tmp_path, capsys):
        # the dataset does not exist: the refusal must come before loading it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(tmp_path / "missing.csv"),
                                   "classifiers": []}))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "no classifier given" in err and all(repr(a) in err for a in ALGORITHMS)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_unknown_config_profile_exit_2_before_writing(self, blob_csv, tmp_path, capsys,
                                                          command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(blob_csv), "profile": "nsl_kdd"}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "unknown profile 'nsl_kdd'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("doc,keys", [
        ({"pipeline": {"compnents": 4}, "clasifiers": ["knn"]}, ["clasifiers"]),
        ({"pipeline": {"compnents": 4}}, ["compnents"]),
        ({"pipeline": {"nmf_init": "nndsvd"}}, ["nmf_init"]),
        ({"pipeline": {"nmf": {"maxiter": 5, "r": 4}}}, ["maxiter"]),
        ({"clasifiers": ["knn"], "sed": 3}, ["clasifiers", "sed"])])
    def test_unknown_config_key_exit_2_before_reading_data(self, blob_csv, tmp_path,
                                                          no_data_read, capsys, doc, keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(blob_csv), **doc}))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and all(repr(k) in err for k in keys)

    @pytest.mark.parametrize("doc,flags", [
        ({"test_fraction": 1.5}, []), ({}, ["--test-fraction", "0"]),
        ({"test_fraction": 0.5}, ["--test-fraction", "1"]),
        ({"test_fraction": float("nan")}, [])])
    def test_test_fraction_out_of_range_exit_2_before_reading_data(self, tmp_path, no_data_read,
                                                                   capsys, doc, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(tmp_path / "missing.csv"), **doc}))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     *flags]) == 2
        assert "test_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,flags,seed", [
        ({"seed": 3}, [], 3),
        ({"pipeline": {"seed": 5}}, [], 5),
        ({"seed": 5, "pipeline": {"seed": 5}}, [], 5),
        ({"pipeline": {"seed": 5}}, ["--seed", "7"], 7),
        ({}, ["--seed", "7"], 7)])
    def test_seed_lives_in_the_pipeline_settings(self, blob_csv, tmp_path, doc, flags, seed):
        cfg = tmp_path / "cfg.json"
        pipeline = {"u": 4, "v": 2, **doc.get("pipeline", {})}
        cfg.write_text(json.dumps({"dataset": str(blob_csv), **doc, "pipeline": pipeline}))
        out = tmp_path / "run"
        assert main(["fit", "--config", str(cfg), "--out", str(out), *flags]) == 0
        echoed = json.loads((out / "run_config.json").read_text())
        assert "seed" not in echoed
        assert echoed["pipeline"]["seed"] == seed
        fp = pipeline_load(out / "pipeline.json")
        assert fp.config.seed == seed

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    @pytest.mark.parametrize("doc,flags", [
        ({}, ["--seed", "-1"]), ({"seed": -1}, []), ({"pipeline": {"seed": -1}}, [])])
    def test_negative_seed_exit_2_before_reading_data(self, blob_csv, tmp_path, no_data_read,
                                                      capsys, command, doc, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(blob_csv), **doc}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run"),
                     *flags]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_differing_top_level_and_pipeline_seeds_exit_2(self, blob_csv, tmp_path,
                                                           no_data_read, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": str(blob_csv), "seed": 3,
                                   "pipeline": {"seed": 5}}))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "differ" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_more_components_than_columns_exit_2(self, blob_csv, tmp_path, capsys, command):
        out = tmp_path / "run"   # the fixture has 5 feature columns
        assert main([command, *_flags(blob_csv, out), "--components", "9"]) == 2
        assert "r=9 exceeds min(p, q)=5" in capsys.readouterr().err
        assert not (out / "pipeline.json").exists()

    def test_one_rank_and_one_seed_in_every_record(self, blob_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": str(blob_csv), "seed": 9,
            "pipeline": {"u": 4, "v": 2, "nmf": {"r": 2, "seed": 99, "max_iter": 200}}}))
        out = tmp_path / "run"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        echoed = json.loads((out / "run_config.json").read_text())["pipeline"]
        assert echoed["nmf"] == {"init": "random", "max_iter": 200, "tol": 1e-4}
        assert (echoed["u"], echoed["seed"]) == (4, 9)
        fp = pipeline_load(out / "pipeline.json")
        assert fp.config.to_dict() == echoed
        assert (fp.config.u, fp.config.seed, fp.nmf.h.shape[0]) == (4, 9, 4)


class TestTransform:
    def test_round_trip(self, blob_csv, tmp_path):
        run = tmp_path / "run"
        assert main(["fit", *_flags(blob_csv, run)]) == 0
        out = tmp_path / "tr"
        assert main(["transform", "--pipeline", str(run / "pipeline.json"),
                     "--dataset", str(blob_csv), "--out", str(out)]) == 0
        lines = (out / "transformed.csv").read_text().splitlines()
        assert len(lines) == 101
        assert len(lines[0].split(",")) == 3

    def test_rows_below_the_training_minimum_are_clipped(self, blob_csv, tmp_path):
        run = tmp_path / "run"
        assert main(["fit", *_flags(blob_csv, run)]) == 0
        d = make_blob_dataset(n_rows=100, n_numeric=4, n_classes=2, seed=1)
        for j in range(4):
            col = d.columns[f"num_{j}"]
            col[j::5] = col.min() - 1.0    # below the column's training minimum
        scored = write_dataset_csv(d, tmp_path / "below.csv")
        out = tmp_path / "tr"
        assert main(["transform", "--pipeline", str(run / "pipeline.json"),
                     "--dataset", str(scored), "--out", str(out)]) == 0
        values = np.loadtxt(out / "transformed.csv", delimiter=",", skiprows=1)
        assert values.shape == (100, 3)
        assert np.isfinite(values).all() and (values >= 0).all()

    def test_missing_pipeline_exit_1(self, blob_csv, tmp_path, capsys):
        assert main(["transform", "--pipeline", str(tmp_path / "missing.json"),
                     "--dataset", str(blob_csv), "--out", str(tmp_path / "tr")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.json" in err

    def test_checksummed_body_that_is_no_pipeline_exit_1(self, blob_csv, tmp_path, capsys):
        path = tmp_path / "pipeline.json"
        path.write_text("[]\ncrc32 %08x\n" % (zlib.crc32(b"[]") & 0xFFFFFFFF))
        assert main(["transform", "--pipeline", str(path), "--dataset", str(blob_csv),
                     "--out", str(tmp_path / "tr")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("config", [
        {"v": "3"}, {"v": 99}, [],
        {"nmf": {"max_iter": 50}}, {"nmf": {"tol": 1e-6}}, {"nmf": {"init": "nndsvd"}}])
    def test_checksummed_file_with_bad_settings_exit_1(self, blob_csv, tmp_path, capsys,
                                                       config):
        run = tmp_path / "run"
        assert main(["fit", *_flags(blob_csv, run)]) == 0
        doc = json.loads((run / "pipeline.json").read_text().rsplit("\n", 2)[0])
        doc["config"] = config if isinstance(config, list) else {**doc["config"], **config}
        body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "pipeline.json"
        path.write_text(body + "\ncrc32 %08x\n" % (zlib.crc32(body.encode()) & 0xFFFFFFFF))
        out = tmp_path / "tr"
        capsys.readouterr()
        assert main(["transform", "--pipeline", str(path), "--dataset", str(blob_csv),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (out / "transformed.csv").exists()


def _write_abc(path, negative_rows=()):
    """A 40-row generic file of columns a, b, c and label; column ``a`` is
    -1 in ``negative_rows``."""
    rng = np.random.default_rng(3)
    lines = ["a,b,c,label"]
    for i in range(40):
        a = -1.0 if i in negative_rows else rng.random() * 5
        lines.append(f"{a:.3f},{rng.random() * 3:.3f},{rng.random() * 7:.3f},{'xy'[i % 2]}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestFeaturesOnly:
    """A file without a label column is scored and summarized like the
    labelled file it came from; the commands that need labels refuse it."""

    @staticmethod
    def _files(tmp_path, label):
        labelled = _write_abc(tmp_path / "labelled.csv")
        lines = labelled.read_text().replace(",label", f",{label}").splitlines()
        labelled.write_text("\n".join(lines) + "\n")
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        return labelled, bare

    @pytest.mark.parametrize("profile,label", [("generic", "label"), ("cicids2017", "Label")])
    def test_transform_matches_the_labelled_file(self, tmp_path, profile, label):
        labelled, bare = self._files(tmp_path, label)
        run = tmp_path / "run"
        assert main(["fit", "--dataset", str(labelled), "--profile", profile,
                     "--components", "2", "--select", "1", "--out", str(run)]) == 0
        for data in (labelled, bare):
            assert main(["transform", "--pipeline", str(run / "pipeline.json"),
                         "--profile", profile, "--dataset", str(data),
                         "--out", str(tmp_path / data.stem)]) == 0
        written = (tmp_path / "bare" / "transformed.csv").read_bytes()
        assert written == (tmp_path / "labelled" / "transformed.csv").read_bytes()
        assert len(written.splitlines()) == 41

    def test_inspect(self, tmp_path, capsys):
        _, bare = self._files(tmp_path, "label")
        assert main(["inspect", "--dataset", str(bare)]) == 0
        out = capsys.readouterr().out
        assert "rows: 40" in out and "label column" not in out
        assert "  c numeric count=40" in out

    @pytest.mark.parametrize("command", ["fit", "evaluate", "corr", "chi2"])
    def test_commands_that_need_labels_exit_1(self, tmp_path, capsys, command):
        _, bare = self._files(tmp_path, "label")
        out = tmp_path / "run"
        assert main([command, "--dataset", str(bare), "--components", "2",
                     "--select", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "no label column: none is named label, class, target or labels" in err[0]
        assert not (out / "pipeline.json").exists()

    def test_evaluate_refuses_before_any_stage_as_fit_does(self, tmp_path, capsys):
        _, bare = self._files(tmp_path, "label")
        err = {}
        for command in ("fit", "evaluate"):
            assert main([command, "--dataset", str(bare), "--components", "2",
                         "--select", "1", "--out", str(tmp_path / command)]) == 1
            err[command] = capsys.readouterr().err
        assert err["evaluate"] == err["fit"] == (
            "error: dataset has no label column: none is named label, class, target "
            "or labels (Label in CICIDS-2017 files); NSL-KDD and Military Kaggle files "
            "carry it as column 42\n")


def _write_kdd(path):
    """A 60-row NSL-KDD-shaped file: the 41 features, a label of two classes
    and the difficulty column, no header."""
    rng = np.random.default_rng(6)
    lines = []
    for i in range(60):
        cells = [str(rng.choice(["tcp", "udp", "icmp"])) if name in KDD_CATEGORICAL
                 else f"{rng.random() * 9:.2f}" for name in KDD_FEATURES]
        lines.append(",".join(cells + [("normal", "dos")[i % 2], str(i % 21)]))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestFeaturesOnlyNslKdd:
    """The 41 feature columns of an NSL-KDD file load without a label."""

    @staticmethod
    def _files(tmp_path):
        labelled = _write_kdd(tmp_path / "labelled.csv")
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(",".join(line.split(",")[:41]) + "\n"
                                for line in labelled.read_text().splitlines()))
        return labelled, bare

    def test_transform_matches_the_labelled_file(self, tmp_path):
        labelled, bare = self._files(tmp_path)
        run = tmp_path / "run"
        assert main(["fit", "--dataset", str(labelled), "--profile", "nsl-kdd",
                     "--components", "4", "--select", "2", "--out", str(run)]) == 0
        for data in (labelled, bare):
            assert main(["transform", "--pipeline", str(run / "pipeline.json"),
                         "--profile", "nsl-kdd", "--dataset", str(data),
                         "--out", str(tmp_path / data.stem)]) == 0
        written = (tmp_path / "bare" / "transformed.csv").read_bytes()
        assert written == (tmp_path / "labelled" / "transformed.csv").read_bytes()
        assert len(written.splitlines()) == 61

    def test_fit_exits_1_naming_the_label(self, tmp_path, capsys):
        _, bare = self._files(tmp_path)
        assert main(["fit", "--dataset", str(bare), "--profile", "nsl-kdd",
                     "--components", "4", "--select", "2",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "no label column: none is named label" in err
        assert "NSL-KDD and Military Kaggle files carry it as column 42" in err


class TestNoTfidf:
    """Without TF-IDF no stage shifts the encoded columns, so a negative cell
    is refused before NMF with the names of the columns that hold one."""

    FLAGS = ["--profile", "generic", "--components", "2", "--select", "1", "--no-tfidf"]

    def test_fit_names_the_negative_column(self, tmp_path, capsys):
        data = _write_abc(tmp_path / "neg.csv", negative_rows=(3, 17))
        assert main(["fit", "--dataset", str(data), "--out", str(tmp_path / "run"),
                     *self.FLAGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'nmf': negative values in column(s) 'a';")
        assert "only the TF-IDF stage shifts columns" in err
        assert not (tmp_path / "run" / "pipeline.json").exists()

    def test_transform_names_the_negative_column(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["fit", "--dataset", str(_write_abc(tmp_path / "ok.csv")),
                     "--out", str(run), *self.FLAGS]) == 0
        data = _write_abc(tmp_path / "neg.csv", negative_rows=(5,))
        capsys.readouterr()
        assert main(["transform", "--pipeline", str(run / "pipeline.json"),
                     "--profile", "generic", "--dataset", str(data),
                     "--out", str(tmp_path / "tr")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'nmf': negative values in column(s) 'a';")
        assert not (tmp_path / "tr" / "transformed.csv").exists()


class TestEvaluate:
    def test_outputs_and_determinism(self, blob_csv, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["evaluate", *_flags(blob_csv, a)]) == 0
        printed = capsys.readouterr().out
        assert "knn/extracted: accuracy" in printed
        assert main(["evaluate", *_flags(blob_csv, b)]) == 0
        for name in ("report.csv", "report.json", "pipeline.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        rows = list(csv.reader((a / "report.csv").open()))
        assert len(rows) == 13  # header + 6 classifiers x 2 variants
        steps = {"split", "pipeline_fit", "pipeline_transform", "baseline_fit",
                 "baseline_transform"}
        steps |= {f"{algo}/{variant}" for algo in ALGORITHMS
                  for variant in ("baseline", "extracted")}
        assert set(json.loads((a / "timings.json").read_text())) == steps

    @pytest.mark.parametrize("command,prefix", [
        ("fit", ""), ("evaluate", "stage 'pipeline_fit': ")])
    def test_error_names_the_failing_step(self, blob_csv, tmp_path, capsys, command, prefix):
        out = tmp_path / "run"
        assert main([command, *_flags(blob_csv, out), "--threshold", "1e9"]) == 1
        assert capsys.readouterr().err == (
            f"error: {prefix}stage 'drop_near_zero_mean': near-zero-mean drop removed "
            "every numeric column; lower the threshold\n")

    def test_report_json_has_no_second_rank_seed_or_timings(self, blob_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["gaussian_nb"]}))
        assert main(["evaluate", *_flags(blob_csv, tmp_path), "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "timings" not in report
        assert report["config"]["nmf"] == {"init": "random", "max_iter": 200, "tol": 1e-4}
        assert (report["config"]["u"], report["config"]["seed"]) == (4, 11)


    def test_log_lines_bounded(self, tmp_path, caplog):
        """Many unseen tokens and a class that most bootstrap samples miss
        still log one line per event kind: per column per transform, and per
        forest, besides one accuracy line per classifier and variant."""
        rng = np.random.default_rng(5)
        d = make_blob_dataset(n_rows=120, n_numeric=4, n_classes=3, seed=2)
        d.columns["proto"] = np.array([f"tok{i}" for i in rng.integers(0, 60, 120)],
                                      dtype=object)
        labels = np.where(d.columns["label"] == "class_2", "class_0", d.columns["label"])
        labels[-2:] = "class_2"                        # a class of two rows
        d.columns["label"] = labels
        path = write_dataset_csv(d, tmp_path / "rare.csv")
        caplog.set_level(logging.INFO, logger="idsfx")
        assert main(["evaluate", *_flags(path, tmp_path / "out")]) == 0
        kinds = [(r.name, r.levelname) for r in caplog.records]
        assert kinds.count(("idsfx.runner", "INFO")) == 12
        assert kinds.count(("idsfx.preprocess", "WARNING")) == 2   # baseline, pipeline
        assert kinds.count(("idsfx.classifiers", "WARNING")) == 2  # one per forest
        assert len(kinds) == 16
        unseen = [r.getMessage() for r in caplog.records if r.name == "idsfx.preprocess"]
        assert all(", e.g. " in m and m.count("'tok") <= 4 for m in unseen)


class TestCorrAndChi2:
    def test_corr_tables(self, blob_csv, tmp_path):
        out = tmp_path / "corr"
        assert main(["corr", *_flags(blob_csv, out)]) == 0
        before = list(csv.reader((out / "corr_before.csv").open()))
        after = list(csv.reader((out / "corr_after.csv").open()))
        assert len(before) == 6    # header + 4 numeric + 1 categorical
        assert len(after) == 4     # header + V selected components

    def test_corr_reuses_a_saved_pipeline(self, blob_csv, tmp_path):
        assert main(["fit", *_flags(blob_csv, tmp_path / "run")]) == 0
        out, saved = tmp_path / "corr", tmp_path / "run" / "pipeline.json"
        assert main(["corr", *_flags(blob_csv, out, ["--select", "2",
                                                     "--pipeline", str(saved)])]) == 0
        after = list(csv.reader((out / "corr_after.csv").open()))
        assert len(after) == 4     # the saved pipeline's V, not the flag's

    def test_chi2_raw_scores(self, blob_csv, tmp_path):
        out = tmp_path / "chi2"
        assert main(["chi2", *_flags(blob_csv, out)]) == 0
        rows = list(csv.reader((out / "chi2_raw.csv").open()))
        assert rows[0] == ["feature_name", "score"]
        assert len(rows) == 6
        scores = [float(r[1]) for r in rows[1:]]
        assert scores == sorted(scores, reverse=True)
