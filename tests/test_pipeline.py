import json
import weakref
import zlib
from dataclasses import fields

import numpy as np
import pytest

import idsfx
from idsfx import pipeline
from idsfx.data import ColumnKind, ColumnSpec, Dataset, split_xy
from idsfx.errors import (ConfigError, IntegrityError, PipelineError,
                          SchemaError, VersionError)
from idsfx.pipeline import (FORMAT_VERSION, PipelineConfig, pipeline_fit,
                            pipeline_load, pipeline_save, pipeline_transform,
                            serialize_pipeline, stage)
from tests.conftest import make_blob_dataset


def small_config(u=4, v=3, seed=0):
    return PipelineConfig(u=u, v=v, seed=seed)


class TestFit:
    def test_final_matrix_shape_and_domain(self, blob_dataset):
        fp, final, codes = pipeline_fit(blob_dataset, small_config())
        assert final.values.shape == (blob_dataset.n_rows, 3)
        assert np.all(final.values >= 0)
        assert codes.shape == (blob_dataset.n_rows,)
        assert len(final.names) == 3

    def test_transform_reproduces_fit_output(self, blob_dataset):
        fp, final, _ = pipeline_fit(blob_dataset, small_config())
        again = pipeline_transform(fp, blob_dataset)
        assert again.names == final.names
        assert np.allclose(again.values, final.values, atol=1e-9)

    def test_two_fits_bit_identical(self, blob_dataset):
        _, a, _ = pipeline_fit(blob_dataset, small_config(seed=5))
        _, b, _ = pipeline_fit(blob_dataset, small_config(seed=5))
        assert np.array_equal(a.values, b.values)

    def test_v_equals_u_keeps_all_components(self, blob_dataset):
        fp, final, _ = pipeline_fit(blob_dataset, small_config(u=4, v=4))
        assert final.values.shape[1] == 4
        # columns come back in score order, a permutation of the components
        assert sorted(final.names) == [f"component_{k}" for k in range(4)]

    def test_v_greater_than_u_rejected(self, blob_dataset):
        with pytest.raises(ConfigError):
            pipeline_fit(blob_dataset, small_config(u=3, v=5))

    def test_unlabeled_dataset_rejected(self, blob_dataset):
        x, _ = split_xy(blob_dataset)
        with pytest.raises((PipelineError, SchemaError)):
            pipeline_fit(x, small_config())

    def test_tfidf_disabled_still_runs(self, blob_dataset):
        cfg = small_config()
        cfg.tfidf_enabled = False
        fp, final, _ = pipeline_fit(blob_dataset, cfg)
        assert fp.tfidf is None
        assert final.values.shape[1] == 3

    def test_missing_values_are_imputed(self):
        d = make_blob_dataset(missing_frac=0.1, seed=3)
        fp, final, _ = pipeline_fit(d, small_config())
        assert not np.isnan(final.values).any()


class TestTransform:
    def test_unseen_categorical_token_is_tolerated(self, blob_dataset):
        fp, _, _ = pipeline_fit(blob_dataset, small_config())
        other = make_blob_dataset(seed=9)
        other.columns["proto"][0] = "omega"
        out = pipeline_transform(fp, other)
        assert out.values.shape == (other.n_rows, 3)
        assert np.isfinite(out.values).all()

    def test_schema_mismatch_names_columns(self, blob_dataset):
        fp, _, _ = pipeline_fit(blob_dataset, small_config())
        bad = make_blob_dataset(n_numeric=4)
        with pytest.raises(SchemaError, match="num_4"):
            pipeline_transform(fp, bad)

    def test_accepts_features_only_dataset(self, blob_dataset):
        fp, _, _ = pipeline_fit(blob_dataset, small_config())
        x, _ = split_xy(blob_dataset)
        out = pipeline_transform(fp, x)
        assert out.values.shape == (blob_dataset.n_rows, 3)


class TestHandOver:
    """A table passed unbound is freed once encoded, before NMF runs."""

    @staticmethod
    def tracked(refs, **kwargs):
        d = make_blob_dataset(**kwargs)
        refs.extend(weakref.ref(d.columns[s.name]) for s in d.schema
                    if s.kind != ColumnKind.LABEL)
        return d

    @staticmethod
    def alive_at(monkeypatch, name, refs):
        """Record how many tracked arrays are alive as ``pipeline.<name>`` starts."""
        alive, real = [], getattr(pipeline, name)

        def spy(*args):
            alive.append(sum(r() is not None for r in refs))
            return real(*args)
        monkeypatch.setattr(pipeline, name, spy)
        return alive

    def test_fit_holds_no_raw_feature_array_at_nmf(self, monkeypatch):
        refs = []
        alive = self.alive_at(monkeypatch, "nmf_fit", refs)
        pipeline_fit(self.tracked(refs), small_config())
        assert len(refs) == 6 and alive == [0]
        kept = self.tracked(refs)    # a caller that keeps its table keeps it
        pipeline_fit(kept, small_config())
        assert alive == [0, 6]

    @pytest.mark.parametrize("features_only", [False, True])
    def test_transform_holds_no_raw_feature_array_at_nmf(self, blob_dataset,
                                                         monkeypatch, features_only):
        fp, _, _ = pipeline_fit(blob_dataset, small_config())
        refs = []
        alive = self.alive_at(monkeypatch, "nmf_transform", refs)

        def table():
            d = self.tracked(refs, seed=9)
            return split_xy(d)[0] if features_only else d
        pipeline_transform(fp, table())
        assert len(refs) == 6 and alive == [0]
        kept = table()
        pipeline_transform(fp, kept)
        assert alive == [0, 6]


class TestPersistence:
    def test_round_trip_transform_bit_identical(self, blob_dataset, tmp_path):
        fp, _, _ = pipeline_fit(blob_dataset, small_config(seed=2))
        path = tmp_path / "pipeline.json"
        pipeline_save(fp, path)
        back = pipeline_load(path)
        q = make_blob_dataset(seed=7)
        assert np.array_equal(pipeline_transform(fp, q).values,
                              pipeline_transform(back, q).values)

    def test_serialization_is_deterministic(self, blob_dataset):
        fp, _, _ = pipeline_fit(blob_dataset, small_config())
        assert serialize_pipeline(fp) == serialize_pipeline(fp)

    def test_flipped_byte_rejected(self, blob_dataset, tmp_path):
        fp, _, _ = pipeline_fit(blob_dataset, small_config())
        path = tmp_path / "pipeline.json"
        pipeline_save(fp, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            pipeline_load(path)

    def test_truncated_file_rejected(self, blob_dataset, tmp_path):
        fp, _, _ = pipeline_fit(blob_dataset, small_config())
        path = tmp_path / "pipeline.json"
        pipeline_save(fp, path)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(IntegrityError):
            pipeline_load(path)

    def test_future_major_version_rejected(self, blob_dataset, tmp_path):
        import json
        import zlib
        fp, _, _ = pipeline_fit(blob_dataset, small_config())
        doc = serialize_pipeline(fp).decode().rsplit("\n", 2)[0]
        parsed = json.loads(doc)
        parsed["format_version"] = "3.0"
        body = json.dumps(parsed, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
        path = tmp_path / "future.json"
        path.write_text(body + "\ncrc32 %08x\n" % crc)
        with pytest.raises(VersionError):
            pipeline_load(path)

    def test_minor_version_accepted(self):
        assert FORMAT_VERSION.split(".")[0] == "2"

    @pytest.mark.parametrize("u", [2, 4])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_round_trip_keeps_the_settings_fit_used(self, blob_dataset, tmp_path, seed, u):
        fp, _, _ = pipeline_fit(blob_dataset, small_config(u=u, v=2, seed=seed))
        assert fp.nmf.h.shape[0] == u
        path = tmp_path / "pipeline.json"
        pipeline_save(fp, path)
        back = pipeline_load(path)
        assert back.config == fp.config == small_config(u=u, v=2, seed=seed)
        assert np.array_equal(back.nmf.h, fp.nmf.h)
        assert serialize_pipeline(back) == path.read_bytes()

    def test_format_1_0_file_loads_and_transforms_identically(self, blob_dataset, tmp_path):
        fp, _, _ = pipeline_fit(blob_dataset, small_config(u=4, seed=9))
        doc = json.loads(serialize_pipeline(fp).decode().rsplit("\n", 2)[0])
        assert "r" not in doc["config"]["nmf"] and "seed" not in doc["config"]["nmf"]
        # what the 1.0 writer put there: NmfConfig's defaults, never used by fit
        doc["format_version"] = "1.0"
        doc["config"]["nmf"].update(r=30, seed=0)
        body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "old.json"
        path.write_text(body + "\ncrc32 %08x\n" % (zlib.crc32(body.encode()) & 0xFFFFFFFF))
        back = pipeline_load(path)
        assert back.config == fp.config
        q = make_blob_dataset(seed=7)
        assert np.array_equal(pipeline_transform(fp, q).values,
                              pipeline_transform(back, q).values)


    @pytest.mark.parametrize("version", ["1.0", "1.1"])
    def test_format_1_x_file_with_every_old_key_loads_and_resaves_as_2_0(
            self, blob_dataset, tmp_path, version):
        fp, _, _ = pipeline_fit(blob_dataset, small_config(u=4, v=3, seed=9))
        doc = json.loads(serialize_pipeline(fp).decode().rsplit("\n", 2)[0])
        # what a 1.x writer also stored: the training W and derived copies
        n, st = blob_dataset.n_rows, doc["stages"]
        st["nmf"].update(w={"rows": n, "cols": 4, "data": [0.5] * (n * 4)}, r=4)
        st["chi2"].update(k=3, selected=st["chi2"]["ranking"][:3])
        st["tfidf"]["l2_normalize"] = True
        doc["fingerprint"].update(columns=len(doc["fingerprint"]["schema"]),
                                  schema_hash="0123456789abcdef")
        doc["format_version"] = version
        if version == "1.0":
            doc["config"]["nmf"].update(r=30, seed=0)
        body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "old.json"
        path.write_text(body + "\ncrc32 %08x\n" % (zlib.crc32(body.encode()) & 0xFFFFFFFF))

        back = pipeline_load(path)
        q = make_blob_dataset(seed=7)
        assert np.array_equal(pipeline_transform(fp, q).values,
                              pipeline_transform(back, q).values)
        assert serialize_pipeline(back) == serialize_pipeline(fp)
        resaved = json.loads(serialize_pipeline(back).decode().rsplit("\n", 2)[0])
        assert resaved["format_version"] == "2.0"
        assert not {"w", "r"} & set(resaved["stages"]["nmf"])
        assert not {"k", "selected"} & set(resaved["stages"]["chi2"])
        assert "l2_normalize" not in resaved["stages"]["tfidf"]
        assert not {"columns", "schema_hash"} & set(resaved["fingerprint"])

    def test_file_size_does_not_grow_with_training_rows(self, tmp_path):
        sizes = []
        for n_rows in (100, 400):
            fp, _, _ = pipeline_fit(make_blob_dataset(n_rows=n_rows, seed=1), small_config())
            pipeline_save(fp, tmp_path / "pipeline.json")
            sizes.append((tmp_path / "pipeline.json").stat().st_size)
        assert sizes[1] <= 1.1 * sizes[0]

    @pytest.mark.parametrize("body", [
        '[]', '"x"', '{not json', '{"format_version":"2.0"}', '{"format_version": 2}'])
    def test_checksummed_body_that_is_no_pipeline_rejected(self, tmp_path, body):
        path = tmp_path / "pipeline.json"
        path.write_text(body + "\ncrc32 %08x\n" % (zlib.crc32(body.encode()) & 0xFFFFFFFF))
        with pytest.raises(IntegrityError, match="no pipeline document"):
            pipeline_load(path)

    @pytest.mark.parametrize("config,match", [
        ({"v": "3"}, "v must be of type"),
        ({"v": 99}, "1 <= V <= U"),
        ({"u": 3, "v": 2}, "U=3 but the stored NMF factor has 4 components"),
        ([], "must be JSON objects"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"nmf": {"max_iter": 50}}, "nmf 'max_iter' is fixed at 200, got 50"),
        ({"nmf": {"tol": 1e-6}}, "nmf 'tol' is fixed at 0.0001, got 1e-06"),
        ({"nmf": {"init": "nndsvd"}}, "nmf 'init' is fixed at 'random', got 'nndsvd'")])
    def test_checksummed_file_with_bad_settings_rejected(self, blob_dataset, tmp_path,
                                                         config, match):
        fp, _, _ = pipeline_fit(blob_dataset, small_config())
        doc = json.loads(serialize_pipeline(fp).decode().rsplit("\n", 2)[0])
        doc["config"] = config if isinstance(config, list) else {**doc["config"], **config}
        body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "pipeline.json"
        path.write_text(body + "\ncrc32 %08x\n" % (zlib.crc32(body.encode()) & 0xFFFFFFFF))
        with pytest.raises(IntegrityError, match="invalid settings: .*" + match):
            pipeline_load(path)


class TestStage:
    def test_records_wall_seconds_under_its_name(self):
        timings = {"earlier": 1.0}
        with stage("work", timings):
            pass
        assert set(timings) == {"earlier", "work"} and timings["work"] >= 0.0
        with stage("untimed"):
            pass

    def test_names_the_stage_in_its_error_and_records_no_time(self):
        timings = {}
        with pytest.raises(PipelineError, match="^stage 'outer': stage 'inner': bad rows$"):
            with stage("outer", timings), stage("inner", timings):
                raise SchemaError("bad rows")
        assert timings == {}

    def test_config_error_passes_through_unchanged(self):
        err = ConfigError("r=9 exceeds min(p, q)=5")
        with pytest.raises(ConfigError) as caught:
            with stage("nmf", {}):
                raise err
        assert caught.value is err


class TestConfig:
    def test_round_trip_dict(self):
        cfg = PipelineConfig(u=7, v=2, drop_threshold=0.02, tfidf_enabled=False, seed=9)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_defaults(self):
        cfg = PipelineConfig()
        assert (cfg.u, cfg.v) == (30, 20)
        cfg.validate()

    def test_dict_has_no_second_rank_or_seed(self):
        d = PipelineConfig(u=4, seed=9).to_dict()
        assert d["nmf"] == {"init": "random", "max_iter": 200, "tol": 1e-4}
        assert (d["u"], d["seed"]) == (4, 9)

    def test_nmf_rank_and_seed_in_a_dict_are_ignored(self):
        cfg = PipelineConfig.from_dict(
            {"u": 4, "seed": 9, "nmf": {"r": 2, "seed": 99, "init": "random"}})
        assert cfg == PipelineConfig(u=4, seed=9)

    def test_missing_keys_take_the_defaults(self):
        assert PipelineConfig.from_dict({}) == PipelineConfig()
        assert PipelineConfig.from_dict({"nmf": {}}) == PipelineConfig()

    @pytest.mark.parametrize("nmf", [
        {"init": "bogus"}, {"max_iter": 0}, {"tol": 0.0},
        {"init": "nndsvd"}, {"max_iter": 50}, {"max_iter": 200.0}, {"max_iter": True},
        {"tol": 1e-6}, {"tol": float("nan")}, {"tol": "0.0001"}])
    def test_bad_nmf_settings_rejected_by_validate(self, nmf):
        with pytest.raises(ConfigError, match=f"^nmf '{next(iter(nmf))}' is fixed at "):
            PipelineConfig.from_dict({"nmf": nmf}).validate()

    def test_fields_are_the_five_settings(self):
        assert [f.name for f in fields(PipelineConfig)] == [
            "u", "v", "drop_threshold", "tfidf_enabled", "seed"]


def test_every_public_name_resolves():
    assert len(set(idsfx.__all__)) == len(idsfx.__all__)
    missing = [name for name in idsfx.__all__ if not hasattr(idsfx, name)]
    assert missing == []
