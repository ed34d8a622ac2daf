"""Tests for the run-ledger manifest (repro.obs.manifest)."""

import json

import pytest

from repro.obs.manifest import (
    SCHEMA,
    artifact_entry,
    build_manifest,
    canonical_manifest,
    file_sha256,
    git_sha,
    is_manifest,
    load_manifest,
    manifest_core,
    manifest_digest,
    write_manifest,
)


def _manifest(tmp_path, volatile=None, extra_artifacts=()):
    art = tmp_path / "rows.csv"
    art.write_text("a,b\n1,2\n")
    return build_manifest(
        "run fig2",
        configs={"fig2": {"num_nodes": 100, "seed": 7}},
        results={"fig2": {"rows": 2, "digest": "d" * 64, "summary": {}}},
        seed=7,
        artifacts=[
            artifact_entry(art, "csv", base=tmp_path),
            *extra_artifacts,
        ],
        volatile=volatile or {"wall_time_s": 1.23, "workers": 4},
    )


class TestBuild:
    def test_schema_and_command(self, tmp_path):
        m = _manifest(tmp_path)
        assert m["schema"] == SCHEMA
        assert m["command"] == "run fig2"
        assert m["seed"] == 7

    def test_environment_recorded(self, tmp_path):
        env = _manifest(tmp_path)["environment"]
        assert env["python"].count(".") == 2
        assert env["cpus"] >= 1

    def test_git_sha_present(self, tmp_path):
        sha = _manifest(tmp_path)["git_sha"]
        assert sha == "unknown" or len(sha) == 40

    def test_artifact_relative_path_and_hash(self, tmp_path):
        m = _manifest(tmp_path)
        entry = m["artifacts"][0]
        assert entry["path"] == "rows.csv"
        assert entry["sha256"] == file_sha256(tmp_path / "rows.csv")
        assert entry["volatile"] is False

    def test_artifact_outside_base_kept_by_name(self, tmp_path):
        other = tmp_path / "deep"
        other.mkdir()
        f = other / "x.json"
        f.write_text("{}")
        entry = artifact_entry(f, "metrics", base=tmp_path / "elsewhere")
        assert entry["path"] == "x.json"


class TestDeterminism:
    def test_volatile_excluded_from_core(self, tmp_path):
        a = _manifest(tmp_path, volatile={"wall_time_s": 1.0})
        b = _manifest(tmp_path, volatile={"wall_time_s": 99.0})
        assert canonical_manifest(a) == canonical_manifest(b)
        assert manifest_digest(a) == manifest_digest(b)

    def test_volatile_artifact_hash_nulled_in_core(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text('{"wall": 1}')
        entry = artifact_entry(trace, "trace", volatile=True, base=tmp_path)
        m = _manifest(tmp_path, extra_artifacts=[entry])
        core = manifest_core(m)
        assert core["artifacts"][1]["sha256"] is None
        # ...but the real hash is still in the manifest itself
        assert m["artifacts"][1]["sha256"] == file_sha256(trace)

    def test_digest_changes_with_results(self, tmp_path):
        a = _manifest(tmp_path)
        b = _manifest(tmp_path)
        b["results"] = {"fig2": {"rows": 3, "digest": "e" * 64}}
        assert manifest_digest(a) != manifest_digest(b)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        m = _manifest(tmp_path)
        written = write_manifest(m, tmp_path / "manifest.json")
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded == written
        assert loaded["digest"] == manifest_digest(m)

    def test_written_file_is_stable_json(self, tmp_path):
        write_manifest(_manifest(tmp_path), tmp_path / "m1.json")
        write_manifest(_manifest(tmp_path), tmp_path / "m2.json")
        a = json.loads((tmp_path / "m1.json").read_text())
        b = json.loads((tmp_path / "m2.json").read_text())
        a.pop("volatile"), b.pop("volatile")
        assert a == b

    def test_load_rejects_wrong_schema(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="unsupported manifest schema"):
            load_manifest(tmp_path / "bad.json")

    def test_is_manifest(self, tmp_path):
        m = _manifest(tmp_path)
        assert is_manifest(m)
        assert not is_manifest({"schema": SCHEMA})
        assert not is_manifest([1, 2])

    def test_numpy_scalars_coerced(self, tmp_path):
        import numpy as np

        m = _manifest(tmp_path)
        m["extra"] = {"alive": np.int64(42)}
        written = write_manifest(m, tmp_path / "np.json")
        assert json.loads(
            (tmp_path / "np.json").read_text()
        )["extra"]["alive"] == 42
        assert written["digest"]

    def test_git_sha_unknown_outside_repo(self, tmp_path):
        assert git_sha(tmp_path) == "unknown"
