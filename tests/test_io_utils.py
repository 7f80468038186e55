"""Tests for the shared crash-safe write helpers (`repro.io_utils`)."""

import json

import pytest

from repro.io_utils import atomic_write_json, atomic_write_text


class TestAtomicWriteText:
    def test_writes_and_returns_target(self, tmp_path):
        target = tmp_path / "out.txt"
        assert atomic_write_text(target, "hello") == target
        assert target.read_text() == "hello"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "deep")
        assert target.read_text() == "deep"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_debris_after_success(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestAtomicWriteJson:
    def test_round_trips_with_trailing_newline(self, tmp_path):
        target = tmp_path / "data.json"
        payload = {"b": [1, 2], "a": {"nested": True}}
        atomic_write_json(target, payload)
        text = target.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == payload

    def test_unserializable_payload_preserves_old_snapshot(self, tmp_path):
        target = tmp_path / "data.json"
        atomic_write_json(target, {"ok": 1})
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        # The old snapshot is intact and no temp files were left behind.
        assert json.loads(target.read_text()) == {"ok": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]

    def test_failed_write_leaves_no_debris(self, tmp_path, monkeypatch):
        import repro.io_utils as io_utils

        def broken_replace(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(io_utils.os, "replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "out.txt", "x")
        assert list(tmp_path.iterdir()) == []


class TestMappingCacheUsesAtomicSave:
    def test_cache_save_has_trailing_newline_and_loads(self, tmp_path):
        # The store's layer tier writes per-layer solves through the shared
        # helper.
        from repro.api.store import ResultStore
        from repro.arch import simba_like
        from repro.baselines import RandomScheduler
        from repro.workloads import conv_layer

        layer = conv_layer(r=1, p=4, c=4, k=8)
        outcome = RandomScheduler(simba_like(), num_valid=1).schedule_outcome(layer)
        store = ResultStore(tmp_path / "store")
        store.put_layer("key", outcome)
        path = store.layer_path("key")
        assert path.read_text().endswith("\n")
        assert json.loads(path.read_text())["scheduler"] == "random"
        assert [p.name for p in path.parent.iterdir()] == ["key.json"]  # no temp left
        assert ResultStore(tmp_path / "store").load_layer("key", layer) is not None
