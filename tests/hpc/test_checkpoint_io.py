"""Unit tests for the checkpoint store (one sealed file per window)."""

import json

import pytest

from repro.hpc import CheckpointStore
from repro.seir import CheckpointError, StochasticSEIRModel


@pytest.fixture
def checkpoints(small_params):
    out = []
    for seed in range(3):
        model = StochasticSEIRModel(small_params, seed)
        model.run_until(10)
        out.append(model.checkpoint())
    return out


def window_file(store, index):
    return store.root / f"window_{index:03d}" / "window.json"


def tear(store, index):
    """Leave window ``index`` as a crash before its seal would: a directory
    holding only a half-written temp file."""
    directory = store.root / f"window_{index:03d}"
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "tmpabc123.tmp").write_text('{"format": "repro.check')


class TestCheckpointStore:
    def test_save_and_load_particle(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path, run_id="test")
        store.save_window_state(0, checkpoints[:1], meta={"k": 1})
        (loaded,), _ = store.load_window_state(0)
        assert loaded.day == checkpoints[0].day
        assert loaded.seed == checkpoints[0].seed

    def test_save_window_bulk(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window(0, checkpoints)
        assert store.read_manifest().windows == {0: 3}
        window, loaded = store.latest_restart_point()
        assert window == 0
        assert [c.seed for c in loaded] == [c.seed for c in checkpoints]

    def test_load_missing_particle(self, tmp_path, checkpoints):
        """A window file whose row index names a checkpoint payload it does
        not hold is not a valid seal."""
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, meta={})
        path = window_file(store, 0)
        payload = json.loads(path.read_text())
        payload["rows"][1] = len(payload["checkpoints"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="not sealed"):
            store.load_window_state(0)

    def test_load_missing_window(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="window 5 is not sealed"):
            store.load_window_state(5)
        with pytest.raises(CheckpointError, match="no state metadata"):
            store.load_window_meta(5)

    def test_manifest_tracks_windows(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path, run_id="runA")
        store.save_window(0, checkpoints[:2])
        store.save_window(1, checkpoints)
        manifest = store.read_manifest()
        assert manifest.run_id == "runA"
        assert manifest.windows == {0: 2, 1: 3}
        assert manifest.latest_window() == 1

    def test_manifest_empty(self, tmp_path):
        manifest = CheckpointStore(tmp_path).read_manifest()
        assert manifest.windows == {}
        assert manifest.latest_window() is None

    def test_latest_restart_point(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        assert store.latest_restart_point() is None
        store.save_window(0, checkpoints)
        store.save_window(1, checkpoints[:1])
        window, cps = store.latest_restart_point()
        assert window == 1
        assert len(cps) == 1

    def test_restart_from_stored_checkpoint_runs(self, tmp_path, checkpoints,
                                                 small_params):
        store = CheckpointStore(tmp_path)
        store.save_window(0, checkpoints[:1])
        _, (loaded,) = store.latest_restart_point()
        model = StochasticSEIRModel.from_checkpoint(loaded)
        traj = model.run_until(15)
        assert traj.start_day == 10

    def test_negative_indices_rejected(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save_window(-1, checkpoints)
        with pytest.raises(ValueError):
            store.window_complete(-1)


class TestOneFilePerWindow:
    """A window is one file: distinct checkpoints once, a row index per
    particle, whatever the posterior size."""

    @pytest.mark.parametrize("n_particles", [3, 300])
    def test_persisting_writes_a_fixed_number_of_files(
            self, tmp_path, checkpoints, n_particles):
        store = CheckpointStore(tmp_path)
        column = [checkpoints[i % 3] for i in range(n_particles)]
        store.save_window_state(0, column, meta={"n": n_particles})
        window_dir = store.root / "window_000"
        assert sorted(p.name for p in window_dir.iterdir()) == ["window.json"]
        assert sorted(p.name for p in store.root.iterdir()) == \
            ["manifest.json", "window_000"]

    def test_duplicates_stored_once_and_restored_shared(self, tmp_path,
                                                        checkpoints):
        store = CheckpointStore(tmp_path)
        a, b, _ = checkpoints
        store.save_window_state(0, [a, b, a, a, b], meta={})
        payload = json.loads(window_file(store, 0).read_text())
        assert len(payload["checkpoints"]) == 2
        assert payload["rows"] == [0, 1, 0, 0, 1]
        loaded, _ = store.load_window_state(0)
        assert [c.seed for c in loaded] == [a.seed, b.seed, a.seed, a.seed,
                                            b.seed]
        assert loaded[0] is loaded[2] is loaded[3]
        assert loaded[1] is loaded[4] and loaded[0] is not loaded[1]

    def test_seal_does_not_rescan_stored_windows(self, tmp_path, checkpoints,
                                                 monkeypatch):
        store = CheckpointStore(tmp_path)
        for w in range(3):
            store.save_window(w, checkpoints)
        reads = []
        original = CheckpointStore._sealed
        monkeypatch.setattr(
            CheckpointStore, "_sealed",
            lambda self, i: reads.append(i) or original(self, i))
        store.save_window(3, checkpoints)
        assert reads == []
        assert store.read_manifest().windows == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_old_per_particle_layout_refused(self, tmp_path, checkpoints):
        window_dir = tmp_path / "window_000"
        window_dir.mkdir()
        checkpoints[0].save(window_dir / "particle_000000.ckpt.json")
        (window_dir / "COMPLETE.json").write_text('{"n_particles": 1}')
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="per-particle"):
            store.window_complete(0)
        with pytest.raises(CheckpointError, match=str(window_dir)):
            store.latest_restart_point()


class TestDurability:
    """Atomic, fsync'd publication of windows and store metadata."""

    def test_save_leaves_no_temp_files(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window(0, checkpoints)
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_torn_write_never_observed(self, tmp_path, checkpoints):
        """Overwriting a sealed window is all-or-nothing: a reader sees the
        old window or the new one, never a mix, and a truncated window
        file fails loudly instead of loading partially."""
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints[:1], meta={"v": 0})
        before, meta_before = store.load_window_state(0)
        store.save_window_state(0, checkpoints[1:], meta={"v": 1})
        after, meta_after = store.load_window_state(0)
        assert [c.seed for c in before] == [checkpoints[0].seed]
        assert meta_before == {"v": 0}
        assert [c.seed for c in after] == [c.seed for c in checkpoints[1:]]
        assert meta_after == {"v": 1}
        path = window_file(store, 0)
        payload = path.read_text()
        path.write_text(payload[: len(payload) // 2])
        assert not store.window_complete(0)
        with pytest.raises(CheckpointError, match="torn"):
            store.load_window_state(0)


class TestWindowCompleteness:
    """Only a published window file seals a window."""

    def test_unmarked_window_is_incomplete(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        tear(store, 0)
        assert store.stored_windows() == [0]
        assert not store.window_complete(0)

    def test_marker_with_missing_particles_is_incomplete(self, tmp_path,
                                                         checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window(0, checkpoints)
        path = window_file(store, 0)
        payload = json.loads(path.read_text())
        payload["checkpoints"] = payload["checkpoints"][:1]
        path.write_text(json.dumps(payload))
        assert not store.window_complete(0)

    def test_restart_point_skips_torn_window(self, tmp_path, checkpoints):
        """Regression: a crash mid-window used to be offered as a restart
        point; now only the previous sealed window is."""
        store = CheckpointStore(tmp_path)
        store.save_window(0, checkpoints)
        tear(store, 1)
        window, cps = store.latest_restart_point()
        assert window == 0
        assert len(cps) == 3

    def test_restart_point_none_when_all_torn(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        tear(store, 0)
        assert store.latest_restart_point() is None

    def test_load_window_state_refuses_torn_window(self, tmp_path,
                                                   checkpoints):
        store = CheckpointStore(tmp_path)
        tear(store, 0)
        with pytest.raises(CheckpointError, match="torn"):
            store.load_window_state(0)

    def test_save_window_state_round_trip(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        meta = {"window_index": 0, "params": [[0.3, 0.7]]}
        store.save_window_state(0, checkpoints, meta=meta)
        cps, loaded_meta = store.load_window_state(0)
        assert [c.seed for c in cps] == [c.seed for c in checkpoints]
        assert loaded_meta == meta
        assert store.load_window_meta(0) == meta

    def test_empty_window_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="empty window"):
            store.save_window(0, [])

    def test_corrupt_marker_treated_as_absent(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window(0, checkpoints)
        window_file(store, 0).write_text("{trunc")
        assert not store.window_complete(0)
        assert store.latest_restart_point() is None

    def test_manifest_records_completeness(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window(0, checkpoints)
        tear(store, 1)
        manifest = store.write_manifest()
        assert manifest.complete == {0: True, 1: False}
        assert manifest.latest_complete_window() == 0
        assert store.read_manifest().complete == {0: True, 1: False}


class TestRunMeta:
    """The store is bound to one run configuration fingerprint."""

    def test_first_validate_records(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.read_run_meta() is None
        store.validate_run_meta({"base_seed": 17, "engine": "x"})
        assert store.read_run_meta() == {"base_seed": 17, "engine": "x"}

    def test_matching_fingerprint_accepted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.validate_run_meta({"base_seed": 17})
        store.validate_run_meta({"base_seed": 17})  # no raise

    def test_mismatch_refused_with_differing_keys(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.validate_run_meta({"base_seed": 17, "engine": "a"})
        with pytest.raises(CheckpointError,
                           match=r"different run configuration.*base_seed"):
            store.validate_run_meta({"base_seed": 18, "engine": "a"})


class TestPrune:
    def seal(self, store, index, checkpoints):
        store.save_window(index, checkpoints)

    def test_prune_keeps_newest_sealed(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        for w in range(4):
            self.seal(store, w, checkpoints)
        assert store.prune(keep_last=2) == [0, 1]
        assert store.stored_windows() == [2, 3]
        assert store.window_complete(2) and store.window_complete(3)
        manifest = store.read_manifest()
        assert sorted(manifest.windows) == [2, 3]

    def test_prune_never_deletes_unsealed(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        self.seal(store, 0, checkpoints)
        self.seal(store, 1, checkpoints)
        tear(store, 2)
        assert store.prune(keep_last=1) == [0]
        assert store.stored_windows() == [1, 2]
        assert store.window_complete(1)
        assert not store.window_complete(2)

    def test_prune_never_deletes_latest_sealed(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        self.seal(store, 0, checkpoints)
        assert store.prune(keep_last=1) == []
        assert store.window_complete(0)

    def test_prune_noop_below_threshold(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        self.seal(store, 0, checkpoints)
        self.seal(store, 1, checkpoints)
        assert store.prune(keep_last=5) == []
        assert store.stored_windows() == [0, 1]

    def test_prune_rejects_bad_keep_last(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="keep_last"):
            store.prune(keep_last=0)
