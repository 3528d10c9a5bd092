"""Crash-safe JSON writes: no partial files, no leaked temp files.

Regression suite for the atomic-write hardening: the old inline
mkstemp blocks in the sweep cache and the simulation checkpoint could
leak the file descriptor when ``os.fdopen`` itself failed, and the
cleanup logic was duplicated (and could drift) between the two call
sites.  Both now route through :func:`repro.persist.atomic_write_json`,
whose contract is: on *any* failure the target file is untouched and
no ``*.tmp`` litter remains.
"""

import importlib
import io
import json
import math
import os

import pytest

from repro import CostParams, MobilityParams
from repro.geometry import HexTopology
from repro.persist import atomic_write_json
from repro.simulation import fleet as fleet_module

# The package re-exports a function named ``sweep`` over the module name.
sweep_module = importlib.import_module("repro.analysis.sweep")


class Unserializable:
    """json.dump raises TypeError on this mid-write."""


def tmp_litter(directory):
    return [p for p in directory.iterdir() if p.name.endswith(".tmp")]


class TestAtomicWriteJson:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        assert json.loads(path.read_text()) == {"a": 2}
        assert tmp_litter(tmp_path) == []

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.json"
        atomic_write_json(path, [1, 2, 3])
        assert json.loads(path.read_text()) == [1, 2, 3]

    def test_unserializable_payload_leaves_no_trace(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": Unserializable()})
        assert not path.exists()
        assert tmp_litter(tmp_path) == []

    def test_unserializable_payload_is_refused_before_the_temp_file(
        self, tmp_path, monkeypatch
    ):
        def no_mkstemp(*args, **kwargs):
            raise AssertionError("a temporary file was created")

        monkeypatch.setattr("repro.persist.tempfile.mkstemp", no_mkstemp)
        with pytest.raises(TypeError):
            atomic_write_json(tmp_path / "out.json", {"bad": Unserializable()})

    def test_failure_preserves_previous_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"good": True})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": Unserializable()})
        assert json.loads(path.read_text()) == {"good": True}
        assert tmp_litter(tmp_path) == []

    def test_fdopen_failure_closes_descriptor_and_unlinks(
        self, tmp_path, monkeypatch
    ):
        # If os.fdopen itself raises, the raw descriptor must still be
        # closed (the old inline blocks leaked it) and the temp file
        # removed.
        opened = {}
        real_mkstemp = __import__("tempfile").mkstemp

        def spying_mkstemp(*args, **kwargs):
            fd, name = real_mkstemp(*args, **kwargs)
            opened["fd"] = fd
            return fd, name

        def failing_fdopen(fd, *args, **kwargs):
            raise OSError("simulated fdopen failure")

        monkeypatch.setattr("repro.persist.tempfile.mkstemp", spying_mkstemp)
        monkeypatch.setattr("repro.persist.os.fdopen", failing_fdopen)
        with pytest.raises(OSError, match="simulated fdopen"):
            atomic_write_json(tmp_path / "out.json", {"a": 1})
        assert tmp_litter(tmp_path) == []
        # A closed fd raises on a second close attempt.
        with pytest.raises(OSError):
            os.close(opened["fd"])


class TestCallSitesStayClean:
    """The two historical call sites honour the same contract."""

    def test_sweep_cache_store_failure_leaves_no_litter(self, tmp_path):
        from repro.analysis.sweep import _store_cached_points

        path = tmp_path / "grid-cache.json"
        with pytest.raises(TypeError):
            _store_cached_points(path, {"bad": Unserializable()}, points=[])
        assert not path.exists()
        assert tmp_litter(tmp_path) == []

    def test_checkpoint_write_failure_leaves_no_litter(self, tmp_path):
        from repro.simulation.runner import _write_checkpoint

        path = tmp_path / "campaign.ckpt.json"
        with pytest.raises(TypeError):
            _write_checkpoint(
                path, {"bad": Unserializable()}, completed={}, partials={}
            )
        assert not path.exists()
        assert tmp_litter(tmp_path) == []

    def test_fleet_checkpoint_failure_leaves_no_litter(self, tmp_path):
        from repro.simulation.fleet import _write_fleet_checkpoint

        path = tmp_path / "fleet.ckpt.json"
        with pytest.raises(TypeError):
            _write_fleet_checkpoint(path, {"bad": Unserializable()}, {})
        assert not path.exists()
        assert tmp_litter(tmp_path) == []


def small_fleet():
    return fleet_module.FleetSpec.homogeneous(
        HexTopology(), 2, MobilityParams(0.3, 0.05), CostParams(13.7, 0.31), 2, 40
    )


class TestEncoding:
    """A file holds ``json.dumps(payload)``: the C encoder's text, which
    is also what ``json.dump`` to a handle writes."""

    @staticmethod
    def recorded(monkeypatch, module):
        payloads = []

        def record(path, payload):
            payloads.append(payload)
            return atomic_write_json(path, payload)

        monkeypatch.setattr(module, "atomic_write_json", record)
        return payloads

    @staticmethod
    def assert_encoded(path, payload):
        text = path.read_text()
        assert text == json.dumps(payload)
        handle = io.StringIO()
        json.dump(payload, handle)
        assert text == handle.getvalue()

    def test_fleet_checkpoint(self, tmp_path, monkeypatch):
        payloads = self.recorded(monkeypatch, fleet_module)
        path = tmp_path / "fleet.ckpt.json"
        fleet_module.run_fleet(small_fleet(), slots=1, shards=2, checkpoint=path)
        # One slot: the half-widths are inf.
        assert "Infinity" in path.read_text()
        self.assert_encoded(path, payloads[-1])

    def test_sweep_cache_entry(self, tmp_path, monkeypatch):
        payloads = self.recorded(monkeypatch, sweep_module)
        point = sweep_module.SweepPoint(
            q=0.1, c=0.01, update_cost=100.0, poll_cost=10.0, max_delay=math.inf,
            optimal_d=3, total_cost=math.nan, update_component=math.inf,
            paging_component=-math.inf, expected_delay=1.25,
        )
        path = tmp_path / "grid-cache.json"
        sweep_module._store_cached_points(path, {"version": 1}, [point])
        text = path.read_text()
        assert "NaN" in text and "-Infinity" in text
        self.assert_encoded(path, payloads[-1])

    def test_checkpoint_written_with_json_dump_resumes(self, tmp_path):
        # Earlier releases wrote checkpoints with json.dump to the handle.
        spec = small_fleet()
        path = tmp_path / "fleet.ckpt.json"
        full = fleet_module.run_fleet(spec, slots=3, shards=3, checkpoint=path)
        full_text = path.read_text()
        payload = json.loads(full_text)
        payload["shards"] = payload["shards"][:1]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        resumed = fleet_module.run_fleet(spec, slots=3, shards=3, checkpoint=path)
        assert resumed == full
        assert path.read_text() == full_text
