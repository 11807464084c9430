"""Shard routing, the pickle-free codec, server options.

Mostly the *pure* half of the sharded tier — no processes.  The codec
tests are the zero-copy enforcement: JSON is the only wire format, and
JSON cannot encode an ndarray, so an array reaching the control bus is
a hard ``TypeError``, never a silent serialization.  The server-option
tests pin that a sharded server takes exactly ``SolveServer``'s
keywords: one spawns a real worker, the rest check that a bad option
fails in the parent before any worker starts.
"""

import multiprocessing

import numpy as np
import pytest

import repro.serve.server as server_module
from repro.core import open_server
from repro.machines.presets import get_preset
from repro.obs.profile import SolveProfiler
from repro.serve import FrontDoor
from repro.serve.sharding import (
    ShardWorkerConfig,
    decode_message,
    encode_message,
    shard_index,
    shard_key,
    shard_worker_main,
)
from repro.store.registry import PlanRegistry, TuneKey
from repro.store.trialdb import TrialDB
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem


class TestShardKey:
    def test_key_carries_operator_level_and_ndim(self):
        assert shard_key("poisson", 5, 2) == "poisson|L5|2d"
        assert shard_key("poisson3d", 4, 3) == "poisson3d|L4|3d"

    def test_index_is_deterministic_and_in_range(self):
        keys = [shard_key("poisson", level, nd) for level in range(3, 9)
                for nd in (2, 3)]
        for shards in (1, 2, 4, 7):
            for key in keys:
                index = shard_index(key, shards)
                assert 0 <= index < shards
                assert shard_index(key, shards) == index  # stable

    def test_index_spreads_keys(self):
        keys = [shard_key(op, level, 2) for op in ("poisson", "a", "b", "c")
                for level in range(3, 10)]
        used = {shard_index(key, 4) for key in keys}
        assert len(used) == 4  # 28 keys must hit all 4 shards

    def test_index_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_index("poisson|L5|2d", 0)


class TestCodec:
    def test_roundtrip(self):
        msg = {"type": "solve", "id": 7, "shape": [9, 9], "target": 1e5}
        assert decode_message(encode_message(msg)) == msg

    def test_ndarray_is_rejected_not_serialized(self):
        """The zero-copy guarantee, enforced: no array ever crosses the
        control bus — not even by accident."""
        with pytest.raises(TypeError):
            encode_message({"type": "solve", "payload": np.zeros((9, 9))})

    def test_nested_ndarray_is_rejected_too(self):
        with pytest.raises(TypeError):
            encode_message({"type": "solve", "nested": {"x": np.arange(3)}})


class _ClosedConn:
    """A control pipe whose front door has already gone."""

    def recv_bytes(self):
        raise EOFError

    def send_bytes(self, data):
        pass

    def close(self):
        pass


class TestShardWorkerConfig:
    def test_server_options_are_forwarded_verbatim(self, monkeypatch, tmp_path):
        built = []

        class RecordingServer:
            def __init__(self, **kwargs):
                built.append(kwargs)

            def shutdown(self, drain=True, timeout=None):
                pass

        monkeypatch.setattr(server_module, "SolveServer", RecordingServer)
        options = {"workers": 3, "accuracies": (10.0, 1e3), "allow_nearest": False}
        store = str(tmp_path / "s.sqlite")
        config = ShardWorkerConfig(
            index=1, machine="amd", store_path=store, server_options=options
        )
        shard_worker_main(config, _ClosedConn())
        assert built == [{"machine": "amd", "store": store, "tracer": None, **options}]
        assert built[0]["accuracies"] is options["accuracies"]


class TestServerOptions:
    LEVEL = 3
    KEY = TuneKey(max_level=LEVEL, accuracies=(10.0, 1e3), instances=1)

    def test_sharded_server_takes_the_in_process_options(self, tmp_path):
        """Options the in-process server takes reach the worker's server:
        its plans are tuned for the given accuracies, and with
        ``allow_nearest=False`` it tunes instead of serving the plan a
        nearby machine left in the store."""
        store = str(tmp_path / "s.sqlite")
        PlanRegistry(TrialDB(store)).get_or_tune(get_preset("amd"), self.KEY)
        with open_server(
            store=store,
            shards=1,
            accuracies=(10.0, 1e3),
            allow_nearest=False,
            instances=1,
            workers=1,
        ) as door:
            assert door.warm("unbiased", self.LEVEL)["source"] == "tuned"
            problem = make_problem("unbiased", size_of_level(self.LEVEL), 11)
            assert door.solve(problem, 1e3).plan_source == "tuned"
        hit = PlanRegistry(TrialDB(store)).get(
            get_preset("intel"), self.KEY, allow_nearest=False
        )
        assert hit is not None and hit.plan.accuracies == (10.0, 1e3)

    @pytest.mark.parametrize(
        "options",
        [
            {"bogus_option": 1},
            {"tune_jobs": 2},
            {"autoscaler": None},
            {"store": "elsewhere.sqlite"},
            {"profiler": SolveProfiler()},
            {"accuracies": np.array([10.0, 1e3])},
        ],
        ids=[
            "unknown",
            "removed",
            "removed-autoscaler",
            "worker-owned",
            "rich-object",
            "ndarray",
        ],
    )
    def test_bad_option_fails_before_any_worker_spawns(self, monkeypatch, options):
        def no_spawn(self):
            raise AssertionError("a worker spawned for a bad option")

        monkeypatch.setattr(FrontDoor, "_spawn_worker", no_spawn)
        children = multiprocessing.active_children()
        with pytest.raises(TypeError):
            FrontDoor(shards=1, **options)
        assert multiprocessing.active_children() == children
