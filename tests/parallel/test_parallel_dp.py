"""``jobs=`` on DP tunes: the plan equals the serial plan.

The DP tuners have no pool path — every accuracy slot of a level reads
its iteration counts off one set of training runs per candidate — so a
DP key given ``jobs`` tunes serially.  These tests pin the registry and
core-API wiring; the work bound and the plan and audit digests live in
``tests/tuner/test_shared_training.py``.
"""

from repro.core import autotune_cached
from repro.store import TrialDB
from repro.tuner.config import plan_to_dict


class TestJobsWiring:
    def test_autotune_cached_jobs_matches_serial(self):
        kwargs = dict(
            max_level=3, machine="intel", instances=1, seed=7, allow_nearest=False
        )
        serial = autotune_cached(store=TrialDB(":memory:"), jobs=1, **kwargs)
        parallel = autotune_cached(store=TrialDB(":memory:"), jobs=2, **kwargs)
        assert plan_to_dict(serial) == plan_to_dict(parallel)

    def test_autotune_cached_full_mg_jobs_matches_serial(self):
        kwargs = dict(
            max_level=3,
            machine="amd",
            instances=1,
            seed=7,
            kind="full-multigrid",
            allow_nearest=False,
        )
        serial = autotune_cached(store=TrialDB(":memory:"), jobs=1, **kwargs)
        parallel = autotune_cached(store=TrialDB(":memory:"), jobs=2, **kwargs)
        assert plan_to_dict(serial) == plan_to_dict(parallel)
