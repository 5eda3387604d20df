"""repro.cache unit coverage: keys, fingerprints, the store, the pipeline.

The contracts under test, in dependency order:

* canonicalization is total-order stable (insertion order never leaks
  into a key) and rejects values without a stable cross-run identity;
* the code fingerprint flips when a transitively imported module
  changes and holds when an unrelated one does;
* the store round-trips entries atomically, treats anything it cannot
  vouch for as a miss, and confines gc/clear to marked cache roots;
* ``cached_map`` is ``executor.map`` with short-circuiting: hits skip
  execution, misses dispatch and store, order is preserved — and only
  entries the keyer's codec can vouch for count as hits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    CACHE_MARKER,
    CACHE_VERSION,
    KIND_PICKLE,
    KIND_RECORD,
    TrialCache,
    TrialKeyer,
    Uncacheable,
    canonical_json,
    canonicalize,
    clear_caches,
    code_fingerprint,
    encode_result,
    fingerprint_modules,
    trial_key,
)
from repro.cache import keys as cache_keys
from repro.core.experiments import RobustTrialRunner
from repro.core.pipeline import cached_map, dispatch
from repro.device import NEXUS4
from repro.parallel import SerialExecutor, SupervisedExecutor


# -- canonicalization -------------------------------------------------------

def module_level_task(seed: int) -> int:
    return seed * 2


@dataclass(frozen=True)
class ScaleTask:
    """Canonicalizable module-level task for cached_map tests."""

    scale: int

    def __call__(self, seed: int) -> int:
        CALLS.append(seed)
        return seed * self.scale


CALLS: list = []


def test_scalars_pass_through():
    for value in (None, True, 0, 3, "x", 2.5):
        assert canonicalize(value) == value


def test_dict_and_set_orders_never_reach_the_canonical_form():
    a = canonicalize({"b": 1, "a": 2, "c": {3, 1, 2}})
    b = canonicalize({"c": {2, 3, 1}, "a": 2, "b": 1})
    assert a == b
    assert canonical_json(a) == canonical_json(b)


def test_dataclasses_carry_their_qualified_name():
    canon = canonicalize(ScaleTask(scale=3))
    assert canon[0] == "dc"
    assert canon[1].endswith(":ScaleTask")
    assert canon[2] == {"scale": 3}


def test_device_spec_dataclass_is_canonicalizable():
    canon = canonicalize(NEXUS4)
    assert canon[0] == "dc"
    assert canonical_json(canon) == canonical_json(canonicalize(NEXUS4))


def test_module_level_functions_have_a_stable_identity():
    canon = canonicalize(module_level_task)
    assert canon == ["fn", f"{__name__}:module_level_task"]


def test_lambdas_and_local_functions_are_uncacheable():
    with pytest.raises(Uncacheable):
        canonicalize(lambda s: s)

    def local(s):
        return s

    with pytest.raises(Uncacheable):
        canonicalize(local)


def test_arbitrary_objects_are_uncacheable():
    with pytest.raises(Uncacheable):
        canonicalize(object())


@dataclass(frozen=True)
class CarrierTask:
    """A task that wrongly carries part of the run inside it."""

    inner: object

    def __call__(self, x: int) -> int:
        return x


def test_infrastructure_inside_a_task_is_uncacheable(tmp_path):
    # The run's executor and cache travel beside a task, never inside it;
    # one caught inside is an unknown object like any other.
    cache = TrialCache(tmp_path)
    for inner in (SerialExecutor(), SupervisedExecutor(2), cache):
        with pytest.raises(Uncacheable):
            canonicalize(CarrierTask(inner))
    # The sweep still runs; it is counted uncacheable and never keyed.
    assert cached_map(attached(cache), CarrierTask(SerialExecutor()),
                      [4, 5], experiment="carrier") == [4, 5]
    assert cache.stats.uncacheable == 1
    assert cache.stats.lookups == 0 and cache.stats.stores == 0


# -- key stability (hypothesis) ---------------------------------------------

_params = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(), st.floats(allow_nan=False,
                                       allow_infinity=False),
              st.text(max_size=8), st.booleans(), st.none()),
    max_size=5,
)


@settings(max_examples=50, deadline=None)
@given(params=_params, experiment=st.text(min_size=1, max_size=16),
       trial=st.integers(min_value=0, max_value=10_000),
       item=st.integers())
def test_trial_key_is_deterministic_and_order_free(params, experiment,
                                                   trial, item):
    canon = canonicalize(params)
    reordered = canonicalize(dict(reversed(list(params.items()))))
    key = trial_key(experiment, trial, item, canon, "f" * 16)
    assert key == trial_key(experiment, trial, item, reordered, "f" * 16)
    assert len(key) == 64 and set(key) <= set("0123456789abcdef")


@settings(max_examples=50, deadline=None)
@given(experiment=st.text(min_size=1, max_size=16),
       trial=st.integers(min_value=0, max_value=10_000))
def test_trial_key_separates_trials_and_fingerprints(experiment, trial):
    base = trial_key(experiment, trial, trial, None, "a" * 16)
    assert base != trial_key(experiment, trial + 1, trial, None, "a" * 16)
    assert base != trial_key(experiment, trial, trial, None, "b" * 16)
    assert base != trial_key(experiment + "x", trial, trial, None, "a" * 16)


# -- code fingerprints ------------------------------------------------------

#: How ``pkg/a.py`` imports ``pkg/b.py`` (test id -> import line, call).
IMPORT_FORMS = {
    "from-pkg.b-import": ("from pkg.b import helper", "helper()"),
    "import-pkg.b": ("import pkg.b", "pkg.b.helper()"),
    "import-pkg.b-as": ("import pkg.b as b", "b.helper()"),
    "from-dot-import-b": ("from . import b", "b.helper()"),
    "from-dot-b-import": ("from .b import helper", "helper()"),
    "from-pkg.b-import-star": ("from pkg.b import *", "helper()"),
}


def _write_pkg(root, b_body="def helper():\n    return 1\n",
               import_form="from-pkg.b-import"):
    import_line, call = IMPORT_FORMS[import_form]
    pkg = root / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(f"{import_line}\n\n"
                              "def trial(seed):\n"
                              f"    return {call} + seed\n")
    (pkg / "b.py").write_text(b_body)
    (pkg / "c.py").write_text("UNRELATED = True\n")
    return pkg


@pytest.mark.parametrize("import_form", IMPORT_FORMS)
def test_fingerprint_flips_on_dependency_edit_only(tmp_path, import_form):
    _write_pkg(tmp_path, import_form=import_form)
    clear_caches()
    before = fingerprint_modules(["pkg.a"], root=tmp_path)

    # Editing the imported module must flip the fingerprint...
    _write_pkg(tmp_path, b_body="def helper():\n    return 2\n",
               import_form=import_form)
    clear_caches()
    after = fingerprint_modules(["pkg.a"], root=tmp_path)
    assert after != before

    # ...and editing an unrelated module must not.
    (tmp_path / "pkg" / "c.py").write_text("UNRELATED = False\n")
    clear_caches()
    assert fingerprint_modules(["pkg.a"], root=tmp_path) == after
    clear_caches()  # leave no tmp-path models behind for other tests


def test_fingerprint_is_memoized_per_start_set(tmp_path):
    _write_pkg(tmp_path)
    clear_caches()
    first = fingerprint_modules(["pkg.a"], root=tmp_path)
    assert fingerprint_modules(["pkg.a"], root=tmp_path) == first
    assert fingerprint_modules(["pkg.c"], root=tmp_path) != first
    clear_caches()


def test_unlocatable_start_module_is_uncacheable(tmp_path):
    (tmp_path / "empty").mkdir()
    clear_caches()
    with pytest.raises(Uncacheable):
        fingerprint_modules(["no.such.module"], root=tmp_path / "empty")
    clear_caches()


def _package_copy(tmp_path):
    import shutil

    import repro

    copy = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).resolve().parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


@pytest.mark.parametrize("edited, unaffected, affected", [
    ("web/browser.py", "repro.core.studies.rtc", "repro.core.studies.web"),
    ("faults/plan.py", "repro.core.studies.video",
     "repro.core.studies.faults"),
], ids=["browser-edit", "fault-plan-edit"])
def test_fingerprints_stay_local_to_a_studys_imports(tmp_path, edited,
                                                     unaffected, affected):
    # Editing one app's sources must leave other studies' entries hot:
    # the shared `simulate` may not drag every app into every key.
    copy = _package_copy(tmp_path)
    clear_caches()
    before = {name: fingerprint_modules([name], root=copy)
              for name in (unaffected, affected)}
    with (copy / edited).open("a", encoding="utf-8") as handle:
        handle.write("\nEDITED = True\n")
    clear_caches()
    after = {name: fingerprint_modules([name], root=copy)
             for name in (unaffected, affected)}
    clear_caches()
    assert after[unaffected] == before[unaffected]
    assert after[affected] != before[affected]


def test_code_fingerprint_covers_the_trial_functions_own_module():
    # The test module lives outside the package root; its source is
    # resolved through sys.modules and still yields a fingerprint.
    fingerprint = code_fingerprint(module_level_task)
    assert len(fingerprint) == 16
    assert fingerprint == code_fingerprint(ScaleTask(scale=2))


# -- the store --------------------------------------------------------------

def test_put_get_round_trip_and_marker(tmp_path):
    cache = TrialCache(tmp_path / "cache")
    key = "ab" + "0" * 62
    cache.put(key, experiment="e", trial=3, kind=KIND_PICKLE,
              payload=encode_result(41), fingerprint="f" * 16)
    assert (tmp_path / "cache" / CACHE_MARKER).exists()
    entry = cache.get(key)
    assert entry is not None
    assert (entry["experiment"], entry["trial"]) == ("e", 3)
    assert cache.stats.hits == 1 and cache.stats.stores == 1
    assert cache.entry_count() == 1
    assert cache.total_bytes() > 0


def test_absent_torn_and_versioned_entries_all_read_as_misses(tmp_path):
    cache = TrialCache(tmp_path)
    assert cache.get("aa" + "0" * 62) is None  # absent
    path = cache._entry_path("ab" + "0" * 62)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")  # torn
    assert cache.get("ab" + "0" * 62) is None
    path.write_text(json.dumps({"version": CACHE_VERSION + 1}))  # future
    assert cache.get("ab" + "0" * 62) is None
    assert cache.stats.misses == 3 and cache.stats.hits == 0
    assert cache.stats.hit_ratio == 0.0


def test_gc_and_clear_refuse_unmarked_directories(tmp_path):
    stranger = tmp_path / "not-a-cache"
    stranger.mkdir()
    (stranger / "precious.txt").write_text("data")
    cache = TrialCache(stranger)
    with pytest.raises(ValueError):
        cache.gc(max_age_days=0)
    with pytest.raises(ValueError):
        cache.clear()
    assert (stranger / "precious.txt").exists()


def test_gc_drops_old_then_oldest_until_fits(tmp_path):
    import os

    cache = TrialCache(tmp_path)
    keys = [f"{i:02x}" + "0" * 62 for i in range(4)]
    for i, key in enumerate(keys):
        cache.put(key, experiment="e", trial=i, kind=KIND_PICKLE,
                  payload=encode_result(i), fingerprint="f" * 16)
    # Age the first two entries far into the past.
    for key in keys[:2]:
        os.utime(cache._entry_path(key), (1.0, 1.0))
    assert cache.gc(max_age_days=365) == 2
    assert cache.entry_count() == 2
    assert cache.gc(max_bytes=0) == 2
    assert cache.entry_count() == 0
    assert TrialCache(tmp_path).clear() == 0


def test_stats_line_format(tmp_path):
    cache = TrialCache(tmp_path)
    assert cache.stats.line() == "cache: 0 hits, 0 misses, 0 stores"
    cache.stats.hits, cache.stats.misses, cache.stats.stores = 3, 1, 1
    assert cache.stats.line() == ("cache: 3 hits, 1 misses, 1 stores "
                                  "(75% hit ratio)")


def test_runner_cache_beats_the_one_its_executor_carries(tmp_path):
    explicit = TrialCache(tmp_path / "a")
    carried = TrialCache(tmp_path / "b")
    RobustTrialRunner(trials=3, experiment="explicit", cache=explicit,
                      executor=attached(carried)).run(module_level_task)
    assert explicit.stats.stores == 3 and explicit.entry_count() == 3
    assert carried.stats.lookups == 0 and carried.entry_count() == 0


# -- cached_map -------------------------------------------------------------

def attached(cache: TrialCache) -> SerialExecutor:
    """A serial executor carrying ``cache``, the way the CLI attaches one."""
    executor = SerialExecutor()
    executor.cache = cache
    return executor


def test_cached_map_hits_skip_execution_and_preserve_order(tmp_path):
    cache = TrialCache(tmp_path)
    task = ScaleTask(scale=3)
    CALLS.clear()
    cold = cached_map(attached(cache), task, [5, 1, 9],
                      experiment="e")
    assert cold == [15, 3, 27]
    assert CALLS == [5, 1, 9]
    assert (cache.stats.hits, cache.stats.misses,
            cache.stats.stores) == (0, 3, 3)

    CALLS.clear()
    warm = cached_map(attached(cache), task, [5, 1, 9],
                      experiment="e")
    assert warm == cold
    assert CALLS == []  # every trial replayed from the store
    assert cache.stats.hits == 3


def test_cached_map_partial_warmth_dispatches_only_misses(tmp_path):
    cache = TrialCache(tmp_path)
    task = ScaleTask(scale=2)
    cached_map(attached(cache), task, [1, 2], experiment="e")
    CALLS.clear()
    out = cached_map(attached(cache), task, [1, 2, 3],
                     experiment="e")
    assert out == [2, 4, 6]
    assert CALLS == [3]  # index 2 was the only miss


def test_cached_map_without_a_cache_is_plain_map():
    CALLS.clear()
    out = cached_map(SerialExecutor(), ScaleTask(scale=2), [4, 5],
                     experiment="e")
    assert out == [8, 10]
    assert CALLS == [4, 5]


def test_cached_map_uncacheable_task_runs_uncached(tmp_path):
    cache = TrialCache(tmp_path)
    out = cached_map(attached(cache), lambda s: s + 1, [1, 2],
                     experiment="e")
    assert out == [2, 3]
    assert cache.stats.lookups == 0
    assert cache.stats.uncacheable == 1
    assert cache.entry_count() == 0


def test_dispatch_flags_cache_replays(tmp_path):
    cache = TrialCache(tmp_path)
    task = ScaleTask(scale=2)
    cached_map(attached(cache), task, [1, 2, 3], experiment="e")
    keyer = TrialKeyer.create(cache, task, experiment="e")
    cache._entry_path(keyer.key(1, 2)).unlink()
    seen = list(dispatch(SerialExecutor(), task, [1, 2, 3], keyer=keyer))
    # Index order, hits and the executed miss merged.
    assert seen == [(0, 2, True), (1, 4, False), (2, 6, True)]


def test_experiment_and_scale_separate_cache_entries(tmp_path):
    cache = TrialCache(tmp_path)
    assert cached_map(attached(cache), ScaleTask(scale=2), [3],
                      experiment="e") == [6]
    # Same item, different experiment: a miss, not a cross-talk hit.
    assert cached_map(attached(cache), ScaleTask(scale=2), [3],
                      experiment="f") == [6]
    # Same experiment, different task params: also a miss.
    assert cached_map(attached(cache), ScaleTask(scale=10), [3],
                      experiment="e") == [30]
    assert cache.stats.hits == 0 and cache.stats.misses == 3


def test_torn_payload_demotes_the_hit_and_recomputes(tmp_path):
    cache = TrialCache(tmp_path)
    task = ScaleTask(scale=2)
    cached_map(attached(cache), task, [1], experiment="e")
    # Corrupt the stored payload but keep the entry well-formed JSON.
    path = next(iter(cache.iter_entries()))
    entry = json.loads(path.read_text())
    entry["payload"] = "!!! not base64 pickle !!!"
    path.write_text(json.dumps(entry))
    fresh = TrialCache(tmp_path)
    assert cached_map(attached(fresh), task, [1], experiment="e") == [2]
    assert fresh.stats.hits == 0 and fresh.stats.misses == 1
    assert fresh.stats.stores == 1  # the recompute re-stored a good entry


def test_wrong_kind_entry_is_booked_as_a_miss(tmp_path):
    cache = TrialCache(tmp_path)
    task = ScaleTask(scale=2)
    keyer = TrialKeyer.create(cache, task, experiment="e")
    cache.put(keyer.key(0, 1), experiment="e", trial=0, kind=KIND_RECORD,
              payload={"trial": 0, "seed": 1, "status": "ok", "value": 9.0},
              fingerprint=keyer.fingerprint)
    CALLS.clear()
    assert cached_map(attached(cache), task, [1], experiment="e") == [2]
    assert CALLS == [1]  # recomputed, not trusted
    assert (cache.stats.hits, cache.stats.misses,
            cache.stats.stores) == (0, 1, 2)


def test_trial_keyer_disables_caching_for_uncacheable_extras(tmp_path):
    cache = TrialCache(tmp_path)
    assert TrialKeyer.create(None, ScaleTask(scale=1), experiment="e") is None
    keyer = TrialKeyer.create(cache, ScaleTask(scale=1), experiment="e",
                              extra={"unstable": object()})
    assert keyer is None
    assert cache.stats.uncacheable == 1


def test_entry_keyed_by_the_version_1_derivation_reads_as_a_miss(tmp_path):
    # Version 1 hashed the whole canonical params into every trial key;
    # an entry a store of that era holds must recompute, not replay.
    cache = TrialCache(tmp_path)
    task = ScaleTask(scale=2)
    keyer = TrialKeyer.create(cache, task, experiment="e")
    old_payload = ["trialkey", 1, "e", 0, canonicalize(7),
                   {"task": canonicalize(task), "extra": None},
                   keyer.fingerprint]
    old_key = hashlib.sha256(
        canonical_json(old_payload).encode("utf-8")).hexdigest()
    assert old_key != keyer.key(0, 7)
    cache.put(old_key, experiment="e", trial=0, kind=KIND_PICKLE,
              payload=encode_result(99), fingerprint=keyer.fingerprint)
    CALLS.clear()
    assert cached_map(attached(cache), task, [7], experiment="e") == [14]
    assert CALLS == [7]
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)


@dataclass(frozen=True)
class BulkyTask:
    """A task whose canonical form is far larger than any trial key."""

    pages: tuple

    def __call__(self, seed: int) -> int:
        return seed


def test_trial_keys_hash_small_documents_for_a_large_task(tmp_path,
                                                           monkeypatch):
    task = BulkyTask(pages=tuple(f"page-{i:06d}" for i in range(10_000)))
    assert len(canonical_json(canonicalize(task))) > 100_000
    keyer = TrialKeyer.create(TrialCache(tmp_path), task, experiment="e")
    sizes = []

    def recording(value):
        text = canonical_json(value)
        sizes.append(len(text))
        return text

    monkeypatch.setattr(cache_keys, "canonical_json", recording)
    keys = {keyer.key(trial, trial * 31) for trial in range(5)}
    assert len(keys) == 5
    assert len(sizes) == 5 and max(sizes) < 1_000
