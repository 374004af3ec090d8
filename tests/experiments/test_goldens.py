"""Committed exhibit goldens, and the sweeps several exhibits share.

Every registered exhibit's CSV at smoke scale (``REPRO_SCALE=20``,
``REPRO_TRIALS=3``, seed 0) is pinned by its SHA-256.  A change that
moves any number fails here, even one that moves the ``exhibit`` and
``sweep`` paths alike.  The sweep exhibits print the same bytes at any
``REPRO_WORKERS`` value: every grid point draws from its own spawned
stream.

Some exhibits are views of one sweep (Figures 1/3 and Table 1, 2/4 and
Table 2, 11/12, 13/14, 15/16).  Each exhibit must print the same bytes
whether it runs on its own or reads a sweep another exhibit evaluated,
and reading one must draw no samples.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import EXPERIMENTS, executor, figures, run_experiment
from repro.experiments.executor import clear_memo
from repro.obs import OBS, attributed_fraction, build_tree

GOLDEN_SHA256 = {
    "fig1": "4c14668c2b9186a514a22d92b933a055aed573dcd2d25ee21e821aad1bb3aa2c",
    "fig2": "c74d7790e981c8ecd67ed2145f0cb5a8364eb3f7b8e4e11fad2cddbfa2c93c5d",
    "fig3": "940197ad7109bd6519370de5585ac70d3154551394e3cfda3b3e546759fc6c10",
    "fig4": "099383385aa7e9d24727f4f8a46b873f28607384d7ab08fc903a9ae84b3213ab",
    "fig5": "17f5e02965e638024d23daa47bd50e447e88e0be1c8d10ac595e808cf5320ae7",
    "fig6": "5209bd548acbf0fe12060253e07cd1afa282bfb37707271b01987ae8d9140364",
    "table1": "933303f24a03cfdea99f028b85ae0096c4bd9e250a6574128f6bf4e6b5f36565",
    "table2": "bdcb6c8640afca9a69b50263efc466ad1ccecd349d378c4d2789e44453e76054",
    "fig7": "816e856c0087bd134a6352363fc9ad63ea8a8a0fc91a49b79deb290072551887",
    "fig8": "85d1d94eac89eaf712200b8193233a32ac14c8213a9c461b077e93588990488b",
    "fig9": "058d0a13fa2d2a9a262ccf1da2f5e2620d7eff5b525801b75f676ee64820c4c2",
    "fig10": "28b98dcfe41b85a3acd886244a683961cbf773d9e28254e54a29e07ef0f4a9cc",
    "fig11": "64837a826765724283f4597ebeca0d792ccf71e18abc6cc3a58d6a284c9d0714",
    "fig12": "ce37e540f47936162a962eccd37c90b5922d778bc283de94145ca20f62ffcb16",
    "fig13": "7d661ac6f03103711dad1586ec8586984eba6b85b9559403c071342817ae9b25",
    "fig14": "92fb28ca560eb140e3e99d5452eb76f16ac5fa8ed14278780099ce9b86cabbc1",
    "fig15": "0c5d6d5bf36b2ff76b20ea86ae0a2e81e526b5dc0ee2f85cc42516a29832ed26",
    "fig16": "7a68a37e6f29f7af367a7e7f1cb965ea31a794341f21de5eb1c3ac6bb31682ca",
    "theorem1": "cdcb452a5ec512cfe8c23888b026c7b20b42795f7c4fb5c05f59e57a15d6442c",
    "stability": "fbb98b3d138dcbebe2992008218650e22a4c7a6ebc17f9e79fec2436247dd185",
}

#: Exhibits that read a sweep evaluated by the exhibit before them.
SHARED_SWEEPS = (
    ("fig1", "fig3", "table1"),
    ("fig2", "fig4", "table2"),
    ("fig11", "fig12"),
    ("fig13", "fig14"),
    ("fig15", "fig16"),
)


@pytest.fixture
def smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "20")
    monkeypatch.setenv("REPRO_TRIALS", "3")
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    clear_memo()
    yield
    clear_memo()


def _csv(exhibit_id: str) -> str:
    return run_experiment(exhibit_id, seed=0).to_csv()


def _digest(exhibit_id: str) -> str:
    return hashlib.sha256(_csv(exhibit_id).encode()).hexdigest()


def test_every_registered_exhibit_has_a_golden():
    assert set(GOLDEN_SHA256) == set(EXPERIMENTS)


@pytest.mark.parametrize("exhibit_id", list(GOLDEN_SHA256))
def test_exhibit_on_its_own_matches_golden(smoke_scale, exhibit_id):
    assert _digest(exhibit_id) == GOLDEN_SHA256[exhibit_id]


@pytest.mark.parametrize("order", [1, -1], ids=["registry-order", "reversed"])
def test_exhibits_reading_a_shared_sweep_match_goldens(smoke_scale, order):
    # One process, memo never cleared: the later exhibit of every group
    # reads its sweep from the memo.  Reversed, Table 1 evaluates GEE
    # alone first, and Figure 3 must not read that narrower sweep.
    ids = list(GOLDEN_SHA256)[::order]
    assert {i: _digest(i) for i in ids} == GOLDEN_SHA256


@pytest.mark.parametrize("group", SHARED_SWEEPS, ids="-".join)
def test_shared_sweep_draws_no_new_samples(smoke_scale, group):
    OBS.reset()
    OBS.enable()
    try:
        _csv(group[0])
        drawn = OBS.counters()["sample.trials"]
        for exhibit_id in group[1:]:
            _csv(exhibit_id)
        assert OBS.counters()["sample.trials"] == drawn
    finally:
        OBS.disable()
        OBS.reset()


@pytest.mark.parametrize(
    "knob, value",
    [("REPRO_TRIALS", "2"), ("REPRO_SCALE", "40"), ("REPRO_WORKERS", "2")],
)
@pytest.mark.parametrize("exhibit_id", ["fig3", "fig12"])
def test_a_changed_setting_never_reads_a_stale_sweep(
    smoke_scale, monkeypatch, knob, value, exhibit_id
):
    _csv(exhibit_id)
    monkeypatch.setenv(knob, value)
    reused = _csv(exhibit_id)
    clear_memo()
    assert reused == _csv(exhibit_id)


#: One exhibit per sweep runner (rate, skew, duplication, bounded and
#: unbounded scale-up, real dataset).
RUNNER_EXHIBITS = ("fig1", "fig5", "fig7", "fig9", "fig10", "fig11")

#: Every exhibit that runs a grid sweep (all but theorem1 and stability).
SWEEP_EXHIBITS = tuple(i for i in GOLDEN_SHA256 if i not in ("theorem1", "stability"))


@pytest.mark.parametrize("exhibit_id", RUNNER_EXHIBITS)
def test_two_workers_print_the_golden_bytes(smoke_scale, monkeypatch, exhibit_id):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert _digest(exhibit_id) == GOLDEN_SHA256[exhibit_id]


def test_a_sweep_holds_one_shared_column_at_a_time(smoke_scale, monkeypatch):
    # Figure 9 sweeps ten columns.  Each must be built only after the
    # previous one is released, so at every build the memo holds the
    # sweep's own entry and nothing else; afterwards, that entry plus
    # the last column.
    held_at_build = []
    build = figures._build_column_traced

    def spy(spec, seed):
        held_at_build.append(executor.memo_size())
        return build(spec, seed)

    monkeypatch.setattr(figures, "_build_column_traced", spy)
    _csv("fig9")
    assert held_at_build == [1] * 10
    assert executor.memo_size() == 2


def _attributed(exhibit_id: str) -> float:
    """Share of the exhibit root's wall time covered by its child spans."""
    clear_memo()
    OBS.reset()
    OBS.enable()
    try:
        _csv(exhibit_id)
        spans = OBS.span_records()
    finally:
        OBS.disable()
        OBS.reset()
    (root,) = [r for r in build_tree(spans) if r.name == f"exhibit.{exhibit_id}"]
    return attributed_fraction(root)


@pytest.mark.parametrize("exhibit_id", SWEEP_EXHIBITS)
def test_sweep_exhibit_time_is_attributed_to_child_spans(smoke_scale, exhibit_id):
    # A smoke-scale exhibit takes milliseconds, and its own code ~2% of
    # that, so one preemption landing there can sink a run.  An
    # unspanned stage sinks every run, so the best of three still
    # catches it.
    best = 0.0
    for _ in range(3):
        best = max(best, _attributed(exhibit_id))
        if best >= 0.95:
            break
    assert best >= 0.95
