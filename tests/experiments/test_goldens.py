"""Committed exhibit goldens, and the sweeps several exhibits share.

Every registered exhibit's CSV at smoke scale (``REPRO_SCALE=20``,
``REPRO_TRIALS=3``, seed 0, default seeding) is pinned by its SHA-256.
A change that moves any number fails here, even one that moves the
``exhibit`` and ``sweep`` paths alike.

Some exhibits are views of one sweep (Figures 1/3 and Table 1, 2/4 and
Table 2, 11/12, 13/14, 15/16).  Each exhibit must print the same bytes
whether it runs on its own or reads a sweep another exhibit evaluated,
and reading one must draw no samples.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.executor import clear_memo
from repro.obs import OBS

GOLDEN_SHA256 = {
    "fig1": "64dbe727f1600ad883995f56f68fe580d33bb5c96b2afab6df3b4fa87cbce4fe",
    "fig2": "177b7005c7425d5d58fa3167c73f9047fb0de91dc52ce946d49d12bf44631df2",
    "fig3": "d74c24c9fa87f2942a92069496250132099a5086ddc663a705a24658c4a25f91",
    "fig4": "f90422db7d8c6957c09560a21d11a22301c9487a4694cba1485f3780bc69ab71",
    "fig5": "c008faa8b34cc47bd9423ced1735ea494e1c6ed1c61162a1d64d2a63a6720020",
    "fig6": "15b6005d490f421dc03159a6763674190e0b2bba66abd8663ec651fe64faa32a",
    "table1": "f07be94f553c360465b6ea83f64d818979da2f50af45efb87a5496e7d5805ff7",
    "table2": "aae407cc4e211a3315a31e277e546bad6c6fa146717ecd0a46216505926b725d",
    "fig7": "841a92cd8e72d8a6ecb17f544027ed083aaa0d971b1de4df2613381d1c1ec74b",
    "fig8": "4f9a2b917bfe83f01d3bc14fccdab1d0896e96da2b28ece9ad6f2e16b4945ebf",
    "fig9": "7c7bba30c69eb1b42733f3f54fdca376465f7d222a70a3e5b1bca196fda2c191",
    "fig10": "efd1bb4ecf4bf11191cc5fc27e7dd30cacf6c95bb8a39e33c4587ad012810333",
    "fig11": "f7af21bdefb0acd81c5116623bde880feffb5726b5ec0505a2aad639e0b8684f",
    "fig12": "297325c60472d120d7161fffd73bc290f6066e7113d33a27efb756311b39b2ed",
    "fig13": "9b5171d3a64bf6eb46f0ef5ef50041b2c24caa350ce5d283af9acd8ffd15d362",
    "fig14": "ebe2a66fc27fb1a582271a5319f0f003c6ed308002c4a3b99c84d2c16603655d",
    "fig15": "2ea9d8d06c3eeeb535bfb8cea670a9159ebbf8a0879afe18d5d99807d9b4c75b",
    "fig16": "4cce19a844f3eede72c573cae5b8f278bb7ce9667731b33d81ccdc44b2055d62",
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
    for knob in ("REPRO_SEED_MODE", "REPRO_WORKERS"):
        monkeypatch.delenv(knob, raising=False)
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
    [("REPRO_TRIALS", "2"), ("REPRO_SCALE", "40"), ("REPRO_SEED_MODE", "spawn")],
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


@pytest.mark.parametrize("group", SHARED_SWEEPS, ids="-".join)
def test_spawn_seeding_shares_the_same_way(smoke_scale, monkeypatch, group):
    monkeypatch.setenv("REPRO_SEED_MODE", "spawn")
    alone = {}
    for exhibit_id in group:
        clear_memo()
        alone[exhibit_id] = _csv(exhibit_id)
    clear_memo()
    assert {i: _csv(i) for i in group} == alone
