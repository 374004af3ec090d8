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
    "fig1": "4c88826b912ad3300e6c3fa980c74cd5f7cb0465441f6982e39c920749823f38",
    "fig2": "60d6e704798f3d762cea43646be3f3e72e25eec48a8a5990f27bc9c6b9419ee6",
    "fig3": "cf8d9e3737f782562cc4b552f54e0056991527e8db1c4ad82b1c15482cb7d94e",
    "fig4": "d17ba3a369c010b71e5b710b8e13ad9512e877749b4070ddf6740d8c139c02d9",
    "fig5": "4f984d159df1d9427108ea32558f730e852aa9b0a9afaffa2e13645c8bd1208b",
    "fig6": "0e9492494e7827236b6932d07c90cca37a343ed0b1e50cb1cdeed48d2bc2c14f",
    "table1": "5f30ab77dea797b9457ff824d2acc25a02104843c1d4800d8f7c1c28dc6a3e68",
    "table2": "8db7fb8fda23779243ecd15400b7195f2f2ef4b4839fe76b82375fdf69ae8663",
    "fig7": "2bd162f79ff79340ae6127e4556dad6d3d1f9c98ac4e01a50684c560200833d1",
    "fig8": "68b0a9d2d4f4ad6be366f986fb771372878c2f074a059c8df56d5ec3650e3050",
    "fig9": "799dc4c6cabf57d65a69483fd7eeccb1862450c9499bd9c9386cf5c53511eb9b",
    "fig10": "68cb6b875739e21fb069fbe63b655414f2635fd59663cd36c41b59c130e6be46",
    "fig11": "afea7d11bfbc380fca0f536e6a33aa2715fa7bf93ef874158174f705f001a453",
    "fig12": "ab7fdf9e88bedcd39eb3ce1a8d8af196209d0d2bb229c82f12de132d46cbc25e",
    "fig13": "4844ebf878cf9f26e3d424e79f04a2b5e919edeb1cafd6c4183f089cbab6855d",
    "fig14": "509f6806e88eac921d53da48e3debf34b307b77f932b47ee1e84cf16889585f6",
    "fig15": "164337b3c859861bb0641a61fe614ca56b34ca61dc8a3223f0acbf3a8974a8c7",
    "fig16": "f7717549d22b38ebe347afff7f8693d20738668bf8cd386a4381a47c9b6919a3",
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

    def spy(spec):
        held_at_build.append(executor.memo_size())
        return build(spec)

    monkeypatch.setattr(figures, "_build_column_traced", spy)
    _csv("fig9")
    assert held_at_build == [1] * 10
    assert executor.memo_size() == 2


@pytest.mark.parametrize("exhibit_id", SWEEP_EXHIBITS)
def test_a_sweep_samples_without_laying_out_rows(smoke_scale, exhibit_id):
    # Sweep columns hold only their class sizes: building or shuffling a
    # column's rows (``data.rows_generated``) in any sweep is a
    # regression, while every sweep draws its samples, each trial on
    # one of the two count-domain paths.
    OBS.reset()
    OBS.enable()
    try:
        _csv(exhibit_id)
        counters = OBS.counters()
    finally:
        OBS.disable()
        OBS.reset()
    assert "data.rows_generated" not in counters
    assert counters["sample.rows_sampled"] > 0
    paths = counters.get("sample.path.hypergeometric", 0) + counters.get(
        "sample.path.index", 0
    )
    assert paths == counters["sample.trials"]


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
