"""What ``import repro.cli`` loads, and what a run needs: no scipy.

scipy cost a quarter of a second of every cold start and ~20 MB of
every process's resident memory, for two scalar calls.  Brent lives in
``repro.core.roots`` and the chi-squared gate in ``repro.frequency.skew``,
so no part of scipy may come back, at import or lazily during a run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from tests.experiments.test_goldens import GOLDEN_SHA256

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = (
    "import json, sys\n"
    "import repro.cli\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)

#: Runs the exhibits named on the command line with every scipy import
#: refused, and reports their digests and any scipy module loaded.
WITHOUT_SCIPY = """
import hashlib, json, sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused: the run must not need scipy")
        return None


sys.meta_path.insert(0, RefuseScipy())
from repro.experiments import run_experiment

digests = {
    exhibit: hashlib.sha256(run_experiment(exhibit, seed=0).to_csv().encode()).hexdigest()
    for exhibit in sys.argv[1:]
}
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
print(json.dumps({"digests": digests, "scipy": loaded}))
"""


def _run(args: list[str], env: dict[str, str]) -> str:
    completed = subprocess.run(
        [sys.executable, *args],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return completed.stdout


def test_cli_import_skips_scipy_optimize_and_stats():
    env = {**os.environ, "PYTHONPATH": SRC}
    modules = json.loads(_run(["-c", PROBE], env))
    assert [name for name in modules if name.startswith("scipy")] == []


def test_exhibits_match_their_goldens_with_scipy_refused():
    # fig1 runs the HYBSKEW/HYBGEE gate on every sweep point; stability
    # runs it on bootstrap replicates.
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env.update(PYTHONPATH=SRC, REPRO_SCALE="20", REPRO_TRIALS="3")
    exhibits = ["fig1", "stability"]
    report = json.loads(_run(["-c", WITHOUT_SCIPY, *exhibits], env))
    assert report["digests"] == {e: GOLDEN_SHA256[e] for e in exhibits}
    assert report["scipy"] == []
