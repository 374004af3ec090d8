"""What ``import repro.cli`` loads: the CLI's cold start.

``scipy.optimize`` and ``scipy.stats`` together cost most of a second
of import time.  The Brent solver lives in ``repro.core.roots`` and the
chi-squared test calls ``scipy.special`` directly, so neither package
may come back through a stray import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = (
    "import json, sys\n"
    "import repro.cli\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)


def _modules_loaded_by_cli() -> list[str]:
    src = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return json.loads(completed.stdout)


def test_cli_import_skips_scipy_optimize_and_stats():
    modules = _modules_loaded_by_cli()
    assert "scipy.special" in modules
    scipy_packages = {
        name.split(".")[1]
        for name in modules
        if name.startswith("scipy.") and not name.split(".")[1].startswith("_")
    }
    assert "optimize" not in scipy_packages
    assert "stats" not in scipy_packages
    assert scipy_packages <= {"special", "version"}
