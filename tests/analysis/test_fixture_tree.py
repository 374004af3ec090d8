"""Snapshot of every finding on the whole fixture tree.

Each per-rule test filters findings by its own code, so a rule drifting
on another rule's fixture (R101 on ``fixture_r1301.py``, R601 anywhere)
would go unseen there.  This test lints every fixture together under
``repro/estimators/``, as ``repro lint`` lints a tree, and compares all
``(file, line, col, code)`` tuples with a literal list.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.analysis import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"

EXPECTED = [
    ('fixture_r1001.py', 10, 0, 'R1001'),
    ('fixture_r1001.py', 10, 0, 'R601'),
    ('fixture_r1001.py', 14, 0, 'R1001'),
    ('fixture_r1001.py', 19, 0, 'R1001'),
    ('fixture_r1001.py', 23, 0, 'R1001'),
    ('fixture_r1001.py', 27, 0, 'R1001'),
    ('fixture_r1001.py', 31, 0, 'R1001'),
    ('fixture_r1001.py', 59, 0, 'R1001'),
    ('fixture_r1001.py', 63, 0, 'R1001'),
    ('fixture_r1001.py', 67, 0, 'R1001'),
    ('fixture_r1001.py', 71, 0, 'R1001'),
    ('fixture_r1002.py', 6, 0, 'R1002'),
    ('fixture_r1002.py', 6, 0, 'R601'),
    ('fixture_r1002.py', 11, 0, 'R1002'),
    ('fixture_r1002.py', 15, 0, 'R1002'),
    ('fixture_r101.py', 4, 0, 'R601'),
    ('fixture_r101.py', 5, 11, 'R101'),
    ('fixture_r101.py', 9, 11, 'R101'),
    ('fixture_r101.py', 35, 11, 'R101'),  # a comparison that names r leaves r == 0
    ('fixture_r101.py', 46, 12, 'R101'),  # the class body's own k
    ('fixture_r101.py', 49, 20, 'R101'),  # the lambda parameter k
    ('fixture_r101.py', 51, 10, 'R101'),  # the comprehension's k
    ('fixture_r101.py', 69, 11, 'R101'),  # `a or -3.0` may be -4.0
    ('fixture_r101.py', 83, 11, 'R101'),  # np.exp2 is 2**x, not e**x
    ('fixture_r101.py', 90, 11, 'R101'),  # math.log2 in base 2
    ('fixture_r101.py', 97, 11, 'R101'),  # math.log10(1000) is 3 exactly
    ('fixture_r101.py', 109, 12, 'R101'),  # the finally runs after the handler
    ('fixture_r101.py', 119, 11, 'R101'),  # the with may swallow the raise
    ('fixture_r101.py', 131, 15, 'R101'),  # a handler entered midway
    ('fixture_r101.py', 142, 10, 'R101'),  # a finally entered midway
    ('fixture_r101.py', 151, 11, 'R101'),  # after a with left midway
    ('fixture_r101.py', 166, 15, 'R101'),  # self.bits rebound by a nested target
    ('fixture_r101.py', 180, 15, 'R101'),  # ... by a loop target
    ('fixture_r101.py', 194, 15, 'R101'),  # ... by a with target
    ('fixture_r102.py', 6, 0, 'R601'),
    ('fixture_r102.py', 7, 11, 'R102'),
    ('fixture_r102.py', 11, 11, 'R102'),
    ('fixture_r102.py', 32, 11, 'R102'),  # a comparison that names x leaves x <= 0
    ('fixture_r102.py', 37, 11, 'R102'),  # `a or b` may be negative
    ('fixture_r1101.py', 12, 0, 'R1101'),
    ('fixture_r1101.py', 12, 0, 'R601'),
    ('fixture_r1101.py', 18, 0, 'R1101'),
    ('fixture_r1101.py', 38, 16, 'R1101'),
    ('fixture_r1201.py', 18, 0, 'R601'),
    ('fixture_r1201.py', 19, 9, 'R1201'),
    ('fixture_r1201.py', 24, 4, 'R1201'),
    ('fixture_r1201.py', 28, 4, 'R1201'),
    ('fixture_r1201.py', 48, 9, 'R1201'),
    ('fixture_r1301.py', 7, 0, 'R601'),
    ('fixture_r1301.py', 8, 11, 'R101'),
    ('fixture_r1301.py', 8, 11, 'R1301'),
    ('fixture_r1301.py', 26, 11, 'R101'),
    ('fixture_r1302.py', 8, 0, 'R601'),
    ('fixture_r1302.py', 9, 11, 'R1302'),
    ('fixture_r1302.py', 13, 11, 'R1302'),
    ('fixture_r1302.py', 17, 11, 'R1302'),
    ('fixture_r1303.py', 8, 0, 'R601'),
    ('fixture_r1303.py', 9, 11, 'R1303'),
    ('fixture_r1303.py', 13, 11, 'R1303'),
    ('fixture_r1304.py', 9, 0, 'R601'),
    ('fixture_r1304.py', 12, 4, 'R1304'),
    ('fixture_r1304.py', 29, 4, 'R1304'),
    ('fixture_r201.py', 6, 0, 'R601'),
    ('fixture_r201.py', 7, 11, 'R201'),
    ('fixture_r201.py', 11, 11, 'R201'),
    ('fixture_r301.py', 6, 0, 'R301'),
    ('fixture_r301.py', 9, 0, 'R601'),
    ('fixture_r301.py', 10, 11, 'R301'),
    ('fixture_r301.py', 14, 11, 'R301'),
    ('fixture_r301.py', 18, 4, 'R301'),
    ('fixture_r401.py', 4, 0, 'R601'),
    ('fixture_r401.py', 17, 8, 'R401'),
    ('fixture_r401.py', 23, 8, 'R401'),
    ('fixture_r401.py', 29, 8, 'R401'),
    ('fixture_r401.py', 35, 8, 'R401'),
    ('fixture_r401.py', 41, 4, 'R401'),
    ('fixture_r401.py', 42, 8, 'R401'),
    ('fixture_r801.py', 7, 0, 'R601'),
    ('fixture_r801.py', 8, 4, 'R801'),
    ('fixture_r801.py', 13, 4, 'R801'),
    ('fixture_r801.py', 17, 4, 'R801'),
    ('fixture_r801.py', 21, 11, 'R801'),
    ('fixture_r801.py', 25, 4, 'R801'),
    ('fixture_r901.py', 8, 0, 'R601'),
    ('fixture_r901.py', 11, 4, 'R901'),
    ('fixture_r901.py', 18, 4, 'R901'),
    ('fixture_r901.py', 25, 4, 'R901'),
    ('fixture_r901.py', 32, 4, 'R901'),
]


def test_every_finding_on_the_fixture_tree_is_pinned(tmp_path):
    package = tmp_path / "repro" / "estimators"
    package.mkdir(parents=True)
    for fixture in FIXTURES.glob("*.py"):
        shutil.copy(fixture, package / fixture.name)
    report = lint_paths([str(tmp_path)])
    found = sorted(
        (Path(finding.path).name, finding.line, finding.col, finding.code)
        for finding in report.findings
    )
    assert found == EXPECTED
