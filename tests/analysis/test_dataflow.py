"""End-to-end tests for the dataflow engine (`repro.analysis.dataflow`).

Each test lints or analyses a small inline module and checks what the
engine can (and deliberately cannot) prove: guard propagation, builtin
transfer functions, ``__init__`` attribute facts, loop widening, dead
code, and contract clause verdicts.
"""

from __future__ import annotations

import ast
import math

from repro.analysis.dataflow import Interval, build_cfg, engine, module_intervals
from repro.analysis.source import SourceModule

from tests.analysis.conftest import lint_text

_PATH = "repro/estimators/fixture_dataflow.py"


def _analysis(text: str):
    return module_intervals(SourceModule.from_source(text, path=_PATH))


class TestGuardPropagation:
    def test_raise_guard_proves_fallthrough(self):
        text = (
            "def f(n):\n"
            "    if n < 1:\n"
            "        raise ValueError(n)\n"
            "    return 1.0 / n\n"
        )
        analysis = _analysis(text)
        # The source text is identical, so re-parse and map by position.
        assert analysis.proves_nonzero(_find_divisor(analysis))

    def test_early_return_guard(self):
        text = (
            "def f(r):\n"
            "    if r == 0:\n"
            "        return 0.0\n"
            "    return 1.0 / r\n"
        )
        analysis = _analysis(text)
        assert analysis.proves_nonzero(_find_divisor(analysis))

    def test_unguarded_stays_unproved(self):
        text = "def f(n):\n    return 1.0 / n\n"
        analysis = _analysis(text)
        assert not analysis.proves_nonzero(_find_divisor(analysis))

    def test_guard_on_wrong_variable_does_not_leak(self):
        text = (
            "def f(n, m):\n"
            "    if n < 1:\n"
            "        raise ValueError(n)\n"
            "    return 1.0 / m\n"
        )
        analysis = _analysis(text)
        assert not analysis.proves_nonzero(_find_divisor(analysis))


class TestBuiltins:
    def test_max_with_positive_floor(self):
        findings = lint_text(
            "def f(x):\n"
            "    d = max(x, 1)\n"
            "    return 1.0 / d\n",
            ["R101"],
        )
        assert findings == []

    def test_len_is_nonnegative_not_nonzero(self):
        findings = lint_text(
            "def f(values):\n"
            "    return 1.0 / len(values)\n",
            ["R101"],
        )
        assert [finding.code for finding in findings] == ["R101"]

    def test_len_guarded(self):
        findings = lint_text(
            "def f(values):\n"
            "    count = len(values)\n"
            "    if count == 0:\n"
            "        return 0.0\n"
            "    return 1.0 / count\n",
            ["R101"],
        )
        assert findings == []

    def test_abs_needs_nonzero_operand(self):
        clean = lint_text(
            "import math\n"
            "def f(x):\n"
            "    if x == 0:\n"
            "        return 0.0\n"
            "    return math.log(abs(x))\n",
            ["R102"],
        )
        assert clean == []
        dirty = lint_text(
            "import math\n"
            "def f(x):\n"
            "    return math.log(abs(x))\n",
            ["R102"],
        )
        assert [finding.code for finding in dirty] == ["R102"]


class TestAttributeFacts:
    def test_init_validation_flows_into_methods(self):
        findings = lint_text(
            "class Sketch:\n"
            "    def __init__(self, bits):\n"
            "        if bits < 8:\n"
            "            raise ValueError(bits)\n"
            "        self.bits = int(bits)\n"
            "    def rate(self, used):\n"
            "        return used / self.bits\n",
            ["R101"],
        )
        assert findings == []

    def test_mutated_attribute_is_not_trusted(self):
        findings = lint_text(
            "class Sketch:\n"
            "    def __init__(self, bits):\n"
            "        if bits < 8:\n"
            "            raise ValueError(bits)\n"
            "        self.bits = int(bits)\n"
            "    def shrink(self):\n"
            "        self.bits = 0\n"
            "    def rate(self, used):\n"
            "        return used / self.bits\n",
            ["R101"],
        )
        assert [finding.code for finding in findings] == ["R101"]


class TestLoops:
    def test_widening_terminates_and_keeps_sign(self):
        # The counting loop grows i without bound; widening must
        # terminate the fixpoint and keep i >= 1 for the division.
        findings = lint_text(
            "def f(stop):\n"
            "    i = 1\n"
            "    total = 0.0\n"
            "    while i < stop:\n"
            "        total += 1.0 / i\n"
            "        i += 1\n"
            "    return total\n",
            ["R101"],
        )
        assert findings == []

    def test_loop_variable_that_may_hit_zero_is_not_proved(self):
        # i descends from 5 through 0: the prover must NOT claim i != 0,
        # and R101 reports the division although i is in the while-test.
        text = (
            "def f(stop):\n"
            "    i = 5\n"
            "    total = 0.0\n"
            "    while i > -5:\n"
            "        total += 1.0 / i\n"
            "        i -= 1\n"
            "    return total\n"
        )
        analysis = _analysis(text)
        divisor = _find_divisor(analysis)
        assert not analysis.proves_nonzero(divisor)
        assert [finding.line for finding in lint_text(text, ["R101"])] == [5]


class TestUnpacking:
    def test_nested_and_with_targets_forget_their_old_facts(self):
        for binding in (
            "    a, (b, c) = x\n",
            "    for a, (b, c) in x:\n        pass\n",
            "    with x as (a, b):\n        pass\n",
        ):
            text = "def f(x):\n    b = 1.0\n" + binding + "    return 1.0 / b\n"
            assert [f.code for f in lint_text(text, ["R101"])] == ["R101"], binding


class TestContracts:
    def test_requires_seeds_parameters(self):
        findings = lint_text(
            "from repro.contracts import requires\n"
            "@requires('n >= 1')\n"
            "def f(n):\n"
            "    return 1.0 / n\n",
            ["R101"],
        )
        assert findings == []

    def test_ensures_proved(self):
        analysis = _analysis(
            "from repro.contracts import ensures\n"
            "@ensures('result >= 1.0')\n"
            "def f(x):\n"
            "    return max(x, 1.0)\n"
        )
        verdicts = analysis.contract_verdicts()
        assert [v.verdict for v in verdicts if v.kind == "ensures"] == ["proved"]

    def test_ensures_runtime_when_unprovable(self):
        analysis = _analysis(
            "from repro.contracts import ensures\n"
            "@ensures('result >= 1.0')\n"
            "def f(x):\n"
            "    return x\n"
        )
        verdicts = analysis.contract_verdicts()
        assert [v.verdict for v in verdicts if v.kind == "ensures"] == ["runtime"]

    def test_ensures_violated(self):
        analysis = _analysis(
            "from repro.contracts import ensures\n"
            "@ensures('result >= 1.0')\n"
            "def f():\n"
            "    return 0.0\n"
        )
        verdicts = analysis.contract_verdicts()
        assert [v.verdict for v in verdicts if v.kind == "ensures"] == ["violated"]

    def test_requires_reported_assumed(self):
        analysis = _analysis(
            "from repro.contracts import requires\n"
            "@requires('r >= 1')\n"
            "def f(r):\n"
            "    return r\n"
        )
        verdicts = analysis.contract_verdicts()
        assert [(v.kind, v.verdict) for v in verdicts] == [("requires", "assumed")]


class TestModuleLevel:
    def test_a_module_level_expression_reads_the_module_env(self):
        analysis = _analysis(
            "import math\n"
            "_BASE = 4.0\n"
            "_SHARE = math.sqrt(_BASE) / _BASE\n"
        )
        interval = analysis.interval_of(analysis.module.tree.body[2].value)
        assert (interval.lo, interval.hi) == (0.5, 0.5)

    def test_inner_bindings_mask_the_module_constant(self):
        analysis = _analysis(
            "k = 5\n"
            "class Shadowed:\n"
            "    k = 0\n"
            "    share = 1.0 / k\n"
            "inverse = lambda k: 1.0 / k\n"
            "shares = [1.0 / k for k in range(3)]\n"
            "share = 1.0 / k\n"
        )
        divisors = _divisors_by_line(analysis)
        assert all(divisors[line].is_top for line in (4, 5, 6))
        assert (divisors[7].lo, divisors[7].hi) == (5.0, 5.0)

    def test_a_name_the_module_rebinds_elsewhere_is_unknown(self):
        # Only straight-line top-level assignments are folded: a loop, a
        # branch or a function's `global` may leave k at any value.
        for rebinding in (
            "for k in range(3):\n    pass\n",
            "if FLAG:\n    k = 0\n",
            "def reset():\n    global k\n    k = 0\n",
        ):
            analysis = _analysis(
                "k = 5\n" + rebinding + "def f(x):\n    return x / k\n"
            )
            assert not analysis.proves_nonzero(_find_divisor(analysis)), rebinding


class TestBranchRefinement:
    """A conditional's branches, later ``and``/``or`` operands and a
    comprehension's element assume the tests that lead to them."""

    def test_guards_inside_an_expression_prove_the_division(self):
        for text in (
            "def f(x, k):\n    return x / k if k > 0 else 0.0\n",
            "def f(x, k):\n    return x / k if k else 0.0\n",
            "def f(x, k):\n    return k > 0 and x / k > 1\n",
            "def f(x, k):\n    return k <= 0 or x / k > 1\n",
            "def f(ks):\n    return [1.0 / k for k in ks if k > 0]\n",
            "k = 2\nshare = 1.0 / k if k else 0.0\n",
        ):
            assert lint_text(text, ["R101"]) == [], text

    def test_the_other_branch_and_rebound_names_stay_unproved(self):
        for text in (
            "def f(x, k):\n    return 0.0 if k > 0 else x / k\n",
            "def f(x, k):\n    return k > 0 or x / k > 1\n",
            # The filter tests the outer k; the inner comprehension rebinds it.
            "def f(ks, k):\n    return [[1.0 / k for k in ks] for j in ks if k > 0]\n",
            "k = 5\nf = (lambda k: 1.0 / k) if k > 0 else None\n",
        ):
            assert [f.code for f in lint_text(text, ["R101"])] == ["R101"], text


class TestDeadCode:
    """A place no feasible path reaches proves every query."""

    def test_an_unreachable_block_is_proved(self):
        text = (
            "def f(x):\n"
            "    if x > 1.0:\n"
            "        if x < 0.5:\n"
            "            return 1.0 / (x - x)\n"
            "    return 0.0\n"
        )
        assert lint_text(text, ["R101"]) == []
        analysis = _analysis(text)
        assert analysis.interval_of(_find_divisor(analysis)) == Interval.empty()

    def test_an_infeasible_branch_is_proved(self):
        text = "z = 0\nshare = 1.0 / z if z else 0.0\n"
        assert lint_text(text, ["R101"]) == []
        analysis = _analysis(text)
        assert analysis.interval_of(_find_divisor(analysis)) == Interval.empty()

    def test_a_finally_body_and_code_after_a_with_block_still_run(self):
        # The finally body runs although the try returns, and the context
        # manager may swallow the raise: neither division is dead, and
        # each may run after b = 0.0, reached on a path that never falls
        # through to it.
        for text in (
            "def f(x):\n    b = 1.0\n    try:\n        return g(x)\n"
            "    except ValueError:\n        b = 0.0\n        raise\n"
            "    finally:\n        h(1.0 / b)\n",
            "def f(c):\n    b = 1.0\n    with suppress(ValueError):\n"
            "        if c:\n            b = 0.0\n        raise ValueError\n"
            "    return 1.0 / b\n",
        ):
            assert [f.code for f in lint_text(text, ["R101"])] == ["R101"], text

    def test_a_finally_after_dead_code_stays_dead(self):
        text = (
            "def f(x):\n"
            "    return 0.0\n"
            "    try:\n"
            "        return g(x)\n"
            "    finally:\n"
            "        h(1.0 / x)\n"
        )
        assert lint_text(text, ["R101"]) == []

    def test_an_abandoned_analysis_stays_unknown(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_VISITS", 0)
        analysis = _analysis("def f(x):\n    return 1.0 / x\n")
        assert analysis.interval_of(_find_divisor(analysis)).is_top


class TestEstimatorContractSeed:
    """In an uncontracted function the quantities the estimator contract
    validates start at ``>= 1``; a contracted one has its clauses alone."""

    def test_uncontracted_function_starts_at_one(self):
        analysis = _analysis(
            "def f(x, population_size, profile):\n"
            "    return x / population_size + x / profile.distinct\n"
        )
        for node in ast.walk(analysis.module.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                assert analysis.interval_of(node.right).lo == 1.0

    def test_a_contracted_function_gets_no_seed(self):
        text = (
            "from repro.contracts import requires\n"
            "@requires('x >= 0')\n"
            "def f(x, population_size):\n"
            "    return x / population_size\n"
        )
        analysis = _analysis(text)
        assert analysis.interval_of(_find_divisor(analysis)).is_top
        assert [finding.code for finding in lint_text(text, ["R1301"])] == ["R1301"]
        assert [finding.code for finding in lint_text(text, ["R101"])] == ["R101"]

    def test_the_seed_does_not_reach_attribute_facts(self):
        # Attribute facts feed contracted methods, so they rest on
        # contracts alone: self.size stays unknown in share().
        text = (
            "from repro.contracts import requires\n"
            "class Sizes:\n"
            "    def __init__(self, population_size):\n"
            "        self.size = population_size\n"
            "    @requires('x >= 0')\n"
            "    def share(self, x):\n"
            "        return x / self.size\n"
        )
        assert [finding.line for finding in lint_text(text, ["R1301"])] == [7]


class TestCfg:
    def test_straight_line_single_block(self):
        func = ast.parse("def f(x):\n    y = x + 1\n    return y\n").body[0]
        cfg = build_cfg(func)
        reachable = [block for block in cfg.blocks if block.statements]
        assert len(reachable) >= 1

    def test_if_produces_branches(self):
        func = ast.parse(
            "def f(x):\n"
            "    if x > 0:\n"
            "        y = 1\n"
            "    else:\n"
            "        y = 2\n"
            "    return y\n"
        ).body[0]
        cfg = build_cfg(func)
        # The entry block must fan out into two guarded edges.
        branching = [
            block for block in cfg.blocks if len(block.edges) == 2
        ]
        assert branching, "expected a two-way branch block"


class TestNumpyTransfers:
    """Interval transfers for the np ufunc vocabulary the estimators use.

    Each fixture returns a single expression; the test reads the interval
    the engine assigns to it, including the infinite endpoints the
    extended-real lattice has to keep exact.
    """

    def test_exp_of_clamped_log_term_is_a_probability(self):
        interval = _return_interval(
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.exp(np.minimum(0.0, x))\n"
        )
        assert (interval.lo, interval.hi) == (0.0, 1.0)
        assert interval.is_nonnegative

    def test_exp_saturates_instead_of_crashing_past_709(self):
        # math.exp raises OverflowError where IEEE doubles give inf; the
        # transfer must saturate, not take the linter down.
        interval = _return_interval(
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.exp(np.minimum(1000.0, x))\n"
        )
        assert interval.lo == 0.0
        assert interval.hi == math.inf

    def test_log_of_clamped_probability_has_finite_floor(self):
        interval = _return_interval(
            "import numpy as np\n"
            "def f(p):\n"
            "    return np.log(np.maximum(p, 1e-300))\n"
        )
        assert interval.lo == math.log(1e-300)
        assert interval.hi == math.inf

    def test_log_of_maybe_zero_is_top(self):
        interval = _return_interval(
            "import numpy as np\n"
            "def f(p):\n"
            "    return np.log(np.maximum(p, 0.0))\n"
        )
        assert interval.is_top

    def test_astype_float_preserves_bounds(self):
        interval = _return_interval(
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.maximum(x, 1.0).astype(np.float64)\n"
        )
        assert interval.lo == 1.0
        assert interval.is_positive

    def test_astype_int_covers_truncation(self):
        # [1.5, inf] cast to int64 can truncate down to 1, so the result
        # interval must widen to include it.
        interval = _return_interval(
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.maximum(x, 1.5).astype(np.int64)\n"
        )
        assert interval.lo == 1.0
        assert interval.is_positive

    def test_astype_unsigned_of_maybe_negative_is_top(self):
        # Unsigned casts wrap negatives around to huge values: no bound
        # survives unless the source is provably nonnegative.
        interval = _return_interval(
            "import numpy as np\n"
            "def f(x):\n"
            "    return x.astype(np.uint64)\n"
        )
        assert interval.is_top

    def test_astype_unsigned_of_nonnegative_keeps_the_floor(self):
        interval = _return_interval(
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.maximum(x, 0).astype(np.uint32)\n"
        )
        assert interval.is_nonnegative

    def test_log2_and_log10_take_their_own_base(self):
        # math.log(1000, 10) is 2.9999999999999996: each bound must be the
        # function's own value, or x = 1000 falls outside the interval.
        for name, top, hi in (
            ("log", 8.0, math.log(8.0)),
            ("log2", 8.0, 3.0),
            ("log10", 1000.0, 3.0),
        ):
            interval = _return_interval(
                "import math\n"
                "def f(x):\n"
                f"    if x < 1.0 or x > {top}:\n"
                "        return 0.0\n"
                f"    return math.{name}(x)\n",
            )
            assert (interval.lo, interval.hi) == (0.0, hi), name

    def test_count_nonzero_is_nonnegative(self):
        interval = _return_interval(
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.count_nonzero(x)\n"
        )
        assert interval.is_nonnegative


def _return_interval(text: str):
    """The engine's interval for the first ``return`` expression in *text*."""
    analysis = _analysis(text)
    for node in ast.walk(analysis.module.tree):
        if isinstance(node, ast.Return) and node.value is not None:
            return analysis.interval_of(node.value)
    raise AssertionError("no return in fixture")


def _divisors_by_line(analysis) -> dict:
    """The interval of each division's divisor, by line."""
    return {
        node.lineno: analysis.interval_of(node.right)
        for node in ast.walk(analysis.module.tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
    }


def _find_divisor(analysis) -> ast.expr:
    """The divisor expression of the first division in *analysis*'s tree."""
    tree = analysis.module.tree
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return node.right
    raise AssertionError("no division in fixture")
