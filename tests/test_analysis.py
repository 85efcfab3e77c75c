"""Tests for the project-invariant lint engine (`repro.analysis`).

Every rule gets a fixture pair: a known-bad snippet that must trigger it
and a known-good sibling that must pass.  On top of that the live tree is
pinned clean under the default rule set — the self-hosted check CI runs —
and the PR 9 shared-generator merge bug is reintroduced verbatim as a
regression fixture for the RNG-discipline family.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path
from typing import ClassVar

import pytest

from repro.analysis import DEFAULT_RULES, AnalysisEngine, parse_directives
from repro.cli import main


def run_engine(
    tmp_path: Path,
    files: dict[str, str],
    tests: dict[str, str] | None = None,
    **kwargs,
):
    """Materialise ``files`` under a package root and run the default rules."""
    package_root = tmp_path / "pkg"
    for relpath, source in files.items():
        path = package_root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    tests_root = None
    if tests is not None:
        tests_root = tmp_path / "tests"
        for relpath, source in tests.items():
            path = tests_root / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
    engine = AnalysisEngine(package_root, DEFAULT_RULES, tests_root=tests_root)
    return engine.run(**kwargs)


def rules_fired(findings):
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# RNG discipline
# ----------------------------------------------------------------------
class TestRandomModuleRule:
    def test_bad_import_random(self, tmp_path):
        findings = run_engine(tmp_path, {"mod.py": "import random\n"})
        assert rules_fired(findings) == {"RNG001"}

    def test_bad_from_random(self, tmp_path):
        findings = run_engine(tmp_path, {"mod.py": "from random import choice\n"})
        assert rules_fired(findings) == {"RNG001"}

    def test_good_numpy_generator(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"mod.py": "import numpy as np\nrng = np.random.default_rng(7)\n"},
        )
        assert findings == []


class TestGlobalNumpyRngRule:
    def test_bad_legacy_call(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"mod.py": "import numpy as np\nnp.random.seed(0)\nx = np.random.random()\n"},
        )
        assert [f.rule for f in findings] == ["RNG002", "RNG002"]

    def test_good_constructors(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": (
                    "import numpy as np\n"
                    "g = np.random.Generator(np.random.PCG64(3))\n"
                    "s = np.random.SeedSequence(5)\n"
                )
            },
        )
        assert findings == []

    def test_bad_legacy_names_imported_from_numpy_random(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": (
                    "from numpy.random import random, seed\n"
                    "from numpy.random.mtrand import rand\n"
                    "seed(0)\n"
                    "x = random() + rand()\n"
                )
            },
        )
        assert [f.rule for f in findings] == ["RNG002"] * 3

    def test_bad_calls_through_a_numpy_random_alias(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "a.py": "from numpy import random as npr\nx = npr.rand()\n",
                "b.py": "from numpy import random\nrandom.seed(1)\n",
                "c.py": "import numpy.random as nr\nx = nr.normal()\n",
            },
        )
        assert [(f.file, f.rule) for f in findings] == [
            ("pkg/a.py", "RNG002"), ("pkg/b.py", "RNG002"), ("pkg/c.py", "RNG002")
        ]

    def test_good_constructor_and_interface_imports(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": (
                    "from numpy import random as npr\n"
                    "from numpy.random import PCG64, Generator, SeedSequence\n"
                    "from numpy.random.bit_generator import ISpawnableSeedSequence\n"
                    "g = Generator(PCG64(SeedSequence(3)))\n"
                    "h = npr.default_rng(4)\n"
                )
            },
        )
        assert findings == []

    def test_good_generator_method_named_random(self, tmp_path):
        # rng.random() is a Generator method, not the global namespace.
        findings = run_engine(
            tmp_path,
            {"mod.py": "def draw(rng):\n    return rng.random()\n"},
        )
        assert findings == []


class TestSeedlessGeneratorRule:
    def test_bad_seedless_default_rng(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"mod.py": "import numpy as np\nrng = np.random.default_rng()\n"},
        )
        assert rules_fired(findings) == {"RNG003"}

    def test_bad_seedless_bit_generator(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"mod.py": "import numpy as np\nbits = np.random.PCG64()\n"},
        )
        assert rules_fired(findings) == {"RNG003"}

    def test_good_seeded(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"mod.py": "import numpy as np\nrng = np.random.default_rng(11)\n"},
        )
        assert findings == []

    def test_rng_module_is_exempt(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"rng.py": "import numpy as np\nrng = np.random.default_rng()\n"},
        )
        assert findings == []


PR9_SHARED_GENERATOR_MERGE = """
    class ReplicatedSampler:
        def merge(self, others, *, rng=None):
            merged = type(self)()
            # The PR 9 bug, verbatim shape: every merged copy receives the
            # caller's generator object, so all copies share one stream.
            merged._rng = rng
            return merged
"""

PR9_FIXED_MERGE = """
    from repro.rng import spawn_generators

    class ReplicatedSampler:
        def merge(self, others, *, rng=None):
            merged = type(self)()
            merged._rng = spawn_generators(rng, 1)[0]
            return merged
"""


class TestSharedGeneratorRule:
    def test_pr9_regression_pattern_is_caught(self, tmp_path):
        """Reintroducing the PR 9 shared-generator merge is caught by RNG004."""
        findings = run_engine(tmp_path, {"mod.py": PR9_SHARED_GENERATOR_MERGE})
        assert rules_fired(findings) == {"RNG004"}
        (finding,) = findings
        assert "merge" in finding.message

    def test_pr9_fixed_shape_passes(self, tmp_path):
        findings = run_engine(tmp_path, {"mod.py": PR9_FIXED_MERGE})
        assert findings == []

    def test_bad_attribute_sharing_in_split(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": """
                class S:
                    def split(self):
                        sibling = type(self)()
                        sibling._rng = self._rng
                        return sibling
                """
            },
        )
        assert rules_fired(findings) == {"RNG004"}

    def test_bad_sharing_via_conditional(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": """
                class S:
                    def copy(self, rng=None):
                        dup = type(self)()
                        dup._generator = self._rng if rng is None else rng
                        return dup
                """
            },
        )
        assert rules_fired(findings) == {"RNG004"}

    def test_good_local_alias_not_flagged(self, tmp_path):
        # Selecting which generator drives the merge *draws* is fine; only
        # storing a live reference on the produced copy is the bug.
        findings = run_engine(
            tmp_path,
            {
                "mod.py": """
                class S:
                    def merge(self, others, *, rng=None):
                        merge_rng = self._rng if rng is None else rng
                        return merge_rng.random()
                """
            },
        )
        assert findings == []

    def test_good_outside_copying_methods(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": """
                class S:
                    def rebind(self, rng):
                        self._rng = rng
                """
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestWallClockRule:
    def test_bad_perf_counter_in_samplers(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"samplers/fast.py": "import time\nstart = time.perf_counter()\n"},
        )
        assert rules_fired(findings) == {"DET001"}

    def test_bad_datetime_now(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"mod.py": "from datetime import datetime\nstamp = datetime.now()\n"},
        )
        assert rules_fired(findings) == {"DET001"}

    def test_good_in_bench_and_service(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "bench.py": "import time\nstart = time.perf_counter()\n",
                "service/live.py": "import time\nstart = time.monotonic()\n",
            },
        )
        assert findings == []


class TestSetIterationRule:
    def test_bad_for_over_set(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "samplers/mod.py": """
                def drain(values):
                    out = []
                    for value in set(values):
                        out.append(value)
                    return out
                """
            },
        )
        assert rules_fired(findings) == {"DET002"}

    def test_bad_list_of_set(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"distributed/mod.py": "def f(xs):\n    return list({x for x in xs})\n"},
        )
        assert rules_fired(findings) == {"DET002"}

    def test_good_sorted_set(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"samplers/mod.py": "def f(xs):\n    return sorted(set(xs))\n"},
        )
        assert findings == []

    def test_good_outside_state_layers(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"experiments/mod.py": "def f(xs):\n    return list(set(xs))\n"},
        )
        assert findings == []


class TestOrderDependentPopRule:
    def test_bad_popitem(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"samplers/mod.py": "def f(d):\n    return d.popitem()\n"},
        )
        assert rules_fired(findings) == {"DET003"}

    def test_bad_next_iter(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"service/mod.py": "def f(s):\n    return next(iter(s))\n"},
        )
        assert rules_fired(findings) == {"DET003"}

    def test_good_explicit_choice(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"samplers/mod.py": "def f(d):\n    key = min(d)\n    return d.pop(key)\n"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# Lock discipline
# ----------------------------------------------------------------------
LOCKED_CLASS_BAD = """
    import threading

    class Service:
        def __init__(self):
            self._lock = threading.Lock()
            self._state = None  # guarded-by: _lock

        def update(self, value):
            self._state = value
"""

LOCKED_CLASS_GOOD = """
    import threading

    class Service:
        def __init__(self):
            self._lock = threading.Lock()
            self._state = None  # guarded-by: _lock

        def update(self, value):
            with self._lock:
                self._state = value

        def _swap_locked(self, value):
            self._state = value
"""


class TestLockDisciplineRule:
    def test_bad_unguarded_write(self, tmp_path):
        findings = run_engine(tmp_path, {"mod.py": LOCKED_CLASS_BAD})
        assert rules_fired(findings) == {"LCK001"}
        (finding,) = findings
        assert "Service.update" in finding.message
        assert "_state" in finding.message

    def test_good_guarded_write_and_locked_helper(self, tmp_path):
        findings = run_engine(tmp_path, {"mod.py": LOCKED_CLASS_GOOD})
        assert findings == []

    def test_bad_lock_without_registry(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": """
                import threading

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._state = None
                """
            },
        )
        assert rules_fired(findings) == {"LCK002"}

    def test_bad_augmented_write_outside_lock(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._count = 0  # guarded-by: _lock

                    def bump(self):
                        self._count += 1
                """
            },
        )
        assert rules_fired(findings) == {"LCK001"}

    def test_nested_function_does_not_inherit_lock(self, tmp_path):
        # A closure defined under `with self._lock` runs later on an unknown
        # thread; its guarded writes must be flagged.
        findings = run_engine(
            tmp_path,
            {
                "mod.py": """
                import threading

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._state = None  # guarded-by: _lock

                    def sneaky(self):
                        with self._lock:
                            def later():
                                self._state = 1
                            return later
                """
            },
        )
        assert rules_fired(findings) == {"LCK001"}

    def test_unregistered_attributes_unchecked(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": """
                import threading

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._state = None  # guarded-by: _lock
                        self._metric = 0

                    def observe(self):
                        self._metric += 1
                """
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# Protocol contracts
# ----------------------------------------------------------------------
SAMPLER_TREE = """
    from abc import ABC, abstractmethod

    class StreamSampler(ABC):
        @abstractmethod
        def _process(self, element):
            ...

        @property
        @abstractmethod
        def sample(self):
            ...

        @abstractmethod
        def reset(self):
            ...

        def extend(self, elements, updates=True):
            ...
"""


class TestSamplerExtendRule:
    def test_bad_concrete_subclass_without_extend(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "samplers/base.py": SAMPLER_TREE,
                "samplers/slow.py": """
                from .base import StreamSampler

                class SlowSampler(StreamSampler):
                    def _process(self, element):
                        ...

                    @property
                    def sample(self):
                        return ()

                    def reset(self):
                        ...
                """,
            },
        )
        assert rules_fired(findings) == {"PRO001"}
        (finding,) = findings
        assert "SlowSampler" in finding.message

    def test_good_with_extend(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "samplers/base.py": SAMPLER_TREE,
                "samplers/fast.py": """
                from .base import StreamSampler

                class FastSampler(StreamSampler):
                    def _process(self, element):
                        ...

                    @property
                    def sample(self):
                        return ()

                    def reset(self):
                        ...

                    def extend(self, elements, updates=True):
                        ...
                """,
            },
        )
        assert findings == []

    def test_good_abstract_intermediate_exempt(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "samplers/base.py": SAMPLER_TREE
                + """
    class FixedSizeSampler(StreamSampler):
        def __init__(self, capacity):
            self.capacity = capacity
""",
            },
        )
        assert findings == []

    def test_good_extend_inherited_from_project_base(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "samplers/base.py": SAMPLER_TREE,
                "samplers/mid.py": """
                from .base import StreamSampler

                class Replicated(StreamSampler):
                    def _process(self, element):
                        ...

                    @property
                    def sample(self):
                        return ()

                    def reset(self):
                        ...

                    def extend(self, elements, updates=True):
                        ...

                class Derived(Replicated):
                    pass
                """,
            },
        )
        assert findings == []


ADVERSARY_TREE = """
    from abc import ABC, abstractmethod

    class Adversary(ABC):
        @abstractmethod
        def next_element(self, round_index, observed_sample):
            ...

        def next_elements(self, round_index, count, observed_sample):
            return [self.next_element(round_index, observed_sample)]

    class ObliviousAdversary(Adversary):
        def next_elements(self, round_index, count, observed_sample):
            ...
"""


class TestAdversarySegmentsRule:
    def test_bad_per_round_subclass_of_the_root(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "adversary/base.py": ADVERSARY_TREE,
                "adversary/probe.py": """
                from .base import Adversary

                class PerRoundProbe(Adversary):
                    def next_element(self, round_index, observed_sample):
                        return round_index
                """,
            },
        )
        assert rules_fired(findings) == {"PRO004"}
        (finding,) = findings
        assert "PerRoundProbe" in finding.message

    def test_good_with_next_elements(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "adversary/base.py": ADVERSARY_TREE,
                "adversary/probe.py": """
                from .base import Adversary

                class OneAtATime(Adversary):
                    def next_element(self, round_index, observed_sample):
                        return round_index

                    def next_elements(self, round_index, count, observed_sample):
                        return [round_index]
                """,
            },
        )
        assert findings == []

    def test_good_next_elements_inherited_from_project_base(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "adversary/base.py": ADVERSARY_TREE,
                "adversary/static.py": """
                from .base import ObliviousAdversary

                class Counting(ObliviousAdversary):
                    def next_element(self, round_index, observed_sample):
                        return round_index
                """,
            },
        )
        assert findings == []


class TestCadenceContractRule:
    def test_bad_half_implemented_cadence(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "adversary/mod.py": """
                class Adversary:
                    pass

                class HalfAdversary(Adversary):
                    def __init__(self, decision_period=1):
                        self.decision_period = decision_period

                    def plan_block(self, round_index, count, observed_sample):
                        ...
                """
            },
        )
        assert rules_fired(findings) == {"PRO002"}
        (finding,) = findings
        assert "observe_block" in finding.message

    def test_good_full_protocol(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "adversary/mod.py": """
                class Adversary:
                    pass

                class FullAdversary(Adversary):
                    def __init__(self, decision_period=1):
                        self.decision_period = decision_period

                    def plan_block(self, round_index, count, observed_sample):
                        ...

                    def observe_block(self, updates):
                        ...
                """
            },
        )
        assert findings == []

    def test_good_inherited_protocol(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "adversary/mod.py": """
                class Adversary:
                    pass

                class CadencedAdversary(Adversary):
                    def __init__(self, decision_period=1):
                        self.decision_period = decision_period

                    def plan_block(self, round_index, count, observed_sample):
                        ...

                    def observe_block(self, updates):
                        ...

                class Attack(CadencedAdversary):
                    def __init__(self, decision_period=1):
                        super().__init__(decision_period)
                """
            },
        )
        assert findings == []

    def test_good_non_adversary_carrier_exempt(self, tmp_path):
        # Runners and configs carry the knob without being adversaries.
        findings = run_engine(
            tmp_path,
            {
                "adversary/batch.py": """
                class BatchGameRunner:
                    def __init__(self, decision_period=1):
                        self.decision_period = decision_period
                """
            },
        )
        assert findings == []


class TestScenarioCoverageRule:
    REGISTRY = """
        class Scenario:
            def __init__(self, name, description=""):
                self.name = name

        def register_scenario(scenario):
            return scenario

        register_scenario(Scenario(name="covered_attack"))
        register_scenario(Scenario(name="orphan_attack"))
    """

    def test_bad_unreferenced_scenario(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"scenarios/library.py": self.REGISTRY},
            tests={"test_x.py": "NAME = 'covered_attack'\n"},
        )
        assert rules_fired(findings) == {"PRO003"}
        (finding,) = findings
        assert "orphan_attack" in finding.message

    def test_skipped_without_tests_root(self, tmp_path):
        findings = run_engine(tmp_path, {"scenarios/library.py": self.REGISTRY})
        assert findings == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_valid_noqa_suppresses(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {
                "mod.py": (
                    "import random"
                    "  # repro: noqa[RNG001]: fixture exercising the suppression path\n"
                )
            },
        )
        assert findings == []

    def test_noqa_without_reason_is_a_finding(self, tmp_path):
        findings = run_engine(
            tmp_path, {"mod.py": "import random  # repro: noqa[RNG001]\n"}
        )
        assert rules_fired(findings) == {"RNG001", "NOQ001"}

    def test_blanket_noqa_is_a_finding_and_suppresses_nothing(self, tmp_path):
        findings = run_engine(
            tmp_path, {"mod.py": "import random  # repro: noqa\n"}
        )
        assert rules_fired(findings) == {"RNG001", "NOQ001"}

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"mod.py": "import random  # repro: noqa[DET001]: wrong rule on purpose\n"},
        )
        assert rules_fired(findings) == {"RNG001"}

    def test_directive_in_docstring_is_ignored(self, tmp_path):
        findings = run_engine(
            tmp_path,
            {"mod.py": '"""Docs mention # repro: noqa[RULE] syntax."""\n'},
        )
        assert findings == []

    def test_parse_directives_shapes(self):
        directives = parse_directives(
            "x = 1  # repro: noqa[RNG001, DET002]: two rules, one reason\n"
        )
        (directive,) = directives.values()
        assert directive.rules == {"RNG001", "DET002"}
        assert directive.valid
        assert directive.suppresses("RNG001")
        assert directive.suppresses("DET002")
        assert not directive.suppresses("RNG002")


# ----------------------------------------------------------------------
# Engine mechanics: select/ignore, ordering
# ----------------------------------------------------------------------
class TestSelection:
    FILES: ClassVar[dict[str, str]] = {
        "samplers/mod.py": (
            "import random\nimport time\nstart = time.perf_counter()\n"
        )
    }

    def test_select_family(self, tmp_path):
        findings = run_engine(tmp_path, dict(self.FILES), select=["RNG"])
        assert rules_fired(findings) == {"RNG001"}

    def test_ignore_rule(self, tmp_path):
        findings = run_engine(tmp_path, dict(self.FILES), ignore=["DET001"])
        assert rules_fired(findings) == {"RNG001"}

    def test_findings_sorted(self, tmp_path):
        findings = run_engine(tmp_path, dict(self.FILES))
        assert findings == sorted(
            findings, key=lambda f: (f.file, f.line, f.rule)
        )


# ----------------------------------------------------------------------
# The live tree and the CLI verb
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


class TestLiveTree:
    def test_live_tree_is_clean_under_default_rules(self):
        """The self-hosted invariant: the shipped tree has zero findings."""
        engine = AnalysisEngine(
            PACKAGE_ROOT, DEFAULT_RULES, tests_root=REPO_ROOT / "tests"
        )
        findings = engine.run()
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_analyze_exits_zero_on_live_tree(self, capsys):
        code = main(
            ["analyze", "--root", str(PACKAGE_ROOT), "--tests", str(REPO_ROOT / "tests")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 findings" in out

    def test_cli_analyze_json_on_bad_tree(self, tmp_path, capsys):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "mod.py").write_text("import random\n", encoding="utf-8")
        code = main(["analyze", "--root", str(bad), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["checked_files"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "RNG001"
        assert finding["file"] == "pkg/mod.py"
        assert finding["line"] == 1

    def test_cli_select_and_ignore(self, tmp_path, capsys):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "mod.py").write_text("import random\n", encoding="utf-8")
        assert main(["analyze", "--root", str(bad), "--select", "DET"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--root", str(bad), "--ignore", "RNG001"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--root", str(bad), "--select", "RNG"]) == 1

    def test_cli_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in DEFAULT_RULES:
            assert rule.rule_id in out

    def test_cli_rejects_bad_root(self, capsys):
        assert main(["analyze", "--root", "/definitely/not/a/dir"]) == 2
