"""Protocol-contract rules.

The repo's cross-layer contracts — every concrete sampler ships a
vectorised ``extend`` kernel, every cadence-declaring adversary implements
the block protocol, every registered scenario is exercised by a test —
were docstring conventions until PR 7's chunking bug showed what happens
when one implementation forgets half a protocol.  These rules resolve the
contracts across the whole class table (syntactic MRO over the project's
modules), so an implementation inheriting a method from a project base
class satisfies the contract without ceremony.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from .engine import Module, ProjectIndex, Rule, dotted_name
from .findings import Finding

__all__ = [
    "SamplerExtendRule",
    "CadenceContractRule",
    "ScenarioCoverageRule",
    "PROTOCOL_RULES",
]


class SamplerExtendRule(Rule):
    """PRO001 — every concrete ``StreamSampler`` subclass provides ``extend``.

    The chunked runners call ``extend`` on every sampler; a concrete
    subclass that silently inherits the root's per-element loop drops the
    whole vectorised path for its family.  Abstract intermediates
    (subclasses that do not implement all of the root's abstract methods)
    are exempt.
    """

    rule_id = "PRO001"
    name = "sampler-extend-kernel"
    description = (
        "a concrete StreamSampler subclass must define (or inherit from a "
        "project base below the root) an `extend` kernel; the root's "
        "per-element fallback forfeits chunked execution for the family"
    )

    ROOT = "StreamSampler"
    REQUIRED = "extend"
    #: What a concrete subclass that inherits ``REQUIRED`` from the root costs.
    CONSEQUENCE = "chunked games will fall back to the per-element loop"

    def check_project(self, project: ProjectIndex) -> Iterable[Finding]:
        roots = project.classes.get(self.ROOT, [])
        abstract: set[str] = set()
        for root in roots:
            abstract.update(root.abstract_methods)
        if not abstract:
            return
        for infos in project.classes.values():
            for info in infos:
                if info.name == self.ROOT:
                    continue
                if not project.inherits_from(info, self.ROOT):
                    continue
                defined = project.defined_methods(info, stop_at=self.ROOT)
                if not abstract <= defined:
                    continue  # abstract intermediate (or partial implementation)
                if self.REQUIRED not in defined:
                    yield info.module.finding(
                        info.node,
                        self.rule_id,
                        f"concrete {self.ROOT} subclass `{info.name}` defines no "
                        f"`{self.REQUIRED}` (and inherits none below the root); "
                        f"{self.CONSEQUENCE}",
                    )


class CadenceContractRule(Rule):
    """PRO002 — cadence-declaring adversaries implement the block protocol.

    PR 7's chunking-dependence bug came from the two halves of the cadence
    protocol disagreeing.  Any class whose constructor accepts
    ``decision_period`` claims the protocol, and must provide both
    ``plan_block`` and ``observe_block`` (directly or via a project base).
    """

    rule_id = "PRO002"
    name = "cadence-block-protocol"
    description = (
        "a class accepting `decision_period` in its constructor declares the "
        "decision-cadence protocol and must implement both `plan_block` and "
        "`observe_block`"
    )

    PARAM = "decision_period"
    REQUIRED = ("plan_block", "observe_block")
    ROOT = "Adversary"

    def check_project(self, project: ProjectIndex) -> Iterable[Finding]:
        for infos in project.classes.values():
            for info in infos:
                if self.PARAM not in info.init_params:
                    continue
                # Runners and configs carry the knob too; the block protocol
                # binds only the adversary hierarchy.
                if not (
                    project.inherits_from(info, self.ROOT)
                    or info.name.endswith(self.ROOT)
                ):
                    continue
                defined = project.defined_methods(info)
                missing = [name for name in self.REQUIRED if name not in defined]
                if missing:
                    yield info.module.finding(
                        info.node,
                        self.rule_id,
                        f"`{info.name}` accepts `{self.PARAM}` but does not "
                        f"implement {', '.join(missing)}; half-implemented "
                        "cadence is the PR 7 chunking-dependence bug class",
                    )


class ScenarioCoverageRule(Rule):
    """PRO003 — every registered scenario name is referenced by a test.

    The scenario registry is the repo's public attack surface; a scenario
    nobody's tests name by its string identifier is only covered by
    registry-wide sweeps, which cannot pin its individual behaviour.  A
    name counts as referenced when a test module contains it as an exact
    string literal (scenarios are run by name, ``run_scenario(name)``).
    """

    rule_id = "PRO003"
    name = "scenario-test-coverage"
    description = (
        "every name registered in the scenario registry must appear as a "
        "string literal in at least one test module"
    )

    #: Call targets whose ``name=`` keyword registers a scenario.
    _REGISTRARS = frozenset({"Scenario", "register_scenario"})

    def check_project(self, project: ProjectIndex) -> Iterable[Finding]:
        if not project.test_modules:
            return
        literals = self._test_literals(project)
        for module, node, name in self._registered_names(project):
            if name in literals:
                continue
            yield module.finding(
                node,
                self.rule_id,
                f"registered scenario `{name}` is never referenced from a "
                "test module (no string literal names it)",
            )

    def _registered_names(
        self, project: ProjectIndex
    ) -> Iterator[tuple[Module, ast.AST, str]]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = dotted_name(node.func)
                if func is None:
                    continue
                if func.rsplit(".", maxsplit=1)[-1] not in self._REGISTRARS:
                    continue
                for keyword in node.keywords:
                    if (
                        keyword.arg == "name"
                        and isinstance(keyword.value, ast.Constant)
                        and isinstance(keyword.value.value, str)
                    ):
                        yield module, node, keyword.value.value

    @staticmethod
    def _test_literals(project: ProjectIndex) -> set[str]:
        return {
            node.value
            for module in project.test_modules
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }


PROTOCOL_RULES: tuple[Rule, ...] = (
    SamplerExtendRule(),
    CadenceContractRule(),
    ScenarioCoverageRule(),
)
