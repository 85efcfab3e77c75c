"""RNG-discipline rules.

The paper's adversarial model (Section 2) gives the adversary the sampler's
*state* but never its future coin flips, and the robustness wrappers of
[BJWY20] only deliver their guarantees when replicated copies draw from
genuinely independent streams.  Both properties die quietly when code
reaches for ambient randomness or shares a live ``Generator`` object across
copies — the exact bug class PR 9 shipped (merged ``ReplicatedDefenseSampler``
copies sharing one generator, making post-merge ingestion
chunking-dependent).  These rules pin the project's RNG conventions:
everything flows from seeded :class:`numpy.random.Generator` objects created
through :mod:`repro.rng`, and copies receive spawned or derived children,
never a reference to an existing generator.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from .engine import ClassInfo, Module, ProjectIndex, Rule, dotted_name
from .findings import Finding

__all__ = [
    "RandomModuleRule",
    "GlobalNumpyRngRule",
    "SeedlessGeneratorRule",
    "SharedGeneratorRule",
    "SeedlessProjectClassRule",
    "RNG_RULES",
]

#: ``np.random`` attributes that construct seeded, private streams — the
#: only sanctioned uses of the ``np.random`` namespace.
_CONSTRUCTOR_ATTRS = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "default_rng",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Names importable from ``numpy.random`` (or a submodule such as
#: ``numpy.random.bit_generator``) without touching the legacy global
#: state: the constructors above plus the seed-sequence interfaces.
_IMPORTABLE_NAMES = _CONSTRUCTOR_ATTRS | {"ISeedSequence", "ISpawnableSeedSequence"}

#: Methods in which assigning an existing generator to an attribute means
#: two summaries now share (and advance) one stream.
_COPYING_METHODS = frozenset(
    {"merge", "split", "copy", "clone", "__copy__", "__deepcopy__"}
)


def _is_rng_attr(name: str) -> bool:
    lowered = name.lower()
    return "rng" in lowered or "generator" in lowered


class RandomModuleRule(Rule):
    """RNG001 — the stdlib ``random`` module is banned inside the package."""

    rule_id = "RNG001"
    name = "stdlib-random-module"
    description = (
        "`import random` is banned in repro: the stdlib global RNG is "
        "process-shared, unseedable per component, and invisible to the "
        "substream derivation in repro.rng"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield module.finding(
                            node,
                            self.rule_id,
                            "stdlib `random` is banned; use a seeded "
                            "numpy Generator from repro.rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" or (
                    node.module or ""
                ).startswith("random."):
                    yield module.finding(
                        node,
                        self.rule_id,
                        "stdlib `random` is banned; use a seeded "
                        "numpy Generator from repro.rng",
                    )


class GlobalNumpyRngRule(Rule):
    """RNG002 — the legacy global ``np.random.*`` state is banned.

    Three spellings reach it: attribute access on numpy
    (``np.random.seed``), attribute access on an alias of the
    ``numpy.random`` module (``from numpy import random as npr``, then
    ``npr.rand``), and a name imported from it
    (``from numpy.random import random``).
    """

    rule_id = "RNG002"
    name = "global-numpy-rng"
    description = (
        "legacy `np.random.<fn>` calls draw from one process-global stream, "
        "so seeding is nonlocal and parallel trials collide; only Generator/"
        "SeedSequence/bit-generator constructors may be referenced"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        module_aliases: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                module_aliases.update(
                    alias.asname
                    for alias in node.names
                    if alias.name == "numpy.random" and alias.asname
                )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                source = node.module or ""
                if source == "numpy":
                    module_aliases.update(
                        alias.asname or alias.name
                        for alias in node.names
                        if alias.name == "random"
                    )
                elif source == "numpy.random" or source.startswith("numpy.random."):
                    for alias in node.names:
                        if alias.name not in _IMPORTABLE_NAMES:
                            yield module.finding(
                                node,
                                self.rule_id,
                                f"`from {source} import {alias.name}` reaches the "
                                "process-global legacy RNG; draw from a seeded "
                                "Generator instead",
                            )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
                attr = parts[2]
            elif len(parts) == 2 and parts[0] in module_aliases:
                attr = parts[1]
            else:
                continue
            if attr in _CONSTRUCTOR_ATTRS:
                continue
            yield module.finding(
                node,
                self.rule_id,
                f"`{dotted}` uses the process-global legacy RNG; draw from a "
                "seeded Generator instead",
            )


class SeedlessGeneratorRule(Rule):
    """RNG003 — seedless generator construction outside ``rng.py``."""

    rule_id = "RNG003"
    name = "seedless-default-rng"
    description = (
        "`default_rng()` / `PCG64()` with no seed draws fresh OS entropy, "
        "which no experiment seed can reproduce; only repro.rng's single "
        "conversion point may do that (for explicit `seed=None` requests)"
    )

    _SEEDABLE = frozenset(
        {"default_rng", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        if module.relpath.endswith("/rng.py") or module.relpath == "rng.py":
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            terminal = dotted.rsplit(".", maxsplit=1)[-1]
            if terminal in self._SEEDABLE:
                yield module.finding(
                    node,
                    self.rule_id,
                    f"seedless `{dotted}()` is irreproducible; pass a seed or "
                    "derive a substream via repro.rng",
                )


class SharedGeneratorRule(Rule):
    """RNG004 — generator sharing across copies in merge/split/copy methods.

    The PR 9 bug class: inside a method that produces another summary
    (``merge``/``split``/``copy``), assigning a *pre-existing* generator — a
    parameter, or another object's attribute — to an rng-valued attribute
    makes two summaries advance one stream, so ingesting either perturbs the
    other and chunking changes realised samples.  Copies must receive
    spawned (``spawn_generators``) or derived (``derive_substream``)
    children; those are ``Call`` values and pass the rule.
    """

    rule_id = "RNG004"
    name = "shared-generator-in-copying-method"
    description = (
        "in merge/split/copy methods, an rng-valued attribute assigned from "
        "a parameter or another object's attribute shares one live stream "
        "between summaries (the PR 9 ReplicatedDefenseSampler.merge bug); "
        "assign a spawned/derived child generator instead"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in _COPYING_METHODS
            ):
                yield from self._check_method(module, node)

    def _check_method(
        self, module: Module, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        arguments = method.args
        params = {
            arg.arg
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
            )
        }
        params.discard("self")
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            if value is None:
                continue
            shared = self._shares_existing_generator(value, params)
            if shared is None:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) and _is_rng_attr(target.attr):
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"`{dotted_name(target) or target.attr}` assigned from "
                        f"{shared} in `{method.name}`; merged/split copies must "
                        "receive spawned or derived generators, never a live "
                        "reference",
                    )

    @staticmethod
    def _shares_existing_generator(
        value: ast.expr, params: set[str]
    ) -> str | None:
        """Describe why ``value`` is a pre-existing generator, or ``None``."""
        if isinstance(value, ast.Name) and value.id in params:
            return f"parameter `{value.id}`"
        if isinstance(value, ast.Attribute) and _is_rng_attr(value.attr):
            dotted = dotted_name(value)
            return f"attribute `{dotted or value.attr}`"
        if isinstance(value, ast.IfExp):
            for branch in (value.body, value.orelse):
                shared = SharedGeneratorRule._shares_existing_generator(
                    branch, params
                )
                if shared is not None:
                    return shared
        return None


class SeedlessProjectClassRule(Rule):
    """RNG005 — a project class whose ``__init__`` takes ``seed`` gets ``seed=``.

    Such a class turns a missing seed into fresh OS entropy
    (``ensure_generator(None)``), so whatever the instance draws repeats in
    no run: E9's box system once sampled its candidate boxes that way, and
    its ``mean_box_discrepancy`` differed between two runs at one seed.
    Every call inside the package passes ``seed=`` (a ``**`` mapping or a
    ``*`` sequence may carry it); a call whose instance draws nothing says
    so in a suppression.  The class's ``__init__`` is its own or, failing
    that, the nearest project base's.
    """

    rule_id = "RNG005"
    name = "seedless-project-class"
    description = (
        "a call to a project class whose `__init__` takes `seed` must pass "
        "`seed=`: without it the instance draws from fresh OS entropy, which "
        "no experiment seed reproduces (the E9 box-candidate bug)"
    )

    def check_project(self, project: ProjectIndex) -> Iterable[Finding]:
        seeded = {
            name
            for name, infos in project.classes.items()
            if any(_init_takes_seed(project, info, set()) for info in infos)
        }
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func)
                if dotted is None or dotted.rsplit(".", maxsplit=1)[-1] not in seeded:
                    continue
                if any(keyword.arg in ("seed", None) for keyword in node.keywords):
                    continue
                if any(isinstance(arg, ast.Starred) for arg in node.args):
                    continue
                yield module.finding(
                    node,
                    self.rule_id,
                    f"`{dotted}(...)` is built without `seed=`, so no experiment "
                    "seed reaches it; pass a seed or the caller's generator",
                )


def _init_takes_seed(project: ProjectIndex, info: ClassInfo, seen: set[int]) -> bool:
    """True when the ``__init__`` ``info``'s instances run takes ``seed``."""
    if id(info.node) in seen:
        return False
    seen.add(id(info.node))
    if "__init__" in info.methods:
        return "seed" in info.init_params
    return any(
        _init_takes_seed(project, base, seen)
        for name in info.bases
        for base in project.classes.get(name, [])
    )


RNG_RULES: tuple[Rule, ...] = (
    RandomModuleRule(),
    GlobalNumpyRngRule(),
    SeedlessGeneratorRule(),
    SharedGeneratorRule(),
    SeedlessProjectClassRule(),
)
