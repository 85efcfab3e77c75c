"""The scenario schema at the ``--config`` boundary.

Every leaf of every registered scenario's ``to_dict()`` is replaced in turn
by null, ``True``, ``2.5``, ``"3"`` and ``[1]`` and read back through
``ScenarioConfig.from_dict``.  Each mutation raises ``ConfigurationError``,
or the field's declared type admits the value as given: the config holds
exactly that value, a bool only where the field holds a bool, ``2.5`` only
where it holds a float or a stream element, a string only where it holds a
string, null only where the field's default is null, and a list nowhere.
An accepted config plays one 64-round trial without an exception.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator
from typing import Any

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.scenarios import SCENARIOS, ScenarioConfig, run_config
from repro.scenarios.builders import build_target_range

MUTATIONS = (None, True, 2.5, "3", [1])

#: Fields whose default is null (``strategy`` null means random routing,
#: ``in_element``/``out_element`` null means derived from the target).
NULLABLE = frozenset({
    "benign", "campaign", "checkpoint_ratio", "chunk_size", "decision_period",
    "defense", "faults", "in_element", "out_element", "service", "sharding",
    "strategy", "workers",
})

#: Fields that take any number, a float included, whatever they hold now:
#: a null-default float and the stream elements of a target.
NUMBERS = frozenset({"checkpoint_ratio", "in_element", "out_element"})


def _leaves(value: Any, path: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _leaves(item, (*path, key))
    else:
        yield path, value


def _at(data: Any, path: tuple) -> Any:
    for key in path:
        data = data[key]
    return data


def _with(data: dict, path: tuple, value: Any) -> dict:
    data = copy.deepcopy(data)
    _at(data, path[:-1])[path[-1]] = value
    return data


def _same(first: Any, second: Any) -> bool:
    return type(first) is type(second) and first == second


def _admits(original: Any, mutation: Any, field: Any) -> bool:
    """Whether the field holding ``original`` may take ``mutation`` as given."""
    if mutation is None:
        return field in NULLABLE
    if isinstance(mutation, bool):
        return isinstance(original, bool)
    if isinstance(mutation, float):
        return isinstance(original, float) or field in NUMBERS
    if isinstance(mutation, str):
        return isinstance(original, str)
    return False


def _mutants(name: str) -> Iterator[tuple[tuple, Any, Any, dict]]:
    base = SCENARIOS[name].base_config.to_dict()
    for path, original in _leaves(base):
        for mutation in MUTATIONS:
            if not _same(original, mutation):
                yield path, original, mutation, _with(base, path, mutation)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_leaf_mutation_is_refused_or_kept_as_given(name):
    accepted = []
    for path, original, mutation, data in _mutants(name):
        try:
            config = ScenarioConfig.from_dict(data)
        except ConfigurationError:
            continue
        where = f"{name} {path} = {mutation!r}"
        assert _admits(original, mutation, path[-1]), f"accepted {where}"
        assert _same(_at(config.to_dict(), path), mutation), f"coerced {where}"
        accepted.append((where, config))
    for where, config in accepted:
        try:
            run_config(config.replace(trials=1, stream_length=64, workers=1))
        except Exception as error:  # pragma: no cover - the failure report
            pytest.fail(f"accepted {where} fails to run: {error!r}")


# ----------------------------------------------------------------------
# One field each
# ----------------------------------------------------------------------
class TestSeed:
    @pytest.mark.parametrize("seed", [None, "7", True, 7.5, float("nan")])
    def test_a_seed_is_an_integer(self, seed):
        with pytest.raises(ConfigurationError, match="'seed' must be"):
            ScenarioConfig(name="x", seed=seed)
        with pytest.raises(ConfigurationError, match="'seed' must be"):
            ScenarioConfig(name="x").replace(seed=seed)

    def test_whole_and_numpy_seeds_read_as_int(self):
        for seed in (7.0, np.int64(7)):
            config = ScenarioConfig(name="x", seed=seed)
            assert config.seed == 7 and type(config.seed) is int


class TestTargetPoints:
    @pytest.mark.parametrize(
        "target, point",
        [
            ({"kind": "prefix", "bound": 10, "bound_fraction": 0.5}, "bound"),
            ({"kind": "interval", "low": 1, "low_fraction": 0.1, "high": 9}, "low"),
            ({"kind": "interval", "high": 9, "high_fraction": 0.5}, "high"),
            ({"kind": "singleton", "value": 3, "value_fraction": 0.5}, "value"),
        ],
    )
    def test_a_point_given_both_ways_is_refused(self, target, point):
        message = f"sets both '{point}' and '{point}_fraction'; pick one"
        with pytest.raises(ConfigurationError, match=message):
            build_target_range(target, 32)
        adversary = {"family": "greedy_density", "target": target}
        with pytest.raises(ConfigurationError, match=message):
            ScenarioConfig(name="x", universe_size=32, adversary=adversary)

    def test_a_point_given_one_way_resolves(self):
        assert build_target_range({"kind": "prefix", "bound_fraction": 0.5}, 32).bound == 16
        assert build_target_range({"kind": "prefix", "bound": 10}, 32).bound == 10

    def test_a_missing_point_is_named(self):
        with pytest.raises(ConfigurationError, match="needs either 'bound' or 'bound_fraction'"):
            build_target_range({"kind": "prefix"}, 32)


class TestBlocks:
    """Each block refuses what it used to coerce or ignore."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"continuous": 1}, "'continuous' must be true or false, got 1"),
            ({"trials": 1.5}, "'trials' must be an integer, got 1.5"),
            ({"stream_length": "64"}, "'stream_length' must be a number, got '64'"),
            ({"epsilon": True}, "'epsilon' must be a number, got True"),
            ({"samplers": {"r": {"family": "reservoir", "capacity": 12.9}}},
             "samplers['r'] 'capacity' must be an integer, got 12.9"),
            ({"samplers": {"b": {"family": "bernoulli", "probability": "0.1"}}},
             "samplers['b'] 'probability' must be a number, got '0.1'"),
            ({"adversary": {"family": "zipf", "typo_exponent": 2}},
             "unknown fields in adversary: typo_exponent"),
            ({"adversary": {"family": "greedy_density",
                            "target": {"kind": "prefix", "bound": 8, "extra": 1}}},
             "unknown fields in adversary target: extra"),
            ({"benign": {"kind": "uniform_int", "mean": 3}}, "unknown fields in benign: mean"),
            ({"sharding": {"sites": 2.5}}, "sharding 'sites' must be an integer, got 2.5"),
            ({"sharding": {"sites": 2, "strategy": {"kind": "skewed", "hot_fraction": True}}},
             "skewed sharding 'hot_fraction' must be a number, got True"),
            ({"service": {"clients": True}}, "service 'clients' must be a number, got True"),
            ({"defense": {"kind": "sketch_switching", "copies": 2.5}},
             "defense 'copies' must be an integer, got 2.5"),
            ({"defense": {"kind": "sketch_switching", "matched_space": "yes"}},
             "defense 'matched_space' must be true or false, got 'yes'"),
        ],
    )
    def test_field_errors_surface_at_configuration_time(self, fields, message):
        with pytest.raises(ConfigurationError) as error:
            ScenarioConfig(name="x", **fields)
        assert str(error.value) == message

    def test_bounds_name_the_field_and_its_block(self):
        with pytest.raises(ConfigurationError) as error:
            ScenarioConfig(name="x", samplers={"r": {"family": "reservoir", "capacity": 0}})
        assert str(error.value) == "capacity must be >= 1, got 0 in samplers['r']"

    def test_a_faulted_reshard_strategy_is_read_at_configuration_time(self):
        faults = {"reshards": [{"round": 5, "op": "split", "site": 0,
                                "strategy": {"kind": "skewed", "hot_site": 1.5}}]}
        with pytest.raises(ConfigurationError, match="'hot_site' must be an integer, got 1.5"):
            ScenarioConfig(name="x", sharding={"sites": 2}, faults=faults)

    def test_stored_blocks_keep_their_types(self):
        config = ScenarioConfig(
            name="x",
            adversary={"family": "greedy_density", "target": {"kind": "interval", "low": 1,
                                                               "high_fraction": 0.5}},
            defense={"kind": "oversample", "factor": 4},
            sharding={"sites": 2.0},
            service={"clients": 2},
        )
        assert config.adversary["target"] == {"kind": "interval", "low": 1, "high_fraction": 0.5}
        assert config.defense == {"kind": "oversample", "factor": 4.0}
        assert type(config.defense["factor"]) is float
        assert config.sharding == {"sites": 2} and type(config.sharding["sites"]) is int
        assert config.service == {"staleness_rounds": 0, "clients": 2, "query_period": 32}


class TestCrossFields:
    """Rules spanning two fields fail at ``from_dict``, not when a worker
    builds the sampler or the adversary."""

    def test_a_window_below_its_capacity_is_refused(self):
        samplers = {"w": {"family": "sliding_window", "capacity": 16, "window": 8}}
        with pytest.raises(ConfigurationError) as error:
            ScenarioConfig.from_dict({"name": "x", "samplers": samplers})
        assert str(error.value) == "window (8) must be at least the capacity (16) in samplers['w']"
        samplers["w"]["window"] = 16
        assert ScenarioConfig.from_dict({"name": "x", "samplers": samplers}).samplers == samplers

    def test_oversampling_a_window_past_its_window_is_refused(self):
        data = {
            "name": "x",
            "samplers": {"w": {"family": "sliding_window", "capacity": 16, "window": 32}},
            "defense": {"kind": "oversample", "factor": 4},
        }
        with pytest.raises(ConfigurationError) as error:
            ScenarioConfig.from_dict(data)
        assert str(error.value) == (
            "window (32) must be at least the capacity (64: the oversample defense "
            "scales 16 by 4.0) in samplers['w']"
        )
        data["defense"]["factor"] = 2
        ScenarioConfig.from_dict(data)

    def test_an_inherited_universe_meets_the_family_minimum(self):
        data = {"name": "x", "universe_size": 2, "adversary": {"family": "median_attack"}}
        with pytest.raises(ConfigurationError) as error:
            ScenarioConfig.from_dict(data)
        assert str(error.value) == (
            "universe size must be >= 3, got 2 in adversary (the scenario's universe_size)"
        )
        members = [
            {"adversary": {"family": "uniform"}},
            {"start": 0.5, "adversary": {"family": "median_attack"}},
        ]
        with pytest.raises(ConfigurationError, match="in campaign member #1 adversary"):
            ScenarioConfig.from_dict({"name": "x", "universe_size": 2, "campaign": {"members": members}})
        # A family given its own universe does not inherit the scenario's.
        data["adversary"]["universe_size"] = 3
        run_config(ScenarioConfig.from_dict(data).replace(trials=1, stream_length=32))
