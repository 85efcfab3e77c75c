"""Tests for multi-adversary campaigns (CampaignAdversary and the config layer).

The pins, in the order the scenario engine relies on them:

* **schedule arithmetic** — phase fractions resolve to 1-based rounds with
  loud errors when a stream is too short for the requested cuts;
* **segmentation** — a served segment never straddles an ownership boundary
  (phase starts, interleaved slot edges), so chunked runners stay correct;
* **local round indices** — every member sees its own contiguous stream
  ``1, 2, 3, ...`` in both element requests and forwarded update records
  (columnar batches included), whatever order rounds are asked in;
* **composition is conservative** — a single-member campaign plays exactly
  like the bare member, end to end through ``run_config``;
* **config validation** — the ``campaign`` block is checked at construction
  time (mutual exclusion with ``adversary``, per-mode member fields), and a
  spec-level ``decision_period`` on an oblivious member names the offending
  member and the valid cadenced families.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import CampaignAdversary, phase_start_rounds
from repro.adversary.base import Adversary, CadencedAdversary
from repro.adversary.game import run_adaptive_game
from repro.exceptions import ConfigurationError
from repro.samplers.base import SampleUpdate, UpdateBatch
from repro.samplers.reservoir import ReservoirSampler
from repro.scenarios import ScenarioConfig, run_config
from repro.scenarios.builders import CADENCED_ADVERSARY_FAMILIES


class RecordingMember(Adversary):
    """Scripted member: echoes its tag, records every request and update."""

    uses_observed_sample = False

    def __init__(self, tag: str) -> None:
        self.name = tag
        self.tag = tag
        #: (local_round, count) per next_elements call.
        self.requests: list[tuple[int, int]] = []
        #: Local round indices of every forwarded update record.
        self.update_rounds: list[int] = []
        #: Lengths of forwarded columnar batches.
        self.batch_sizes: list[int] = []

    def next_element(self, round_index, observed_sample):
        self.requests.append((round_index, 1))
        return self.tag

    def next_elements(self, round_index, count, observed_sample):
        self.requests.append((round_index, count))
        return [self.tag] * count

    def observe_update(self, update: SampleUpdate) -> None:
        self.update_rounds.append(update.round_index)

    def observe_update_batch(self, updates) -> None:
        if isinstance(updates, UpdateBatch):
            self.batch_sizes.append(len(updates))
            self.update_rounds.extend(int(r) for r in updates.round_indices)
        else:
            for update in updates:
                self.observe_update(update)

    def reset(self) -> None:
        self.requests.clear()
        self.update_rounds.clear()
        self.batch_sizes.clear()


def _drain(campaign: CampaignAdversary, stream_length: int, ask: int) -> list:
    """Play the whole stream requesting segments of up to ``ask`` rounds."""
    elements = []
    round_index = 1
    while round_index <= stream_length:
        want = min(ask, stream_length - round_index + 1)
        segment = campaign.next_elements(round_index, want, None)
        assert segment, "a segment must contain at least one element"
        elements.extend(segment)
        round_index += len(segment)
    return elements


def _batch(first_round: int, elements: list) -> UpdateBatch:
    rounds = np.arange(first_round, first_round + len(elements), dtype=np.int64)
    return UpdateBatch(rounds, list(elements), np.ones(len(elements), dtype=bool), {})


class TestPhaseStartRounds:
    def test_fractions_resolve_to_one_based_rounds(self):
        assert phase_start_rounds([0.0, 0.5], 100) == (1, 51)
        assert phase_start_rounds([0.0, 0.25, 0.75], 200) == (1, 51, 151)

    def test_first_phase_must_start_at_zero(self):
        with pytest.raises(ConfigurationError, match="fraction 0.0"):
            phase_start_rounds([0.1, 0.5], 100)

    def test_collapsing_starts_name_the_stream_length(self):
        with pytest.raises(ConfigurationError, match="collapse at stream length 10"):
            phase_start_rounds([0.0, 0.51, 0.52], 10)

    def test_start_beyond_the_stream_is_rejected(self):
        with pytest.raises(ConfigurationError, match="beyond the stream"):
            phase_start_rounds([0.0, 1.0], 100)


class TestPhasedSchedule:
    def test_segments_stop_at_phase_boundaries(self):
        first, second = RecordingMember("a"), RecordingMember("b")
        campaign = CampaignAdversary([first, second], phase_starts=[1, 11])
        stream = _drain(campaign, 25, ask=7)
        assert stream == ["a"] * 10 + ["b"] * 15
        # Requests 7+3 in phase one (capped at the boundary), then 7+7+1.
        assert first.requests == [(1, 7), (8, 3)]
        assert second.requests == [(1, 7), (8, 7), (15, 1)]

    def test_update_batches_are_split_and_translated(self):
        first, second = RecordingMember("a"), RecordingMember("b")
        campaign = CampaignAdversary([first, second], phase_starts=[1, 11])
        # One columnar batch spanning the boundary: global rounds 8..14.
        campaign.observe_update_batch(_batch(8, list("xxxxxxx")))
        assert first.update_rounds == [8, 9, 10]
        assert second.update_rounds == [1, 2, 3, 4]
        assert first.batch_sizes == [3] and second.batch_sizes == [4]

    def test_scalar_updates_are_translated(self):
        first, second = RecordingMember("a"), RecordingMember("b")
        campaign = CampaignAdversary([first, second], phase_starts=[1, 11])
        campaign.observe_update(
            SampleUpdate(round_index=12, element="x", accepted=True)
        )
        assert second.update_rounds == [2]
        assert first.update_rounds == []

    def test_update_driven_member_past_the_first_phase_sees_shifted_records(self):
        """Played at period 1, every update a later member receives is the
        sampler's own record with the round shifted to the member's clock."""

        class PerRoundRecorder(RecordingMember):
            def __init__(self, tag: str) -> None:
                super().__init__(tag)
                self.updates: list[SampleUpdate] = []

            def next_elements(self, round_index, count, observed_sample):
                self.requests.append((round_index, 1))
                return [f"{self.tag}{round_index}"]

            def observe_update(self, update: SampleUpdate) -> None:
                self.updates.append(update)

        first, second = PerRoundRecorder("a"), PerRoundRecorder("b")
        campaign = CampaignAdversary([first, second], phase_starts=[1, 11])
        result = run_adaptive_game(ReservoirSampler(4, seed=3), campaign, 30)
        originals = list(result.updates)
        assert first.updates == originals[:10]
        assert second.updates == [
            SampleUpdate(update.round_index - 10, update.element, update.accepted, update.evicted)
            for update in originals[10:]
        ]
        assert any(update.evicted is not None for update in second.updates)

    def test_observes_updates_ors_the_owning_members(self):
        class Deaf(RecordingMember):
            def observes_updates(self, first_round, last_round):
                return False

        deaf, listening = Deaf("deaf"), RecordingMember("ears")
        campaign = CampaignAdversary([deaf, listening], phase_starts=[1, 11])
        assert campaign.observes_updates(1, 5) is False
        assert campaign.observes_updates(1, 20) is True
        assert campaign.observes_updates(12, 20) is True


class TestInterleavedSchedule:
    def test_slots_round_robin_between_members(self):
        first, second = RecordingMember("a"), RecordingMember("b")
        campaign = CampaignAdversary(
            [first, second], mode="interleaved", stride=4
        )
        stream = _drain(campaign, 16, ask=16)
        assert stream == ["a"] * 4 + ["b"] * 4 + ["a"] * 4 + ["b"] * 4

    def test_members_see_contiguous_local_rounds(self):
        first, second = RecordingMember("a"), RecordingMember("b")
        campaign = CampaignAdversary(
            [first, second], mode="interleaved", stride=3
        )
        _drain(campaign, 18, ask=18)
        # Each member owns 3-round slots and sees local rounds 1..9.
        assert first.requests == [(1, 3), (4, 3), (7, 3)]
        assert second.requests == [(1, 3), (4, 3), (7, 3)]
        campaign.observe_update_batch(_batch(1, list("uvwxyz")))
        assert first.update_rounds == [1, 2, 3]
        assert second.update_rounds == [1, 2, 3]

    def test_stride_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="stride"):
            CampaignAdversary(
                [RecordingMember("a")], mode="interleaved", stride=0
            )

    def test_phase_starts_are_rejected_in_interleaved_mode(self):
        with pytest.raises(ConfigurationError, match="stride, not phase starts"):
            CampaignAdversary(
                [RecordingMember("a")], mode="interleaved", phase_starts=[1]
            )


class Listener(RecordingMember):
    """Recording member with a fixed answer to ``observes_updates``."""

    def __init__(self, tag: str, listens: bool) -> None:
        super().__init__(tag)
        self.listens = listens

    def observes_updates(self, first_round, last_round):
        return self.listens


#: Three-member schedules with runs of unequal length.
SCHEDULES = {
    "phased": dict(mode="phased", phase_starts=[1, 9, 30]),
    "interleaved": dict(mode="interleaved", stride=5),
}


def _owner_map(schedule: dict, rounds: int) -> tuple[dict, dict]:
    """Brute force: the owner and member-local round of every global round."""
    owner, local, played = {}, {}, [0, 0, 0]
    for r in range(1, rounds + 1):
        if schedule["mode"] == "phased":
            m = max(i for i, start in enumerate(schedule["phase_starts"]) if start <= r)
        else:
            m = ((r - 1) // schedule["stride"]) % 3
        played[m] += 1
        owner[r], local[r] = m, played[m]
    return owner, local


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
class TestRoutingDependsOnlyOnTheRound:
    """Requests, updates and listening queries at random rounds, out of
    order and across resets, route exactly as a brute-force owner map
    says: the campaign's run lookup may cache, but never remember."""

    N, MAX_ASK = 80, 12

    def test_requests_and_updates(self, schedule):
        members = [RecordingMember(tag) for tag in "abc"]
        campaign = CampaignAdversary(members, **SCHEDULES[schedule])
        owner, local = _owner_map(SCHEDULES[schedule], self.N + self.MAX_ASK)
        rng = np.random.default_rng(7)
        for step in range(400):
            if step % 97 == 96:
                campaign.reset()
            r = int(rng.integers(1, self.N + 1))
            count = int(rng.integers(1, self.MAX_ASK + 1))
            m = owner[r]
            cap = 1
            while cap < count and owner[r + cap] == m:
                cap += 1
            before = [len(member.requests) for member in members]
            assert campaign.next_elements(r, count, None) == ["abc"[m]] * cap
            assert [len(member.requests) for member in members] == [
                n + (i == m) for i, n in enumerate(before)
            ]
            assert members[m].requests[-1] == (local[r], cap)
            u = int(rng.integers(1, self.N + 1))
            campaign.observe_update(SampleUpdate(round_index=u, element="x", accepted=True))
            assert members[owner[u]].update_rounds[-1] == local[u]

    @pytest.mark.parametrize("listening", [0, 1, 2])
    def test_observes_updates_across_runs(self, schedule, listening):
        members = [Listener(tag, i == listening) for i, tag in enumerate("abc")]
        campaign = CampaignAdversary(members, **SCHEDULES[schedule])
        owner, _ = _owner_map(SCHEDULES[schedule], self.N + 40)
        rng = np.random.default_rng(listening)
        for step in range(300):
            if step % 61 == 60:
                campaign.reset()
            first = int(rng.integers(1, self.N + 1))
            last = first + int(rng.integers(0, 40))
            expected = any(owner[r] == listening for r in range(first, last + 1))
            assert campaign.observes_updates(first, last) is expected
            # Move the cached run somewhere else before the next query.
            campaign.next_elements(int(rng.integers(1, self.N + 1)), 1, None)


class TestConstruction:
    def test_needs_members(self):
        with pytest.raises(ConfigurationError, match="at least one member"):
            CampaignAdversary([], phase_starts=[])

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="unknown campaign mode"):
            CampaignAdversary([RecordingMember("a")], mode="overlapped")

    def test_phased_needs_one_start_per_member(self):
        with pytest.raises(ConfigurationError, match="one phase start per member"):
            CampaignAdversary(
                [RecordingMember("a"), RecordingMember("b")], phase_starts=[1]
            )

    def test_member_overshoot_is_rejected(self):
        class Greedy(RecordingMember):
            def next_elements(self, round_index, count, observed_sample):
                return [self.tag] * (count + 1)

        campaign = CampaignAdversary([Greedy("g")], phase_starts=[1])
        with pytest.raises(ConfigurationError, match="returned 4 elements"):
            campaign.next_elements(1, 3, None)

    def test_reset_replays_identically(self):
        first, second = RecordingMember("a"), RecordingMember("b")
        campaign = CampaignAdversary([first, second], phase_starts=[1, 6])
        before = _drain(campaign, 12, ask=5)
        campaign.reset()
        assert first.requests == [] and second.update_rounds == []
        assert _drain(campaign, 12, ask=5) == before

    def test_decision_period_forwards_to_cadenced_members(self):
        class Cadenced(CadencedAdversary):
            decision_needs = "none"

            def plan_block(self, round_index, block_length, observed_sample):
                return [0] * block_length

            def observe_block(self, updates):
                return None

        cadenced = Cadenced(decision_period=2)
        oblivious = RecordingMember("noise")
        campaign = CampaignAdversary(
            [oblivious, cadenced], mode="interleaved", stride=4
        )
        assert campaign.set_decision_period(8) is True
        assert cadenced.decision_period == 8
        only_oblivious = CampaignAdversary([RecordingMember("n")], phase_starts=[1])
        assert only_oblivious.set_decision_period(8) is False


#: A tiny campaign config the validation tests mutate.
def _config(**overrides):
    base = dict(
        name="campaign_test",
        stream_length=96,
        universe_size=32,
        trials=1,
        campaign={
            "mode": "phased",
            "members": [
                {"label": "spam", "adversary": {"family": "zipf"}},
                {
                    "label": "poison",
                    "start": 0.5,
                    "adversary": {
                        "family": "greedy_density",
                        "target": {"kind": "prefix", "bound_fraction": 0.5},
                    },
                },
            ],
        },
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_valid_campaign_builds_and_labels(self):
        config = _config()
        assert config.adversary_label == "campaign:zipf+greedy_density"

    def test_campaign_excludes_an_explicit_adversary(self):
        with pytest.raises(ConfigurationError, match="cannot set both"):
            _config(adversary={"family": "zipf"})

    def test_campaign_allows_the_default_adversary_spec(self):
        # The config default ({"family": "uniform"}) is not an "explicit"
        # adversary; a campaign config leaves it untouched and unused.
        config = _config(adversary={"family": "uniform"})
        assert config.campaign is not None

    def test_later_phased_members_need_an_explicit_start(self):
        campaign = {
            "mode": "phased",
            "members": [
                {"adversary": {"family": "zipf"}},
                {"adversary": {"family": "uniform"}},
            ],
        }
        with pytest.raises(ConfigurationError, match="member #1 needs a 'start'"):
            _config(campaign=campaign)

    def test_interleaved_members_must_not_carry_starts(self):
        campaign = {
            "mode": "interleaved",
            "members": [
                {"adversary": {"family": "zipf"}, "start": 0.5},
                {"adversary": {"family": "uniform"}},
            ],
        }
        with pytest.raises(ConfigurationError, match="start"):
            _config(campaign=campaign)

    def test_collapsing_starts_fail_at_config_time(self):
        with pytest.raises(ConfigurationError, match="collapse"):
            _config(
                stream_length=10,
                campaign={
                    "mode": "phased",
                    "members": [
                        {"adversary": {"family": "zipf"}},
                        {"start": 0.51, "adversary": {"family": "uniform"}},
                        {"start": 0.52, "adversary": {"family": "uniform"}},
                    ],
                },
            )

    def test_oblivious_member_with_spec_cadence_names_the_member(self):
        config = _config(
            campaign={
                "mode": "phased",
                "members": [
                    {
                        "label": "noise",
                        "adversary": {"family": "uniform", "decision_period": 4},
                    },
                    {"start": 0.5, "adversary": {"family": "zipf"}},
                ],
            }
        )
        with pytest.raises(ConfigurationError) as excinfo:
            run_config(config)
        message = str(excinfo.value)
        assert "campaign member #0 (noise)" in message
        assert "'uniform'" in message
        for family in CADENCED_ADVERSARY_FAMILIES:
            assert family in message

    def test_solo_oblivious_spec_cadence_still_errors_without_context(self):
        config = ScenarioConfig(
            name="solo",
            stream_length=64,
            universe_size=32,
            trials=1,
            adversary={"family": "zipf", "decision_period": 4},
        )
        with pytest.raises(ConfigurationError) as excinfo:
            run_config(config)
        message = str(excinfo.value)
        assert "campaign member" not in message
        assert "'zipf'" in message


class TestEndToEnd:
    def test_single_member_campaign_matches_the_bare_adversary(self):
        """Bit-level game equivalence: a one-member campaign is transparent
        (local indices equal global, no boundary ever caps a segment)."""
        from repro.adversary import run_adaptive_game
        from repro.rng import ensure_generator
        from repro.samplers import BernoulliSampler
        from repro.scenarios.builders import build_adversary, build_campaign_adversary

        spec = {
            "family": "greedy_density",
            "target": {"kind": "prefix", "bound_fraction": 0.5},
        }
        bare = build_adversary(dict(spec), ensure_generator(5), 200, 64)
        wrapped = build_campaign_adversary(
            {"mode": "phased", "members": [{"adversary": dict(spec)}]},
            ensure_generator(5),
            200,
            64,
        )
        one = run_adaptive_game(BernoulliSampler(0.2, seed=7), bare, 200)
        two = run_adaptive_game(BernoulliSampler(0.2, seed=7), wrapped, 200)
        assert one.stream == two.stream
        assert one.sample == two.sample

    def test_campaign_scenario_runs_and_labels_cells(self):
        shared = dict(
            name="equiv", stream_length=128, universe_size=32, trials=2, seed=9
        )
        wrapped = run_config(
            ScenarioConfig(
                campaign={
                    "mode": "phased",
                    "members": [
                        {"adversary": {"family": "zipf", "exponent": 1.4}}
                    ],
                },
                **shared,
            )
        )
        (cell,) = wrapped.cells
        assert cell["adversary"] == "campaign:zipf"
        assert wrapped.peak_discrepancy is not None

    def test_registered_campaign_scenarios_expose_roster_labels(self):
        from repro.scenarios import SCENARIOS

        assert SCENARIOS["spam_then_poison"].base_config.adversary_label == (
            "campaign:zipf+greedy_density"
        )
        assert SCENARIOS["colluding_split_budget"].base_config.campaign["mode"] == (
            "interleaved"
        )
