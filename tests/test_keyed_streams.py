"""``StreamBank`` — N named PCG64 streams as columns — held to the per-name
``Generator`` it stands in for, and the lossy channel that draws from it
held to the per-name oracle (``ReferenceTransportChannel``).

The draw convention under test is the one written in
``repro.simkernel.random``: a draw depends on ``(seed, name, draw index)``
only — not on batch boundaries, seeding order, or which other names exist.
"""

import math

import numpy as np
import pytest
from helpers import CallbackSink
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.cloud_reference import ReferenceTracer, ReferenceTransportChannel
from reference.tier_reference import materialize

from repro.cloud import ChannelModel, ChannelWindow, TransportChannel
from repro.deviceflow import MessageBlock
from repro.observability.tracing import Tracer
from repro.scenarios import ScenarioRunner, ScenarioSpec, TransportSpec, build_scenario
from repro.scenarios.__main__ import main as scenarios_main
from repro.simkernel import RandomStreams, Simulator
from repro.simkernel.random import NormalReader

SEEDS = st.sampled_from([0, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**64, 2**100 + 3]) | st.integers(0, 2**130)
NAMES = st.lists(st.text(max_size=12), min_size=1, max_size=40, unique=True)


def state_of(bank, key):
    cursor = bank.stream(key)
    return cursor._state[cursor._row], cursor._inc[cursor._row]


def doubles(bank, key, n):
    cursor = bank.stream(key)
    return [cursor.random() for _ in range(n)]


# ----------------------------------------------------------------------
# (i) a bank row is the named Generator, bit for bit
# ----------------------------------------------------------------------
class TestBankEqualsNamedGenerator:
    @given(seed=SEEDS, names=NAMES, prefix=st.sampled_from(["", "transport.t.", "ü."]))
    @settings(max_examples=60, deadline=None)
    def test_state_and_first_doubles_equal_fresh(self, seed, names, prefix):
        streams = RandomStreams(seed)
        bank = streams.bank(prefix)
        bank.seed(names)
        assert len(bank._rows) == len(names)
        for name in names:
            generator = streams.fresh(prefix + name)
            state = generator.bit_generator.state["state"]
            assert state_of(bank, name) == (state["state"], state["inc"])
            assert doubles(bank, name, 64) == generator.random(64).tolist()

    @pytest.mark.parametrize("name", ["", "a", "transport.t.d-000001", "naïve", "设备-7"])
    def test_fresh_is_the_seed_sequence_of_seed_and_four_sha_words(self, name):
        # What ``fresh`` has always been: SeedSequence((seed, *stable_hash(name))).
        from repro.simkernel import stable_hash

        for seed in (0, 7, 2**32, 2**100 + 3):
            want = np.random.default_rng(np.random.SeedSequence((seed, *stable_hash(name))))
            assert RandomStreams(seed).fresh(name).bit_generator.state == want.bit_generator.state

    def test_a_cursor_continues_where_the_last_one_stopped(self):
        streams = RandomStreams(5)
        bank = streams.bank("x.")
        bank.seed(["a", "b"])
        first, rest = doubles(bank, "a", 3), doubles(bank, "a", 5)
        assert first + rest == streams.fresh("x.a").random(8).tolist()
        assert doubles(bank, "b", 2) == streams.fresh("x.b").random(2).tolist()


# ----------------------------------------------------------------------
# (ii) batches are invisible
# ----------------------------------------------------------------------
class TestNormalReader:
    """Block-drawn normals are the scalar draws, across block boundaries.

    NumPy computes a scalar ``normal(loc, scale)`` as ``loc + scale * z``
    with two roundings; on a build that fused it into one FMA the reader's
    Python-float ``loc + scale * z`` would differ in the last bit, and this
    test would say so.
    """

    PARAMS = st.tuples(
        st.sampled_from([0.0, 3.0, -2.5, 1e6, 6.02e23]) | st.floats(-1e9, 1e9),
        st.sampled_from([0.0, 1.0, 0.05, 500.0]) | st.floats(0.0, 1e6),
    )

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, name=st.text(max_size=12), params=st.lists(PARAMS, min_size=1, max_size=8))
    def test_reader_returns_successive_generator_normals(self, seed, name, params):
        streams = RandomStreams(seed)
        reader, scalar = NormalReader(streams.fresh(name)), streams.fresh(name)
        n_draws = 3 * NormalReader.BLOCK + 5  # three block boundaries and then some
        for i in range(n_draws):
            loc, scale = params[i % len(params)]
            got, want = reader.normal(loc, scale), scalar.normal(loc, scale)
            assert type(got) is float and got.hex() == want.hex()

    def test_zero_scale_and_zero_loc(self):
        reader, scalar = NormalReader(np.random.default_rng(5)), np.random.default_rng(5)
        for _ in range(2 * NormalReader.BLOCK + 1):
            assert reader.normal(4.0, 0.0) == scalar.normal(4.0, 0.0) == 4.0
            assert reader.normal(0.0, 2.0).hex() == scalar.normal(0.0, 2.0).hex()


class TestSeedingIsOrderFree:
    @given(seed=SEEDS, names=NAMES, split=st.integers(0, 40), extra=NAMES)
    @settings(max_examples=40, deadline=None)
    def test_one_batch_two_batches_or_one_at_a_time(self, seed, names, split, extra):
        streams = RandomStreams(seed)
        whole, halves, singles, crowded = (streams.bank("p.") for _ in range(4))
        whole.seed(names)
        halves.seed(names[split:])
        halves.seed(names[:split])
        for name in reversed(names):
            singles.seed([name])
        crowded.seed(extra)  # other names first, and re-announcing seeded ones is a no-op
        crowded.seed(names + extra)
        for bank in (halves, singles, crowded):
            for name in names:
                assert state_of(bank, name) == state_of(whole, name)
        assert len(whole._rows) == len(halves._rows) == len(singles._rows) == len(names)

    def test_reseeding_does_not_rewind_a_stream(self):
        bank = RandomStreams(1).bank("p.")
        bank.seed(["a"])
        drawn = doubles(bank, "a", 4)
        bank.seed(["a", "b", "a"])
        assert len(bank._rows) == 2
        assert drawn + doubles(bank, "a", 4) == RandomStreams(1).fresh("p.a").random(8).tolist()

    def test_an_unseeded_key_is_a_key_error(self):
        bank = RandomStreams(0).bank("p.")
        with pytest.raises(KeyError):
            bank.stream("never-seeded")


# ----------------------------------------------------------------------
# (iii) a lossy round: one block == waves == one-row blocks == the oracle
# ----------------------------------------------------------------------
WAVE_TIMES = (2.0, 2.5, 4.0, 7.0)
LOSSY = ChannelModel(
    latency_s=0.4, jitter_s=0.8, loss_prob=0.25, dup_prob=0.3, retry_base_s=0.5, retry_cap_s=2.0, max_attempts=3,
    windows=[
        ChannelWindow(kind="loss", at=2.2, until=3.0, prob=0.5),
        ChannelWindow(kind="loss", at=0.0, until=50.0, prob=0.9, tenant="someone-else"),
        ChannelWindow(kind="outage", at=3.9, until=4.3, tenant="mine"),
        ChannelWindow(kind="duplication", at=6.0, until=9.0, prob=0.6),
        ChannelWindow(kind="loss", at=2.4, until=2.6, prob=0.2, tenant="mine"),
    ],
)


def make_round(wave_sizes):
    n = sum(wave_sizes)
    return MessageBlock(
        task_id="t", round_index=1, device_ids=[f"d{i:02d}" for i in range(n)], grade="High", size_bytes=96,
        n_samples=np.arange(1, n + 1), finished_at=np.repeat(WAVE_TIMES[: len(wave_sizes)], wave_sizes),
    )


def route(parts, seed, deadline, oracle=False, announce=()):
    """Hand ``parts`` (blocks, in order) to a channel at t=0; return fates, deliveries, counters."""
    sim, streams, log = Simulator(), RandomStreams(seed), []
    sink = CallbackSink(lambda outcome: log.append((sim.now, outcome.device_id, outcome.finished_at)))
    if oracle:
        tracer = ReferenceTracer()
        channel = ReferenceTransportChannel(sim, LOSSY, sink, streams, "t", scope="mine", tracer=tracer)
    else:
        tracer = Tracer()
        channel = TransportChannel(sim, LOSSY, sink, streams, scope="mine", tracer=tracer)
        if announce:
            channel.seed("t", announce)
    channel.begin_round(1, deadline=deadline)
    for part in parts:
        if oracle:
            for outcome in materialize(part):
                channel.accept(outcome)
        else:
            channel.accept_block(part)
    sim.run()
    finish = channel.finish_round()
    with pytest.raises(StopIteration) as done:
        next(finish)
    assert not any(name.startswith("transport.") for name in streams._cache) or oracle
    return sorted(tracer.uploads), log, done.value.value.as_dict()


class TestLossyRoundHoweverItIsCut:
    @given(
        wave_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        seed=st.integers(0, 2**34),
        deadline=st.sampled_from([None, 3.5, 6.0, 30.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_block_waves_and_rows_equal_the_per_name_oracle(self, wave_sizes, seed, deadline):
        block = make_round(wave_sizes)
        edges = np.cumsum([0, *wave_sizes]).tolist()
        waves = [block[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
        rows = [block[i : i + 1] for i in range(len(block))]

        whole = route([block], seed, deadline)
        assert route(waves, seed, deadline) == whole
        assert route(rows, seed, deadline) == whole
        # Announcing the plan first (what TaskRunner does), or a superset of it, changes nothing.
        assert route(waves, seed, deadline, announce=block.device_ids) == whole
        assert route(rows, seed, deadline, announce=["zz", *reversed(block.device_ids)]) == whole
        assert route([block], seed, deadline, oracle=True) == whole

        fates, _, counters = whole
        assert counters["uploads"] == len(block) == len(fates)
        assert counters["delivered"] + counters["abandoned"] + counters["late_drops"] == len(block)

    def test_the_round_exercises_every_fate(self):
        """The model above is lossy enough that the differential compares something."""
        totals = {"retries": 0, "duplicates": 0, "abandoned": 0, "late_drops": 0}
        for seed in range(6):
            _, _, counters = route([make_round([6, 6, 6, 6])], seed, 6.0)
            for key in totals:
                totals[key] += counters[key]
        assert all(totals.values()), totals

    def test_scope_windows_are_the_tenants_own_and_the_untenanted_ones_in_model_order(self):
        mine = LOSSY.windows_for("mine")
        assert [w.prob for w in mine.loss] == [0.5, 0.2]
        assert [w.at for w in mine.outage] == [3.9] and [w.at for w in mine.duplication] == [6.0]
        assert LOSSY.windows_for("other").outage == ()
        assert LOSSY.windows_for(mine) is mine
        # Same float whichever spelling of the scope is used (products multiply in window order).
        for time in (2.0, 2.3, 2.5, 2.6, 7.0):
            assert LOSSY.loss_prob_at(time, "mine") == LOSSY.loss_prob_at(time, mine)
            assert LOSSY.dup_prob_at(time, "mine") == LOSSY.dup_prob_at(time, mine)
        assert LOSSY.loss_prob_at(2.5, "mine") == 1.0 - (1.0 - 0.25) * (1.0 - 0.5) * (1.0 - 0.2)
        assert LOSSY.in_outage(4.0, "mine") and not LOSSY.in_outage(4.0, "other")


# ----------------------------------------------------------------------
# (iv) tripwire: the platform builds no per-device transport Generator
# ----------------------------------------------------------------------
class TestNoPerDeviceGenerator:
    def test_lossy_uplink_leaves_no_transport_stream_in_the_cache(self, monkeypatch):
        created, blocks = [], []
        fresh, accept_block = RandomStreams.fresh, TransportChannel.accept_block
        monkeypatch.setattr(RandomStreams, "fresh", lambda self, name: created.append(name) or fresh(self, name))
        monkeypatch.setattr(
            TransportChannel, "accept_block", lambda self, block: blocks.append(len(block)) or accept_block(self, block)
        )
        runner = ScenarioRunner(build_scenario("lossy_uplink", scale=400, seed=1))
        report = runner.run()
        uploads = sum(blocks)
        assert uploads > 300 and report.tenants["uplink"].transport_retries > 0  # the channel did run
        cache = runner.platform.streams._cache
        assert cache and not [name for name in cache if name.startswith("transport.")]
        assert not [name for name in created if name.startswith("transport.")]


# ----------------------------------------------------------------------
# rejected values name their field
# ----------------------------------------------------------------------
class TestRejectedValues:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None, np.float64(2.0)])
    def test_random_streams_rejects_anything_but_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            RandomStreams(seed)

    def test_integer_like_seeds_are_accepted_as_ints(self):
        streams = RandomStreams(np.int64(7))
        assert streams.seed == 7 and type(streams.seed) is int
        assert streams.fresh("a").random() == RandomStreams(7).fresh("a").random()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_scenario_spec_rejects_a_bad_seed_at_construction(self, seed):
        data = build_scenario("lossy_uplink", scale=120).to_dict()
        data["seed"] = seed
        # A file's bool or string is refused as not a number before any range is read.
        with pytest.raises(ValueError, match=r"^seed must be (an integer >= 0|a number), got "):
            ScenarioSpec.from_dict(data)
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            build_scenario("lossy_uplink", scale=120, seed=seed)

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_cli_turns_a_bad_seed_into_a_usage_error(self, seed, capsys):
        with pytest.raises(SystemExit) as exit_:
            scenarios_main(["run", "lossy_uplink", "--scale", "120", "--seed", seed])
        assert exit_.value.code == 2
        assert "argument --seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"latency_s": math.nan}, "latency_s must be a finite number >= 0, got nan"),
            ({"jitter_s": math.inf}, "jitter_s must be a finite number >= 0, got inf"),
            ({"retry_base_s": math.nan}, "retry_base_s must be a finite number > 0, got nan"),
            ({"retry_cap_s": math.inf}, "retry_cap_s must be a finite number > 0, got inf"),
            ({"loss_prob": math.nan}, r"loss_prob must be in \[0, 1\), got nan"),
            ({"dup_prob": -math.inf}, r"dup_prob must be in \[0, 1\], got -inf"),
        ],
    )
    def test_non_finite_channel_numbers(self, kwargs, message):
        with pytest.raises(ValueError, match=r"^" + message):
            ChannelModel(**kwargs)
        with pytest.raises(ValueError, match=r"^transport\." + message):
            TransportSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"at": math.nan, "until": 1.0}, "at must be a finite number, got nan"),
            ({"at": 0.0, "until": math.nan}, r"until must be a number \(inf: no end\), got nan"),
            ({"at": "0", "until": 1.0}, "at must be a finite number, got '0'"),
            ({"at": 0.0, "until": None}, r"until must be a number \(inf: no end\), got None"),
            ({"at": -math.inf, "until": 1.0}, "at must be a finite number, got -inf"),
        ],
    )
    def test_channel_window_times(self, kwargs, message):
        with pytest.raises(ValueError, match=r"^" + message):
            ChannelWindow(kind="loss", **kwargs)

    def test_an_open_ended_window_is_still_allowed(self):
        window = ChannelWindow(kind="outage", at=5.0, until=math.inf)
        model = ChannelModel(windows=[window])
        assert model.in_outage(1e12, "") and not model.in_outage(4.9, "")
