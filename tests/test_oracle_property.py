"""Property-based equivalence tests between the algorithms.

The load-bearing test of the whole reproduction: on arbitrary
multi-threaded traces, the efficient read/write timestamping algorithm
(Figure 8/9) must compute exactly the same drms value for every routine
activation as the naive set-based oracle (Figure 7), under every input
policy.  Additional properties: Inequality 1 (drms >= rms), the
degenerate-policy equivalence (both sources off == rms), equivalence of
the standalone RmsProfiler, and invariance under timestamp renumbering
with tiny counter limits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FULL_POLICY,
    RMS_POLICY,
    DrmsProfiler,
    NaiveDrmsProfiler,
    RmsProfiler,
)
from repro.core.events import Call, KernelToUser, SwitchThread
from tests.strategies import ALL_POLICIES, activation_sizes, random_trace


@given(random_trace())
@settings(max_examples=300, deadline=None)
def test_timestamping_matches_naive_oracle_full_policy(events):
    fast = DrmsProfiler(policy=FULL_POLICY)
    slow = NaiveDrmsProfiler(policy=FULL_POLICY)
    fast.run(events)
    slow.run(events)
    assert activation_sizes(fast.profiles) == activation_sizes(slow.profiles)


@given(random_trace(), st.sampled_from(ALL_POLICIES))
@settings(max_examples=200, deadline=None)
def test_timestamping_matches_naive_oracle_all_policies(events, policy):
    fast = DrmsProfiler(policy=policy)
    slow = NaiveDrmsProfiler(policy=policy)
    fast.run(events)
    slow.run(events)
    assert activation_sizes(fast.profiles) == activation_sizes(slow.profiles)


@given(random_trace())
@settings(max_examples=200, deadline=None)
def test_inequality_1_drms_geq_rms_per_activation(events):
    """Inequality 1 of the paper: drms >= rms for every activation."""
    drms = DrmsProfiler(policy=FULL_POLICY)
    rms = DrmsProfiler(policy=RMS_POLICY)
    drms.run(events)
    rms.run(events)
    drms_acts = drms.profiles.activations
    rms_acts = rms.profiles.activations
    assert len(drms_acts) == len(rms_acts)
    for (rtn_d, t_d, size_d, _), (rtn_r, t_r, size_r, _) in zip(
        drms_acts, rms_acts
    ):
        assert (rtn_d, t_d) == (rtn_r, t_r)
        assert size_d >= size_r


@given(random_trace())
@settings(max_examples=200, deadline=None)
def test_rms_policy_equals_standalone_rms_profiler(events):
    via_policy = DrmsProfiler(policy=RMS_POLICY)
    standalone = RmsProfiler()
    via_policy.run(events)
    standalone.run(events)
    assert activation_sizes(via_policy.profiles) == activation_sizes(
        standalone.profiles
    )


@given(random_trace(), st.integers(4, 40))
@settings(max_examples=150, deadline=None)
def test_renumbering_invariance(events, counter_limit):
    """Profiles are identical whether renumbering happens constantly
    (tiny counter limit) or never."""
    unlimited = DrmsProfiler(policy=FULL_POLICY, counter_limit=None)
    limited = DrmsProfiler(policy=FULL_POLICY, counter_limit=counter_limit)
    unlimited.run(events)
    limited.run(events)
    assert activation_sizes(unlimited.profiles) == activation_sizes(
        limited.profiles
    )
    count_bumps = sum(
        isinstance(e, (Call, SwitchThread, KernelToUser)) for e in events
    )
    if count_bumps > counter_limit:
        assert limited.renumber_passes > 0


@given(random_trace())
@settings(max_examples=150, deadline=None)
def test_pending_drms_matches_oracle_mid_trace(events):
    """Invariant 2 holds *throughout* execution: at every prefix of the
    trace the suffix-summed partial drms of each pending activation
    equals the oracle's explicit per-activation count."""
    fast = DrmsProfiler(policy=FULL_POLICY)
    slow = NaiveDrmsProfiler(policy=FULL_POLICY)
    threads = sorted(
        {e.thread for e in events if not isinstance(e, SwitchThread)}
    )
    for i, event in enumerate(events):
        fast.consume(event)
        slow.consume(event)
        if i % 7 == 0:  # sample prefixes; checking all is O(n^2)
            for t in threads:
                assert fast.pending_drms(t) == slow.pending_drms(t)
    for t in threads:
        assert fast.pending_drms(t) == slow.pending_drms(t)


@given(random_trace())
@settings(max_examples=150, deadline=None)
def test_induced_read_attribution_matches_oracle(events):
    fast = DrmsProfiler(policy=FULL_POLICY)
    slow = NaiveDrmsProfiler(policy=FULL_POLICY)
    fast.run(events)
    slow.run(events)
    fast_counts = {r: tuple(c) for r, c in fast.read_counters.items() if any(c)}
    slow_counts = {r: tuple(c) for r, c in slow.read_counters.items() if any(c)}
    assert fast_counts == slow_counts
