"""The integer flow kernel: `flow_at`, `orbit_trace` and `omega_limit`
against the literal event-by-event fold, `flow_at`'s cost far out in time,
and input validation at entry."""

import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import (
    DimensionError,
    Network,
    NotProgressiveError,
    Schedule,
    apply_fire_set,
    flow_at,
    full_mask,
    iterate_word,
    omega_limit,
    orbit_trace,
    simulate_word_schedule,
    synchronous,
)

F = Fraction


def event_fold(net, mu, rho, t):
    """The flow by definition: fold every event of `rho.events()` placed
    at a time <= t, one event at a time."""
    state = mu
    for when, fire in rho.events():
        if when > t:
            break
        state = apply_fire_set(net, state, fire)
    return state


@st.composite
def flow_cases(draw):
    """A network with n <= 4, a start state, a progressive schedule with or
    without a prefix, and times to probe: negative ones, event times and
    arbitrary times up to about 200 periods past the cycle start."""
    n = draw(st.integers(1, 4))
    net = Network(n, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(1 << n)))
    mu = draw(st.integers(0, (1 << n) - 1))
    qlen = draw(st.integers(1, 4))
    denom = draw(st.integers(1, 4))
    period = F(draw(st.integers(1, 6)), denom)
    slots = draw(st.integers(qlen, qlen + 3))
    offs = sorted(draw(st.sets(st.integers(0, slots - 1), min_size=qlen, max_size=qlen)))
    fires = [draw(st.integers(0, (1 << n) - 1)) for _ in range(qlen)]
    fires[draw(st.integers(0, qlen - 1))] |= full_mask(n)  # keep it progressive
    cycle = tuple((period * F(o, slots), f) for o, f in zip(offs, fires))
    plen = draw(st.integers(0, 3))
    ptimes = sorted(draw(st.sets(st.integers(-20, 20), min_size=plen, max_size=plen)))
    prefix = tuple((F(k, denom), draw(st.integers(0, (1 << n) - 1))) for k in ptimes)
    start = F(draw(st.integers(-5, 5)), denom)
    if prefix:
        start = max(start, prefix[-1][0] + F(1, denom))
    rho = Schedule(n, prefix, cycle, period, start)

    event_times = [t for t, _ in prefix] + [
        start + m * period + off
        for m in draw(st.lists(st.integers(0, 200), min_size=1, max_size=4))
        for off, _ in cycle
    ]
    times = draw(st.lists(st.sampled_from(event_times), min_size=1, max_size=4))
    times += draw(
        st.lists(
            st.builds(F, st.integers(-60, 0), st.integers(1, 4)), min_size=1, max_size=2
        )
    )
    span = int(200 * period) + 2
    times += draw(
        st.lists(
            st.builds(lambda k, d: start + F(k, d), st.integers(0, span * 6), st.integers(1, 6)),
            min_size=1,
            max_size=3,
        )
    )
    return net, mu, rho, times


@settings(max_examples=200, deadline=None)
@given(flow_cases())
def test_flow_at_matches_event_fold(case):
    net, mu, rho, times = case
    trace, orbit = orbit_trace(net, mu, rho)
    for t in times:
        assert flow_at(net, mu, rho, t) == event_fold(net, mu, rho, t), t
        assert trace.value_at(t) == event_fold(net, mu, rho, t), t
    # the values after each event up to the end of occurrence 2**(n+1) - 1;
    # the occurrence-start values repeat within 2**n occurrences, so
    # occurrences 2**n .. 2**(n+1) - 1 lie in the periodic tail and pass
    # through it at least once
    per_half = len(rho.cycle) << net.n
    first = len(rho.prefix) + per_half
    values, state = [], mu
    for _, fire in islice(rho.events(), first + per_half):
        state = apply_fire_set(net, state, fire)
        values.append(state)
    assert omega_limit(net, mu, rho) == frozenset(values[first:])
    assert orbit == frozenset([mu, *values])


def _far_schedules():
    rational = Schedule(
        3,
        ((F(-3, 2), 0b101), (F(0), 0b010)),
        ((F(0), 0b100), (F(1, 3), 0b011), (F(3, 4), 0b110)),
        F(7, 5),
        F(1, 2),
    )
    return [synchronous(3), rational]


@pytest.mark.parametrize("rho", _far_schedules(), ids=["synchronous", "rational"])
def test_flow_at_far_time_is_fast_and_matches_trace(rho):
    net = Network(3, (0b111, 0b000, 0b101, 0b010, 0b011, 0b110, 0b001, 0b100))
    far = [F(10**12), F(10**12) + F(1, 3), F(10**12 * 7 + 2, 5)]
    started = time.perf_counter()
    for mu in net.states():
        trace, _ = orbit_trace(net, mu, rho)
        for t in far:
            assert flow_at(net, mu, rho, t) == trace.value_at(t)
    assert time.perf_counter() - started < 0.5


def test_simulate_word_schedule_validates_at_entry(net1):
    with pytest.raises(DimensionError):
        simulate_word_schedule(net1, 4, (), (0b11,))
    with pytest.raises(DimensionError):
        simulate_word_schedule(net1, 0, (), (0b11, 4))
    with pytest.raises(DimensionError):
        simulate_word_schedule(net1, 0, (-1,), (0b11,))


def test_iterate_word_validates_every_letter(net1):
    with pytest.raises(DimensionError):
        iterate_word(net1, 0, [0b01, 4])
    with pytest.raises(DimensionError):
        iterate_word(net1, 0, [-1])


def test_flow_rejects_fire_sets_wider_than_the_net(net1):
    # the bad fire set comes long after t; it is still refused at entry
    rho = Schedule(3, ((F(0), 0b01),), ((F(0), 0b111),), F(1), F(5))
    with pytest.raises(DimensionError):
        flow_at(net1, 0, rho, F(1))
    with pytest.raises(DimensionError):
        orbit_trace(net1, 0, rho)


def test_flow_rejects_schedule_leaving_a_net_coordinate_unfired(net1):
    # a one-coordinate schedule fires only coordinate 2 of net1; it is
    # progressive for its own n but not for the network's
    rho = Schedule(1, (), ((F(0), 0b1),), F(1), F(0))
    for call in (
        lambda: flow_at(net1, 0, rho, F(3)),
        lambda: orbit_trace(net1, 0, rho),
        lambda: omega_limit(net1, 0, rho),
    ):
        with pytest.raises(NotProgressiveError, match="coordinate 1 never fires"):
            call()
