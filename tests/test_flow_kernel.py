"""The integer flow kernel: `flow_at`, `orbit_trace` and `omega_limit`
against the literal event-by-event fold, `flow_at`'s cost far out in time,
input validation at entry, and the integer time grid: `Schedule` accepts
what the plain-Fraction validator accepts, each cycle is validated once,
and counts and traces on the grid match plain-Fraction references.
`flows_eventually_equal` matches the breakpoint scan to the lcm of the loop
periods, which reads every value off `OrbitTrace.value_at`, and answers
at periods near 10**9 at once."""

import dataclasses
import math
import time
from fractions import Fraction
from itertools import islice, takewhile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import (
    DimensionError,
    Network,
    NotProgressiveError,
    Schedule,
    ScheduleError,
    apply_fire_set,
    basin_p,
    flow_at,
    flows_eventually_equal,
    full_mask,
    omega_limit,
    orbit_basin_p,
    orbit_trace,
    restrict_after,
    simulate_word_schedule,
    synchronous,
    translate,
)
from asyncbool import graph
from asyncbool import schedule as schedule_mod
from asyncbool.core import STEP_CAP, check_state

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


# an int, or a Fraction over one of several denominators
rationals = st.one_of(
    st.integers(-6, 6), st.builds(F, st.integers(-36, 36), st.integers(1, 6))
)


def as_mixed(draw, x):
    """x, or the int it equals when it is integral and the draw says so."""
    return int(x) if x.denominator == 1 and draw(st.booleans()) else x


@st.composite
def grid_cases(draw):
    """A network with n <= 3, a start state and a valid progressive
    schedule whose times mix ints and Fractions over varied denominators."""
    n = draw(st.integers(1, 3))
    net = Network(n, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(1 << n)))
    mu = draw(st.integers(0, (1 << n) - 1))
    period = F(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    fracs = draw(st.sets(st.builds(F, st.integers(0, 29), st.just(30)), min_size=1, max_size=4))
    offsets = sorted(period * f for f in fracs)
    fires = [draw(st.integers(0, (1 << n) - 1)) for _ in offsets]
    fires[draw(st.integers(0, len(fires) - 1))] |= full_mask(n)  # keep it progressive
    cycle = tuple((as_mixed(draw, off), fire) for off, fire in zip(offsets, fires))
    times = sorted(draw(st.sets(rationals, max_size=3)))
    prefix = tuple((as_mixed(draw, F(t)), draw(st.integers(0, (1 << n) - 1))) for t in times)
    start = F(draw(rationals))
    if prefix:
        start = max(start, prefix[-1][0] + F(1, draw(st.integers(1, 6))))
    rho = Schedule(n, prefix, cycle, as_mixed(draw, period), as_mixed(draw, start))
    probes = draw(st.lists(st.builds(lambda k, d: start + F(k, d), st.integers(-40, 400),
                                     st.integers(1, 7)), min_size=1, max_size=5))
    probes += [as_mixed(draw, t) for t, _ in islice(rho.events(), 12)]
    return net, mu, rho, probes


@settings(max_examples=300, deadline=None)
@given(st.one_of(flow_cases(), grid_cases()))
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


# shifts over denominators that no grid_cases schedule uses, so every
# derived schedule puts its times over a new common denominator
new_shifts = st.builds(F, st.integers(-50, 50), st.sampled_from([7, 11, 13, 35]))


@settings(max_examples=100, deadline=None)
@given(grid_cases(), new_shifts, new_shifts)
def test_flow_at_on_derived_schedules_matches_event_fold(case, d, cut):
    # translate and restrict_after pass the validated cycle on unchanged;
    # each derived schedule still builds its own tick grid
    net, mu, rho, probes = case
    moved = translate(rho, d)
    for derived in (moved, restrict_after(rho, cut), restrict_after(moved, cut)):
        assert derived.cycle is rho.cycle
        for t in probes:
            for when in (t, t + d):
                assert flow_at(net, mu, derived, when) == event_fold(net, mu, derived, when)


def fraction_translate(rho, d):
    """translate by the Fraction formulas: every time plus d."""
    d = F(d)
    return Schedule(rho.n, tuple((t + d, fire) for t, fire in rho.prefix), rho.cycle,
                    rho.period, rho.cycle_start + d)


def fraction_restrict_after(rho, t_prime):
    """restrict_after by the Fraction formulas: the prefix events after
    t_prime, then those of the cycle occurrence that t_prime cuts, with the
    cycle starting at the first occurrence after t_prime."""
    prefix = [(t, fire) for t, fire in rho.prefix if t > t_prime]
    if rho.cycle_start > t_prime:
        return Schedule(rho.n, tuple(prefix), rho.cycle, rho.period, rho.cycle_start)
    start = rho.cycle_start + ((t_prime - rho.cycle_start) // rho.period + 1) * rho.period
    base = start - rho.period
    prefix += [(base + off, fire) for off, fire in rho.cycle if base + off > t_prime]
    return Schedule(rho.n, tuple(prefix), rho.cycle, rho.period, start)


@settings(max_examples=300, deadline=None)
@given(grid_cases(), st.one_of(rationals, new_shifts), st.one_of(rationals, new_shifts),
       st.lists(st.builds(F, st.integers(-400, 400), st.integers(1, 35)), max_size=6))
def test_transforms_on_the_int_grid_match_the_fraction_formulas(case, d, cut, times):
    # translate shifts the Fraction times and restrict_after cuts them by
    # bisection; neither carries a grid, so each result derives its own
    # when a fold needs it, and the counts are taken on those grids.  The
    # reference filters every time with Fractions, one event at a time.
    net, mu, rho, probes = case
    moved, want_moved = translate(rho, d), fraction_translate(rho, d)
    pairs = [
        (moved, want_moved),
        (restrict_after(rho, cut), fraction_restrict_after(rho, cut)),
        (restrict_after(moved, cut), fraction_restrict_after(want_moved, cut)),
        (translate(restrict_after(moved, cut), -d),
         fraction_translate(fraction_restrict_after(want_moved, cut), -d)),
    ]
    for got, want in pairs:
        # equal fields, each an int or a Fraction as the formulas make it
        assert got == want and repr(got) == repr(want)
        for t in [*probes, *times, cut, cut + d, *(t + d for t in probes)]:
            assert got._count(t) == want._count(t), t


@settings(max_examples=200, deadline=None)
@given(st.one_of(flow_cases(), grid_cases()), new_shifts, new_shifts)
def test_public_wrappers_match_one_run(case, d, cut):
    # verify_theorems reads every flow off one `_run` and counts events with
    # `_count`; the public wrappers, which it does not call, must agree
    net, mu, rho, times = case
    values, tail = schedule_mod._run(net, mu, rho)
    for t in times:
        count = sum(1 for _ in takewhile(lambda e: e[0] <= t, rho.events()))
        assert rho._count(t) == count, t
        assert flow_at(net, mu, rho, t) == schedule_mod._value(values, tail, count), t
    trace, orbit = orbit_trace(net, mu, rho)
    assert orbit == frozenset(values)
    assert trace.loop_states == omega_limit(net, mu, rho) == frozenset(values[tail:])
    # the transforms skip validation; what they build must pass it, the
    # cycle included (a plain tuple is validated afresh)
    moved = translate(rho, d)
    for derived in (moved, restrict_after(rho, cut), restrict_after(moved, cut)):
        assert derived == Schedule(derived.n, derived.prefix, tuple(derived.cycle),
                                   derived.period, derived.cycle_start)
    assert (orbit_basin_p(net, mu, rho, with_witnesses=False).members
            == orbit_basin_p(net, mu, rho).members)


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
    # an empty cycle word would give an empty omega
    with pytest.raises(ValueError, match="cycle word must be nonempty"):
        simulate_word_schedule(net1, 0, (), ())


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


# --- the integer time grid ----------------------------------------------


def fraction_validator_accepts(n, prefix, cycle, period, cycle_start):
    """Schedule's validation as it was with plain Fraction arithmetic and
    no validated cycles, under the dimension rule of Network: True iff it
    raises nothing."""
    try:
        if not 1 <= n <= STEP_CAP:
            raise ValueError(f"dimension must be in 1..{STEP_CAP}, got {n}")
        if period <= 0:
            raise ScheduleError("period must be positive")
        if not cycle:
            raise ScheduleError("cycle must be nonempty")
        last = None
        for t, fire in prefix:
            check_state(fire, n, "fire set")
            if last is not None and t <= last:
                raise ScheduleError(f"prefix times must strictly increase at t={t}")
            last = t
        if last is not None and cycle_start <= last:
            raise ScheduleError("cycle_start must lie strictly after the prefix")
        prev = None
        for off, fire in cycle:
            check_state(fire, n, "fire set")
            if not 0 <= off < period:
                raise ScheduleError(f"cycle offset {off} outside [0, period)")
            if prev is not None and off <= prev:
                raise ScheduleError("cycle offsets must strictly increase")
            prev = off
    except ValueError:
        return False
    return True


def accepts(*fields):
    try:
        Schedule(*fields)
    except ValueError:
        return False
    return True


@st.composite
def raw_fields(draw):
    """Schedule fields, tidy (valid) and then with at most one field
    replaced by a random one: shuffled or repeated times, an empty cycle,
    offsets past the period, a nonpositive period, an early start, or n
    too small for the fire sets."""
    n = draw(st.integers(1, 3))
    fires = st.integers(0, (1 << n) - 1)

    def events(times, min_size):
        return draw(st.lists(st.tuples(times, fires), min_size=min_size, max_size=4))

    prefix = sorted(dict(events(rationals, 0)).items())
    cycle = sorted(dict(events(rationals.filter(lambda x: x >= 0), 1)).items())
    period = cycle[-1][0] + F(1, draw(st.integers(1, 6)))
    start = (prefix[-1][0] if prefix else 0) + F(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    fields = [n, tuple(prefix), tuple(cycle), as_mixed(draw, period), as_mixed(draw, start)]
    flaw = draw(st.integers(-1, 4))
    if flaw == 0:
        fields[0] = n - 1
    elif flaw in (1, 2):
        fields[flaw] = tuple(events(rationals, 0))
    elif flaw in (3, 4):
        fields[flaw] = draw(rationals)
    return tuple(fields)


@settings(max_examples=400, deadline=None)
@given(raw_fields())
def test_schedule_accepts_what_the_fraction_validator_accepts(fields):
    assert accepts(*fields) == fraction_validator_accepts(*fields)


@settings(max_examples=200, deadline=None)
@given(grid_cases(), st.integers(0, 3), rationals)
def test_a_reused_cycle_is_checked_again_for_another_n_or_period(case, n2, period2):
    # an offset now outside the period or a fire set now too wide must
    # still be refused
    _, _, rho, _ = case
    for fields in ((n2, (), rho.cycle, rho.period, rho.cycle_start),
                   (rho.n, rho.prefix, rho.cycle, period2, rho.cycle_start),
                   (n2, rho.prefix, rho.cycle, period2, rho.cycle_start)):
        assert accepts(*fields) == fraction_validator_accepts(*fields), fields


def fraction_trace(net, mu, rho):
    """orbit_trace's changes, loop entry and (state, dwell) loop, computed
    in plain Fractions from events(): fold until the value at a cycle
    occurrence start repeats."""
    p, q = len(rho.prefix), len(rho.cycle)
    events = rho.events()
    times, values = [], [mu]

    def step():
        t, fire = next(events)
        times.append(F(t))
        values.append(apply_fire_set(net, values[-1], fire))

    for _ in range(p):
        step()
    starts = {}
    while values[-1] not in starts:
        starts[values[-1]] = len(values) - 1
        for _ in range(q):
            step()
    tail = starts[values[-1]]
    entry = rho.cycle_start + (tail - p) // q * F(rho.period)
    end = entry + (len(values) - 1 - tail) // q * F(rho.period)
    changes = [(times[k - 1], values[k]) for k in range(1, tail + 1) if values[k] != values[k - 1]]
    loop, cursor = [], entry
    for k in range(tail + 1, len(values)):
        if values[k] != values[k - 1] and times[k - 1] > cursor:
            loop.append((values[k - 1], times[k - 1] - cursor))
            cursor = times[k - 1]
    loop.append((values[-1], end - cursor))
    return tuple(changes), entry, tuple(loop)


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_grid_orbit_trace_matches_fraction_reference(case):
    net, mu, rho, _ = case
    trace, _ = orbit_trace(net, mu, rho)
    assert (trace.changes, trace.loop_entry, trace.loop) == fraction_trace(net, mu, rho)


@settings(max_examples=100, deadline=None)
@given(grid_cases(), rationals, st.integers(1, 15))
def test_a_shared_cycle_is_validated_once(case, d, mask):
    net, mu, rho, _ = case
    with mock.patch.object(
        schedule_mod, "_validated_cycle", wraps=schedule_mod._validated_cycle
    ) as validate:
        for derived in (
            translate(rho, d),
            restrict_after(rho, d),
            dataclasses.replace(rho, prefix=()),
            dataclasses.replace(rho, cycle_start=rho.cycle_start + 1),
        ):
            assert derived.cycle is rho.cycle
        assert validate.call_count == 0
        # another period or n is checked again
        dataclasses.replace(rho, period=rho.period * 2)
        assert validate.call_count == 1
        # basin_p validates one covering cycle per fair SCC, shared by all
        # the witnesses that end in it
        validate.reset_mock()
        target = frozenset(s for s in net.states() if mask >> (s % 4) & 1) or frozenset({0})
        result = basin_p(net, target)
        assert validate.call_count == len(graph._fair_sccs(net, target))
        assert len({id(w.cycle) for w in result.witnesses.values()}) == validate.call_count


def test_times_must_be_int_or_fraction(net1):
    fields = (2, ((F(1, 3), 0b01),), ((F(0), 0b11),), F(1), F(1))
    for i, bad in ((1, ((0.5, 0b01),)), (2, ((0.0, 0b11),)), (3, 1.0), (4, 1.5)):
        broken = list(fields)
        broken[i] = bad
        with pytest.raises(ScheduleError, match="is not an int or Fraction") as exc:
            Schedule(*broken)
        assert "\n" not in str(exc.value)
    # a float time used to fold before the cycle start and fail past it
    rho = Schedule(*fields)
    for t in (0.5, 2.5):
        with pytest.raises(ScheduleError, match="is not an int or Fraction"):
            flow_at(net1, 0, rho, t)


def lcm_fraction(a, b):
    return F(math.lcm(a.numerator * b.denominator, b.numerator * a.denominator),
             a.denominator * b.denominator)


def eventually_equal_by_value_at(net, mu, rho, mu2, rho2):
    """Eventual equality by the breakpoint scan: every breakpoint of both
    traces up to one common hyperperiod, the lcm of the two loop periods,
    past both loop entries, each value read through `OrbitTrace.value_at`.
    The witness is the breakpoint after the last disagreement, or the
    earliest breakpoint."""
    trace1, _ = orbit_trace(net, mu, rho)
    trace2, _ = orbit_trace(net, mu2, rho2)
    p1 = sum((d for _, d in trace1.loop), F(0))
    p2 = sum((d for _, d in trace2.loop), F(0))
    t0 = max(trace1.loop_entry, trace2.loop_entry)
    horizon = t0 + lcm_fraction(p1, p2)
    breakpoints = {t0}
    for trace in (trace1, trace2):
        breakpoints.update(t for t, _ in trace.changes)
        cursor = trace.loop_entry
        while cursor < horizon:
            for _, dwell in trace.loop:
                breakpoints.add(cursor)
                cursor += dwell
    points = sorted(t for t in breakpoints if t < horizon)
    last_bad_end = points[0] if mu != mu2 else None
    for i, t in enumerate(points):
        if trace1.value_at(t) != trace2.value_at(t):
            if t >= t0:
                return False, None
            last_bad_end = points[i + 1] if i + 1 < len(points) else horizon
    if last_bad_end is not None:
        return True, last_bad_end
    return True, points[0] if points else t0


NEGATION = Network(1, (1, 0))


def word_flow(word):
    """A start state and a schedule whose flow on NEGATION reads
    word[k % len(word)] on [k, k + 1) for every k >= 0: each firing flips
    the coordinate, so the schedule fires where the word changes."""
    flips = tuple((k, 1) for k in range(len(word)) if word[k] != word[k - 1])
    return word[-1], Schedule(1, (), flips, len(word), 0)


@st.composite
def flow_pairs(draw):
    """Two flows on one net: the second is an orbit p-basin witness, a
    translation (by any time or by whole loop periods) or a restriction of
    the first (eventually equal), the first's cycle pattern at a period 2-5
    times as long, or another start state or schedule (mostly not).  Or
    two periodic words on NEGATION, the second a prefix of the first
    repeated: they agree over the longer period from time 0 on, and a scan
    shorter than the two periods together can miss where they part."""
    kind = draw(st.sampled_from(["witness", "translate", "loops", "restrict", "scaled",
                                 "state", "schedule", "words"]))
    if kind == "words":
        word = draw(st.lists(st.integers(0, 1), min_size=2, max_size=6)
                    .filter(lambda w: 0 < sum(w) < len(w)))
        longer = [word[k % len(word)] for k in range(draw(st.integers(len(word), 12)))]
        return (NEGATION, *word_flow(word), *word_flow(longer))
    net, mu, rho, probes = draw(grid_cases())
    if kind == "witness":
        result = orbit_basin_p(net, mu, rho)
        mu2 = draw(st.sampled_from(sorted(result.members)))
        return net, mu, rho, mu2, result.witnesses[mu2]
    if kind == "translate":
        return net, mu, rho, mu, translate(rho, draw(rationals))
    if kind == "loops":
        trace, _ = orbit_trace(net, mu, rho)
        whole = draw(st.integers(-3, 3)) * sum(d for _, d in trace.loop)
        return net, mu, rho, mu, translate(rho, whole)
    if kind == "scaled":
        k = draw(st.integers(2, 5))
        cycle = tuple((off * k, fire) for off, fire in rho.cycle)
        return net, mu, rho, mu, Schedule(rho.n, rho.prefix, cycle, rho.period * k, rho.cycle_start)
    if kind == "restrict":
        cut = draw(st.sampled_from(probes))
        return net, mu, rho, flow_at(net, mu, rho, cut), restrict_after(rho, cut)
    if kind == "state":
        return net, mu, rho, draw(st.integers(0, (1 << net.n) - 1)), rho
    other = draw(grid_cases().filter(lambda case: case[0].n == net.n))
    return net, mu, rho, other[1], other[2]


@settings(max_examples=300, deadline=None)
@given(flow_pairs())
def test_flows_eventually_equal_matches_value_at_reference(pair):
    assert flows_eventually_equal(*pair) == eventually_equal_by_value_at(*pair)


@pytest.mark.parametrize("period, period2, shift, expected", [
    (10**9 + 7, 10**9 + 9, 0, (False, None)),
    (1, 10**9 + 7, 0, (False, None)),
    (10**9 + 7, 10**9 + 7, 2 * (10**9 + 7), (True, 2000000014)),
])
def test_flows_eventually_equal_at_huge_periods_is_fast(net1, period, period2, shift, expected):
    # the first two pairs of periods have an lcm near 10**18 ticks
    rho = Schedule(2, (), ((0, 0b11),), period, 0)
    rho2 = translate(Schedule(2, (), ((0, 0b11),), period2, 0), shift)
    started = time.perf_counter()
    assert flows_eventually_equal(net1, 0b00, rho, 0b00, rho2) == expected
    assert time.perf_counter() - started < 0.01
