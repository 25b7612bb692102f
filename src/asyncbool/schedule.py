"""Eventually periodic fair schedules and the flows they generate.

A schedule places fire sets at strictly increasing rational times: a
finite prefix of timed events followed by a cycle of offsets repeated
forever with a fixed period.  This is a computable sub-family of the
progressive timed sequences; since the state space is finite, every
achievable omega-limit set is realized by some member of it (validated
empirically by the oracle module against bounded enumeration).

Times are exact rationals throughout; flows are right-continuous
piecewise-constant functions of real time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import Network, check_state, full_mask


class ScheduleError(ValueError):
    pass


class NotProgressiveError(ScheduleError):
    """Some coordinate is fired only finitely often."""


@dataclass(frozen=True)
class Schedule:
    """Timed fire-set events: a finite prefix, then a repeating cycle.

    Event times are the prefix times followed by cycle_start + offset +
    m * period for m = 0, 1, 2, ...  Offsets live in [0, period); the
    cycle is nonempty and cycle_start lies strictly after the prefix.
    """

    n: int
    prefix: tuple[tuple[Fraction, int], ...]
    cycle: tuple[tuple[Fraction, int], ...]
    period: Fraction
    cycle_start: Fraction

    def __post_init__(self):
        if self.period <= 0:
            raise ScheduleError("period must be positive")
        if not self.cycle:
            raise ScheduleError("cycle must be nonempty")
        last = None
        for t, fire in self.prefix:
            check_state(fire, self.n, "fire set")
            if last is not None and t <= last:
                raise ScheduleError(f"prefix times must strictly increase at t={t}")
            last = t
        if last is not None and self.cycle_start <= last:
            raise ScheduleError("cycle_start must lie strictly after the prefix")
        prev = None
        for off, fire in self.cycle:
            check_state(fire, self.n, "fire set")
            if not 0 <= off < self.period:
                raise ScheduleError(f"cycle offset {off} outside [0, period)")
            if prev is not None and off <= prev:
                raise ScheduleError("cycle offsets must strictly increase")
            prev = off

    def events(self) -> Iterator[tuple[Fraction, int]]:
        """All events in time order, forever."""
        yield from self.prefix
        m = 0
        while True:
            base = self.cycle_start + m * self.period
            for off, fire in self.cycle:
                yield (base + off, fire)
            m += 1


def synchronous(n: int) -> Schedule:
    """Fire every coordinate at t = 0, 1, 2, ..."""
    return Schedule(n, (), ((Fraction(0), full_mask(n)),), Fraction(1), Fraction(0))


def is_progressive(rho: Schedule) -> bool:
    union = 0
    for _, fire in rho.cycle:
        union |= fire
    return union == full_mask(rho.n)


def missing_coordinates(rho: Schedule) -> list[int]:
    """1-based coordinates never fired in the cycle."""
    union = 0
    for _, fire in rho.cycle:
        union |= fire
    return [i + 1 for i in range(rho.n) if not union & (1 << (rho.n - 1 - i))]


def _require_progressive(rho: Schedule) -> None:
    if not is_progressive(rho):
        missing = ", ".join(str(i) for i in missing_coordinates(rho))
        raise NotProgressiveError(f"coordinate {missing} never fires")


def _check_entry(net: Network, mu: int, rho: Schedule) -> None:
    """Validate a flow's inputs once, before the integer fold steps it
    with the truth table: every fire set must fit the network, not only
    the schedule's own dimension."""
    _require_progressive(rho)
    check_state(mu, net.n)
    for _, fire in rho.prefix + rho.cycle:
        check_state(fire, net.n, "fire set")


def flow_at(net: Network, mu: int, rho: Schedule, t: Fraction) -> int:
    """Value of the flow at time t: mu before the first event, then the
    fold of every fire set placed at a time <= t.

    Whole cycle occurrences are folded without their times; once the
    state at an occurrence start repeats, the remaining whole occurrences
    are jumped in one step, so the cost is bounded by 2**n occurrences
    whatever t is."""
    _check_entry(net, mu, rho)
    table = net.table
    state = mu
    for time, fire in rho.prefix:
        if time > t:
            return state
        state = (state & ~fire) | (table[state] & fire)
    if t < rho.cycle_start:
        return state
    whole, rem = divmod(t - rho.cycle_start, rho.period)
    # starts maps the state just before occurrence k to k; once a state
    # repeats the sequence is periodic, so occurrence `whole` starts at a
    # known state
    starts: dict[int, int] = {}
    while len(starts) < whole:
        if state in starts:
            m0 = starts[state]
            state = list(starts)[m0 + int(whole - m0) % (len(starts) - m0)]
            break
        starts[state] = len(starts)
        for _, fire in rho.cycle:
            state = (state & ~fire) | (table[state] & fire)
    for off, fire in rho.cycle:
        if off > rem:
            break
        state = (state & ~fire) | (table[state] & fire)
    return state


@dataclass(frozen=True)
class OrbitTrace:
    """Piecewise-constant record of one flow with its periodic tail.

    `changes` lists the (time, new value) switches before the loop is
    entered; from `loop_entry` on, the flow repeats `loop`, a cyclic list
    of (state, dwell duration) segments whose dwells sum to the loop
    period.
    """

    initial: int
    changes: tuple[tuple[Fraction, int], ...]
    loop_entry: Fraction
    loop: tuple[tuple[int, Fraction], ...]

    @property
    def loop_states(self) -> frozenset[int]:
        return frozenset(s for s, _ in self.loop)

    def value_at(self, t: Fraction) -> int:
        state = self.initial
        for time, value in self.changes:
            if time > t:
                return state
            state = value
        if t < self.loop_entry:
            return state
        loop_period = sum((d for _, d in self.loop), Fraction(0))
        rem = (t - self.loop_entry) % loop_period
        for value, dwell in self.loop:
            if rem < dwell:
                return value
            rem -= dwell
        return self.loop[-1][0]


def orbit_trace(net: Network, mu: int, rho: Schedule) -> tuple[OrbitTrace, frozenset[int]]:
    """Simulate until the pair (state, cycle phase) repeats.

    The flow value just before each cycle occurrence determines the whole
    future, so at most 2**n occurrences are simulated.  Returns the trace
    and the orbit, i.e. the set of every value the flow takes.
    """
    _check_entry(net, mu, rho)
    table = net.table
    state = mu
    orbit = {mu}
    changes: list[tuple[Fraction, int]] = []
    for t, fire in rho.prefix:
        new = (state & ~fire) | (table[state] & fire)
        if new != state:
            changes.append((t, new))
            state = new
            orbit.add(new)

    # state at the start of each occurrence (value just before that time)
    seen: dict[int, int] = {}
    occ_log: list[list[tuple[Fraction, int]]] = []  # per occurrence: change events
    m = 0
    while state not in seen:
        seen[state] = m
        base = None  # the occurrence's start time, built at its first change
        occ_changes: list[tuple[Fraction, int]] = []
        for off, fire in rho.cycle:
            new = (state & ~fire) | (table[state] & fire)
            if new != state:
                if base is None:
                    base = rho.cycle_start + m * rho.period
                occ_changes.append((base + off, new))
                state = new
                orbit.add(new)
        occ_log.append(occ_changes)
        m += 1

    m1 = seen[state]
    loop_entry = rho.cycle_start + m1 * rho.period
    # flatten the change events of occurrences m1..m-1 into (state, dwell)
    # segments; the segment running up to the next loop pass carries the
    # occurrence-start state
    loop_events = [ev for occ in occ_log[m1:] for ev in occ]
    loop_period = (m - m1) * rho.period
    loop: list[tuple[int, Fraction]] = []
    cursor = loop_entry
    current = state  # == occurrence-start state of m1
    for time, value in loop_events:
        if time > cursor:
            loop.append((current, time - cursor))
            cursor = time
        current = value
    loop.append((current, loop_entry + loop_period - cursor))
    # pre-loop changes: the prefix events plus every change during the
    # occurrences before the loop is entered
    changes.extend(ev for occ in occ_log[:m1] for ev in occ)
    trace = OrbitTrace(mu, tuple(changes), loop_entry, tuple(loop))
    return trace, frozenset(orbit)


def omega_limit(net: Network, mu: int, rho: Schedule) -> frozenset[int]:
    """States the flow visits arbitrarily late: the detected loop."""
    trace, _ = orbit_trace(net, mu, rho)
    return trace.loop_states


def translate(rho: Schedule, d: Fraction) -> Schedule:
    """Shift every event time by +d; cycle structure is unchanged."""
    d = Fraction(d)
    return Schedule(
        rho.n,
        tuple((t + d, fire) for t, fire in rho.prefix),
        rho.cycle,
        rho.period,
        rho.cycle_start + d,
    )


def restrict_after(rho: Schedule, t_prime: Fraction) -> Schedule:
    """Drop every event at a time <= t_prime.

    Cycle occurrences cut in half by t_prime are moved into the prefix;
    the cycle itself is untouched, so progressiveness is preserved.
    """
    t_prime = Fraction(t_prime)
    prefix = [(t, f) for t, f in rho.prefix if t > t_prime]
    if rho.cycle_start > t_prime:
        return Schedule(rho.n, tuple(prefix), rho.cycle, rho.period, rho.cycle_start)
    # first occurrence that starts strictly after t_prime
    m_star = (t_prime - rho.cycle_start) // rho.period + 1
    new_start = rho.cycle_start + m_star * rho.period
    partial_base = new_start - rho.period
    for off, fire in rho.cycle:
        t = partial_base + off
        if t > t_prime:
            prefix.append((t, fire))
    return Schedule(rho.n, tuple(prefix), rho.cycle, rho.period, new_start)


def _lcm_fraction(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.lcm(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def flows_eventually_equal(
    net: Network,
    mu: int,
    rho: Schedule,
    mu2: int,
    rho2: Schedule,
) -> tuple[bool, Fraction | None]:
    """Decide whether the two flows coincide pointwise from some time on.

    Both flows are eventually periodic step functions, so equality on one
    common hyperperiod past both transients decides the tail exactly.  On
    success the least breakpoint-aligned witness time is returned.
    """
    trace1, _ = orbit_trace(net, mu, rho)
    trace2, _ = orbit_trace(net, mu2, rho2)
    p1 = sum((d for _, d in trace1.loop), Fraction(0))
    p2 = sum((d for _, d in trace2.loop), Fraction(0))
    t0 = max(trace1.loop_entry, trace2.loop_entry)
    horizon = t0 + _lcm_fraction(p1, p2)

    breakpoints = {t0}
    for trace in (trace1, trace2):
        breakpoints.update(t for t, _ in trace.changes)
        cursor = trace.loop_entry
        while cursor < horizon:
            for _, dwell in trace.loop:
                breakpoints.add(cursor)
                cursor += dwell
    points = sorted(t for t in breakpoints if t < horizon)

    # scan the window; the tail is equal iff the segment values agree on
    # [t0, horizon).  The witness is the right end of the last
    # disagreement segment below the horizon, or the earliest breakpoint.
    last_bad_end: Fraction | None = None
    if mu != mu2:
        # the flows already differ on the segment before the first breakpoint
        last_bad_end = points[0]
    for i, t in enumerate(points):
        if trace1.value_at(t) != trace2.value_at(t):
            if t >= t0:
                return False, None
            last_bad_end = points[i + 1] if i + 1 < len(points) else horizon
    if last_bad_end is not None:
        return True, last_bad_end
    # equal everywhere we looked; any breakpoint works
    return True, points[0] if points else t0
