"""Eventually periodic fair schedules and the flows they generate.

A schedule places fire sets at strictly increasing rational times: a
finite prefix of timed events followed by a cycle of offsets repeated
forever with a fixed period.  This is a computable sub-family of the
progressive timed sequences; since the state space is finite, every
achievable omega-limit set is realized by some member of it (validated
empirically by the oracle module against bounded enumeration).

Flows are right-continuous piecewise-constant functions of real time.
Schedule times are exact rationals (ints or Fractions), but each flow is
one integer fold over the truth table (`_run`), and its times are ints on
one grid per schedule: every event time over a common denominator,
derived on the schedule's first fold that needs times.  `flow_at` counts
events on that grid.  `_FlowRecord` lays a run out on a grid as the ticks
where the value changes, with its loop entry and period; `orbit_trace`,
the witness splice in `basins` and `flows_eventually_equal` read it, the
last over one pass of both loops, not their lcm.  A cycle is validated
once and then passed on unchanged by `translate`, `restrict_after` and
`dataclasses.replace`.  Checked parts are passed on without checking
them again: `translate` and `restrict_after` build their result from
parts that a shift or a cut keeps valid, and `_led_by` puts one checked
event in front of parts already checked, so a chain of schedules each
one event longer checks every event once.  A transform also carries its
grid: `translate` and `restrict_after` derive it in ints from their
argument's, a shift by d on the lcm of the grid's and d's denominators
and a cut on the same grid, where a tick k lies after t' iff
k > floor(t' * den).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from heapq import merge
from itertools import chain, takewhile
from typing import Iterator

from .core import DimensionError, Network, _check_dimension, check_state, full_mask


class ScheduleError(ValueError):
    pass


class NotProgressiveError(ScheduleError):
    """Some coordinate is fired only finitely often."""


def _rational(x):
    """x itself if it is a time a schedule accepts: an int or a Fraction."""
    if not isinstance(x, (int, Fraction)):
        raise ScheduleError(f"time {x!r} is not an int or Fraction")
    return x


def _ticks(x: Fraction | int, den: int) -> int:
    """floor(x * den) for a rational time x."""
    return x.numerator * den // x.denominator


class _Cycle(tuple):
    """A cycle validated for the (n, period) in `key`, which Schedule does
    not check again; `fires` is the union of its fire sets and `word`
    their tuple, in offset order."""


def _validated_cycle(cycle, n: int, period: Fraction) -> _Cycle:
    prev = None
    fires = 0
    for off, fire in cycle:
        check_state(fire, n, "fire set")
        if not 0 <= _rational(off) < period:
            raise ScheduleError(f"cycle offset {off} outside [0, period)")
        if prev is not None and off <= prev:
            raise ScheduleError("cycle offsets must strictly increase")
        prev = off
        fires |= fire
    out = _Cycle(cycle)
    out.key = (n, period)
    out.fires = fires
    out.word = tuple(fire for _, fire in cycle)
    return out


def _led_by(n: int, t, fire: int, prefix, cycle: _Cycle, period, cycle_start) -> Schedule:
    """Schedule(n, ((t, fire),) + prefix, cycle, period, cycle_start) for
    parts a Schedule of this n already checked: only the new event is
    checked, its fire set against n and t against the first prefix time,
    or cycle_start.  No grid is carried over: t may need a finer one."""
    check_state(fire, n, "fire set")
    if not _rational(t) < (prefix[0][0] if prefix else cycle_start):
        raise ScheduleError(f"event at t={t} does not precede the schedule it leads")
    return _trusted(n, ((t, fire),) + prefix, cycle, period, cycle_start)


def _trusted(n: int, prefix, cycle: _Cycle, period, cycle_start, grid=None) -> Schedule:
    """A Schedule of parts that are already known to be valid together,
    built without checking any of them again, with its `_grid` if the
    caller derived it."""
    out = object.__new__(Schedule)
    out.__dict__.update(n=n, prefix=prefix, cycle=cycle, period=period, cycle_start=cycle_start)
    if grid is not None:
        out.__dict__["_grid"] = grid
    return out


@dataclass(frozen=True)
class Schedule:
    """Timed fire-set events: a finite prefix, then a repeating cycle.

    Event times are the prefix times followed by cycle_start + offset +
    m * period for m = 0, 1, 2, ...  Offsets live in [0, period); the
    cycle is nonempty and cycle_start lies strictly after the prefix.
    Every time is an int or a Fraction.
    """

    n: int
    prefix: tuple[tuple[Fraction, int], ...]
    cycle: tuple[tuple[Fraction, int], ...]
    period: Fraction
    cycle_start: Fraction

    def __post_init__(self):
        _check_dimension(self.n)
        if _rational(self.period) <= 0:
            raise ScheduleError("period must be positive")
        if not self.cycle:
            raise ScheduleError("cycle must be nonempty")
        last = None
        for t, fire in self.prefix:
            check_state(fire, self.n, "fire set")
            _rational(t)
            if last is not None and t <= last:
                raise ScheduleError(f"prefix times must strictly increase at t={t}")
            last = t
        _rational(self.cycle_start)
        if last is not None and self.cycle_start <= last:
            raise ScheduleError("cycle_start must lie strictly after the prefix")
        # a cycle passed on unchanged (translate, restrict_after, replace,
        # witnesses sharing one covering cycle) is checked only once
        if getattr(self.cycle, "key", None) != (self.n, self.period):
            object.__setattr__(self, "cycle", _validated_cycle(self.cycle, self.n, self.period))

    @cached_property
    def _grid(self) -> tuple[int, list[int], int, list[int], int]:
        """Every event time as an int over one denominator: (den, prefix
        ticks, cycle-start tick, offset ticks, period ticks).  Derived on
        the first fold that needs times, not at construction."""
        den = math.lcm(self.period.denominator, self.cycle_start.denominator,
                       *(t.denominator for t, _ in self.prefix),
                       *(off.denominator for off, _ in self.cycle))
        return (den, [_ticks(t, den) for t, _ in self.prefix], _ticks(self.cycle_start, den),
                [_ticks(off, den) for off, _ in self.cycle], _ticks(self.period, den))

    def _count(self, t: Fraction | int) -> int:
        """The number of events at times <= t."""
        den, prefix, start, offsets, span = self._grid
        tick = _ticks(_rational(t), den)
        if tick < start:
            return bisect_right(prefix, tick)
        whole, rem = divmod(tick - start, span)
        return len(prefix) + whole * len(offsets) + bisect_right(offsets, rem)

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
    _check_dimension(n)
    return Schedule(n, (), ((Fraction(0), full_mask(n)),), Fraction(1), Fraction(0))


def is_progressive(rho: Schedule) -> bool:
    return not full_mask(rho.n) & ~rho.cycle.fires


def _require_progressive(rho: Schedule, n: int) -> None:
    """Refuse a schedule that leaves some coordinate of an n-coordinate
    network unfired."""
    unfired = full_mask(n) & ~rho.cycle.fires
    if unfired:
        missing = [i + 1 for i in range(n) if unfired & (1 << (n - 1 - i))]
        raise NotProgressiveError(f"coordinate {', '.join(map(str, missing))} never fires")


def _run(net: Network, mu: int, rho: Schedule) -> tuple[list[int], int]:
    """Fold the flow's fire sets in event order over the truth table.

    values[k] is the value after the first k events (values[0] == mu).  The
    fold runs through the prefix and then whole cycle occurrences until the
    value at an occurrence start repeats: from index `tail` on, the values
    repeat every len(values) - 1 - tail events.  A schedule no wider than
    the network has fire sets that fit it (Schedule checks them against its
    own n); it must still fire every coordinate of the network.
    """
    if rho.n > net.n:
        raise DimensionError(f"schedule of n={rho.n} does not fit a network of n={net.n}")
    check_state(mu, net.n)
    _require_progressive(rho, net.n)
    return _fold(net.table, mu, [fire for _, fire in rho.prefix], rho.cycle.word)


def _fold(table, mu: int, prefix, cycle) -> tuple[list[int], int]:
    """`_run` on a fire word, the fire sets of the prefix and of one cycle
    occurrence, with nothing checked."""
    state = mu
    values = [mu]
    for fire in prefix:
        state = (state & ~fire) | (table[state] & fire)
        values.append(state)
    starts: dict[int, int] = {}
    while state not in starts:
        starts[state] = len(values) - 1
        for fire in cycle:
            state = (state & ~fire) | (table[state] & fire)
            values.append(state)
    return values, starts[state]


def _value(values: list[int], tail: int, count: int) -> int:
    """The flow after `count` events; a count past the run wraps into its tail."""
    if count >= len(values):
        count = tail + (count - tail) % (len(values) - 1 - tail)
    return values[count]


def flow_at(net: Network, mu: int, rho: Schedule, t: Fraction) -> int:
    """Value of the flow at time t: mu before the first event, then the
    fold of every fire set placed at a time <= t.

    The events at times <= t are counted on the schedule's integer time
    grid, and a count beyond the run's periodic tail wraps into it, so the
    cost is bounded by 2**n occurrences whatever t is."""
    return _value(*_run(net, mu, rho), rho._count(t))


class _FlowRecord:
    """One run laid out on a grid of `den` ticks per unit, a multiple of
    its schedule's own: the `ticks` at which the flow's value changes, and
    `values`, its value before the first change and after each one.  The
    first `lead` changes come before the loop-entry tick `entry`; the rest,
    none if the flow is eventually constant, repeat every `period` ticks."""

    __slots__ = ("den", "ticks", "values", "lead", "entry", "period")

    def __init__(self, net: Network, mu: int, rho: Schedule, den: int | None = None):
        values, tail = _run(net, mu, rho)
        own, prefix, start, offsets, span = rho._grid
        scale = 1 if den is None else den // own
        p, q = len(prefix), len(offsets)
        changes = [k for k in range(1, len(values)) if values[k] != values[k - 1]]
        # events[k - 1] is the tick of the event that yields values[k]
        events = prefix + [start + m * span + off
                           for m in range((len(values) - 1 - p) // q) for off in offsets]
        self.ticks = [scale * events[k - 1] for k in changes]
        self.values = [mu] + [values[k] for k in changes]
        self.lead = bisect_right(changes, tail)
        self.entry = scale * (start + (tail - p) // q * span)
        self.period = scale * span * ((len(values) - 1 - tail) // q)
        self.den = den or own

    def _count(self, tick: int) -> int:
        """The number of changes at ticks <= tick."""
        whole = max(0, (tick - self.entry) // self.period)
        return (bisect_right(self.ticks, tick - whole * self.period)
                + whole * (len(self.ticks) - self.lead))

    def _tick(self, i: int) -> int:
        """The tick of change i."""
        if i < self.lead:
            return self.ticks[i]
        whole, j = divmod(i - self.lead, len(self.ticks) - self.lead)
        return self.ticks[self.lead + j] + whole * self.period

    def value(self, tick: int) -> int:
        whole = max(0, (tick - self.entry) // self.period)
        return self.values[bisect_right(self.ticks, tick - whole * self.period)]

    def after(self, tick: int) -> Iterator[int]:
        """The change ticks past `tick`, increasing."""
        i = self._count(tick)
        while i < len(self.ticks) or len(self.ticks) > self.lead:
            yield self._tick(i)
            i += 1

    def before(self, tick: int) -> Iterator[int]:
        """The change ticks before `tick`, decreasing."""
        return map(self._tick, range(self._count(tick - 1) - 1, -1, -1))


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
        if t < self.loop_entry:
            return next((v for time, v in reversed(self.changes) if time <= t), self.initial)
        rem = (t - self.loop_entry) % sum(d for _, d in self.loop)
        for value, dwell in self.loop:
            if rem < dwell:
                return value
            rem -= dwell
        return self.loop[-1][0]


def orbit_trace(net: Network, mu: int, rho: Schedule) -> tuple[OrbitTrace, frozenset[int]]:
    """Simulate until the flow value at a cycle occurrence start repeats.

    The flow value just before each cycle occurrence determines the whole
    future, so at most 2**n occurrences are simulated.  Returns the trace,
    whose times are the flow record's ticks as Fractions, and the orbit,
    i.e. the set of every value the flow takes.
    """
    flow = _FlowRecord(net, mu, rho)
    den, ticks, values, lead = flow.den, flow.ticks, flow.values, flow.lead
    changes = tuple((Fraction(t, den), v) for t, v in zip(ticks[:lead], values[1:]))
    # (state, dwell) segments of one loop pass, split at each loop change;
    # a change at the entry tick sets the state of the first segment
    first = lead + (lead < len(ticks) and ticks[lead] == flow.entry)
    edges = [flow.entry, *ticks[first:], flow.entry + flow.period]
    loop = tuple((v, Fraction(b - a, den)) for v, a, b in zip(values[first:], edges, edges[1:]))
    return OrbitTrace(mu, changes, Fraction(flow.entry, den), loop), frozenset(values)


def omega_limit(net: Network, mu: int, rho: Schedule) -> frozenset[int]:
    """States the flow visits arbitrarily late: the run's periodic tail."""
    values, tail = _run(net, mu, rho)
    return frozenset(values[tail:])


def translate(rho: Schedule, d: Fraction) -> Schedule:
    """Shift every event time by +d; cycle structure is unchanged."""
    d = Fraction(_rational(d))
    own, ticks, start, offsets, span = rho._grid
    den = math.lcm(own, d.denominator)
    scale, shift = den // own, _ticks(d, den)
    ticks = [scale * t + shift for t in ticks]
    start = scale * start + shift
    # the shifted times, t + d, read off their ticks; a shift keeps the
    # prefix increasing and before the cycle start
    prefix = tuple((Fraction(t, den), fire) for t, (_, fire) in zip(ticks, rho.prefix))
    grid = (den, ticks, start, offsets if scale == 1 else [scale * off for off in offsets],
            scale * span)
    return _trusted(rho.n, prefix, rho.cycle, rho.period, Fraction(start, den), grid)


def restrict_after(rho: Schedule, t_prime: Fraction) -> Schedule:
    """Drop every event at a time <= t_prime.

    Cycle occurrences cut in half by t_prime are moved into the prefix;
    the cycle itself is untouched, so progressiveness is preserved.
    """
    _rational(t_prime)
    den, ticks, start, offsets, span = rho._grid
    # a tick lies after t_prime iff it lies after this one
    cut = _ticks(t_prime, den)
    # the kept events are a tail of rho's, and the occurrence that t_prime
    # cuts ends before the next one starts, so every part stays valid
    first = bisect_right(ticks, cut)
    prefix, ticks = rho.prefix[first:], ticks[first:]
    new_start = rho.cycle_start
    if start <= cut:
        # the first occurrence that starts strictly after t_prime
        m_star = (cut - start) // span + 1
        new_start = rho.cycle_start + m_star * rho.period
        partial_base = new_start - rho.period
        base = start + (m_star - 1) * span
        skipped = bisect_right(offsets, cut - base)
        prefix += tuple((partial_base + off, fire) for off, fire in rho.cycle[skipped:])
        ticks += [base + off for off in offsets[skipped:]]
        start = base + span
    return _trusted(rho.n, prefix, rho.cycle, rho.period, new_start,
                    (den, ticks, start, offsets, span))


def flows_eventually_equal(net: Network, mu: int, rho: Schedule,
                           mu2: int, rho2: Schedule) -> tuple[bool, Fraction | None]:
    """Decide whether the two flows coincide pointwise from some time on.

    Past t0, the later loop entry, the flows repeat with periods P1 and P2,
    so they agree from t0 on iff they agree on [t0, t0 + P1 + P2) (Fine and
    Wilf): at t0 and at each change of either flow inside, where a change
    that one flow makes alone is a disagreement.  The witness time is the
    first change after the last disagreement, or the earliest change or
    loop entry when there is none.
    """
    den = math.lcm(rho._grid[0], rho2._grid[0])
    flow1, flow2 = _FlowRecord(net, mu, rho, den), _FlowRecord(net, mu2, rho2, den)
    t0 = max(flow1.entry, flow2.entry)
    horizon = t0 + flow1.period + flow2.period
    ahead = takewhile(horizon.__gt__, merge(flow1.after(t0), flow2.after(t0)))
    if any(flow1.value(t) != flow2.value(t) for t in chain((t0,), ahead)):
        return False, None
    # walk down from t0 to the last disagreement
    witness = t0
    for t in merge(flow1.before(t0), flow2.before(t0), reverse=True):
        if flow1.value(t) != flow2.value(t):
            break
        witness = t
    else:
        if mu == mu2:
            witness = min(witness, flow1.entry, flow2.entry)
    return True, Fraction(witness, den)
