"""Brute-force ground truth by bounded schedule enumeration.

Everything here recomputes omega-limit sets and basins directly from the
defining quantifications over schedules, restricted to integer event
times and bounded prefix/cycle lengths, and cross-checks the graph-based
algorithms against them.  Omega-limit sets depend only on the order of
the fire sets, not on the real timestamps, so integer times lose nothing
(the jitter check in verify_theorems exercises exactly that).

The enumeration is bounded, hence the explicit stabilization flag: a
result is only trusted by the test suite when growing both bounds by one
adds nothing.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable

from . import basins as basins_mod
from . import graph
from .core import Network, _check_dimension, check_state, fixed_points, format_bits, full_mask
from .schedule import (
    Schedule,
    _fold,
    _run,
    _value,
    is_progressive,
    omega_limit,
    restrict_after,
    synchronous,
    translate,
)


@dataclass(frozen=True)
class OracleBounds:
    """Longest prefix word and longest cycle word the oracle enumerates;
    fire sets range over all of B^n."""

    max_prefix_len: int
    max_cycle_len: int

    def __post_init__(self):
        # check_state's rule: an int, bool included
        for name in ("max_prefix_len", "max_cycle_len"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.max_cycle_len < 1:
            raise ValueError("max_cycle_len must be at least 1")
        if self.max_prefix_len < 0:
            raise ValueError("max_prefix_len must be nonnegative")

    def grown(self) -> "OracleBounds":
        return OracleBounds(self.max_prefix_len + 1, self.max_cycle_len + 1)


def default_bounds(n: int) -> OracleBounds:
    _check_dimension(n)
    # a covering closed walk of a fair set needs at most 2**n segments per
    # state; generous for n <= 3, far too generous to enumerate beyond that
    return OracleBounds(1 << n, n << n)


def simulate_word_schedule(
    net: Network, mu: int, prefix_word: tuple[int, ...], cycle_word: tuple[int, ...]
) -> tuple[frozenset[int], frozenset[int]]:
    """(orbit, omega) of the discrete run: fold the prefix, then repeat the
    cycle until the state at a cycle boundary repeats.  The cycle word must
    be nonempty, as a Schedule's cycle must: omega is never empty."""
    if not cycle_word:
        raise ValueError("cycle word must be nonempty")
    check_state(mu, net.n)
    for fire in itertools.chain(prefix_word, cycle_word):
        check_state(fire, net.n, "fire set")
    table = net.table
    state = mu
    trail = [mu]  # the state after every step, in order
    for fire in prefix_word:
        state = (state & ~fire) | (table[state] & fire)
        trail.append(state)
    seen: dict[int, int] = {}  # cycle-boundary state -> its index in trail
    while state not in seen:
        seen[state] = len(trail)
        for fire in cycle_word:
            state = (state & ~fire) | (table[state] & fire)
            trail.append(state)
    return frozenset(trail), frozenset(trail[seen[state] :])


# the most nodes the word-action search of _word_runs may hold: at n = 3
# it admits cycle words of 7 letters on a dense table, not of 8
_ACTION_CAP = 1 << 20
# the most nodes the anchored walks of one _walk_omegas call may hold, all
# anchors together: n = 3 needs at most 8 * 2**7 * 8 per anchor
_WALK_CAP = 1 << 20


def _layers(start, depth: int, expand, fanout: int = 0, refuse=None, spent: int = 0) -> set:
    """Every node within `depth` expansions of `start`, breadth first.

    Each layer expands only the nodes first met in the layer before, so a
    node met again is not expanded again; `expand(node)` yields its
    successors.  Given a `fanout`, the most successors a node has, the
    nodes are bounded before each layer is built by `spent`, those of the
    earlier searches sharing a budget, plus those seen and fanout times
    the layer before; `refuse(layer, bound)` raises if that is too many."""
    seen = {start}
    frontier = {start}
    for layer in range(1, depth + 1):
        if fanout:
            refuse(layer, spent + len(seen) + len(frontier) * fanout)
        frontier = {succ for node in frontier for succ in expand(node)}
        frontier -= seen
        seen |= frontier
    return seen


def _refuse_actions(layer: int, bound: int) -> None:
    if bound > _ACTION_CAP:
        raise graph.CapExceededError(
            f"word actions are capped at {_ACTION_CAP}, but cycle words of"
            f" {layer} letters may make {bound}: lower the cycle bound"
        )


def _refuse_walks(layer: int, bound: int) -> None:
    if bound > _WALK_CAP:
        raise graph.CapExceededError(
            f"anchored walks are capped at {_WALK_CAP} nodes, but walks of"
            f" {layer} steps may make {bound}: lower the bounds"
        )


def _images(net: Network, state: int) -> list[int]:
    """The literal one-step rule: entry `fire` is the state after firing
    `fire`, for every fire set of B^n."""
    image = net.table[state]
    return [(state & ~fire) | (image & fire) for fire in range(1 << net.n)]


def _prefix_outcomes(
    net: Network, mu: int, bounds: OracleBounds
) -> set[tuple[int, frozenset[int]]]:
    """Distinct (state, visited set) pairs after any prefix word within
    bounds; collapsing identical pairs is what keeps the sweep tractable."""

    def expand(node):
        state, visited = node
        # most steps revisit a state; reusing its visited set skips a copy
        return (
            (s2, visited if s2 in visited else visited | {s2})
            for s2 in _images(net, state)
        )

    return _layers((mu, frozenset({mu})), bounds.max_prefix_len, expand)


def _word_runs(
    net: Network, bounds: OracleBounds
) -> dict[int, tuple[tuple[frozenset[int], frozenset[int]], ...]]:
    """For every start state, the distinct (orbit, omega) pairs over all
    bounded word schedules, in increasing order of their state masks.

    Repeating a cycle word from a state depends only on the word's action:
    where one pass of the word ends and which states it visits, from every
    start state at once.  Extending a word by one letter depends only on
    its action too, so the layered search over actions, which carries the
    union of the fire sets for progressiveness, meets the action of every
    cycle word within the bound without enumerating the words.  Each
    progressive action is folded from every state at once by doubling on
    bit masks, each prefix outcome is crossed with the distinct loop
    results of its state, and masks become state sets only at the end."""
    states = net.states()
    full = full_mask(net.n)
    bits = tuple(1 << s for s in states)
    # after[fire][state]: the state after firing `fire` at `state`
    after = list(enumerate(zip(*(_images(net, state) for state in states))))

    def expand(action):
        # an action: the end state and the one-pass visited mask from each
        # state, and the union of the fire sets
        ends, visits, fired = action
        for fire, column in after:
            moved = tuple(map(column.__getitem__, ends))
            visits2 = tuple(map(operator.or_, visits, map(bits.__getitem__, moved)))
            yield moved, visits2, fired | fire

    start = (tuple(states), bits, 0)
    folded = set()  # (orbit, omega) masks from every state, per action
    for ends, orbits, fired in _layers(start, bounds.max_cycle_len, expand, len(after),
                                       _refuse_actions):
        if fired != full:
            continue
        # after n doublings, orbits[s] is the union of the visits of the
        # first 2**n passes from s, whose start states are all the states
        # the run from s ever starts a pass at, and ends[s] is the state
        # 2**n passes on, which lies on the run's cycle: its orbit is omega
        for _ in range(net.n):
            orbits = tuple(map(operator.or_, orbits, map(orbits.__getitem__, ends)))
            ends = tuple(map(ends.__getitem__, ends))
        folded.add((orbits, tuple(map(orbits.__getitem__, ends))))
    loops = [set() for _ in states]  # per state, its distinct (orbit, omega) masks
    for orbits, omegas in folded:
        for loop, pair in zip(loops, zip(orbits, omegas)):
            loop.add(pair)
    members = functools.cache(lambda mask: frozenset(s for s in states if mask >> s & 1))
    runs = {}
    for mu in states:
        pairs = set()
        for state, visited in _prefix_outcomes(net, mu, bounds):
            prefix = sum(1 << s for s in visited)
            pairs.update((prefix | orbit, omega) for orbit, omega in loops[state])
        runs[mu] = tuple((members(orbit), members(omega)) for orbit, omega in sorted(pairs))
    return runs


def _anchored_omegas(
    net: Network, anchor: int, max_len: int, fanout: int = 0, spent: int = 0
) -> tuple[set[frozenset[int]], int]:
    """Visited sets of progressive closed walks of length <= max_len from
    `anchor` back to itself, and the number of search nodes they took;
    `fanout` and `spent` bound the search against `_WALK_CAP` as `_layers`
    does.

    Each such walk's fire word, placed as a schedule cycle and started at
    the anchor, returns to the anchor every occurrence, so its omega-limit
    set is exactly the walk's visited set.  Fire sets are canonicalized to
    (subset of unstable) | stable(source): co-firing every stable
    coordinate is free and only improves coordinate coverage.  Reaching a
    (state, visited, coverage) node earlier only ever allows more
    continuations under the length cap, so the layered search is sound.
    A node's visited set is a mask of states, one-to-one with the set, and
    only the returned sets are made frozensets.
    """
    full = full_mask(net.n)
    table = net.table

    def expand(node):
        state, visited, coverage = node
        unstable = state ^ table[state]
        coverage |= full & ~unstable
        lam = unstable
        while True:  # every subset lam of unstable, which flips exactly lam
            s2 = state ^ lam
            yield s2, visited | 1 << s2, coverage | lam
            if not lam:
                return
            lam = (lam - 1) & unstable

    start = (anchor, 1 << anchor, 0)
    nodes = _layers(start, max_len, expand, fanout, _refuse_walks, spent)
    masks = {visited for s, visited, coverage in nodes if s == anchor and coverage == full}
    states = net.states()
    return {frozenset(s for s in states if mask >> s & 1) for mask in masks}, len(nodes)


def _walk_omegas(
    net: Network, bounds: OracleBounds, states
) -> dict[int, frozenset[frozenset[int]]]:
    """The anchored-walk omega sets from each of `states`: those of every
    anchor within max_prefix_len literal steps, each anchor walked once.

    The walks of all anchors share one budget of `_WALK_CAP` nodes, checked
    before each layer of each walk, with a node's successors bounded by
    the most unstable coordinates of any state; past it CapExceededError
    is raised."""
    reach = {mu: _layers(mu, bounds.max_prefix_len, lambda s: _images(net, s)) for mu in states}
    fanout = max(1 << (s ^ image).bit_count() for s, image in enumerate(net.table))
    per_anchor = {}
    spent = 0
    for anchor in set().union(*reach.values()):
        per_anchor[anchor], nodes = _anchored_omegas(
            net, anchor, bounds.max_cycle_len, fanout, spent)
        spent += nodes
    return {mu: frozenset().union(*map(per_anchor.get, anchors)) for mu, anchors in reach.items()}


def oracle_achievable_omegas(
    net: Network, mu: int, bounds: OracleBounds
) -> tuple[frozenset[frozenset[int]], bool]:
    """Omega-limit sets over bounded anchored schedules, with a
    stabilization flag: True iff growing both bounds by one adds nothing.

    The enumeration runs over the anchored canonical sub-family: schedules
    whose cycle word is a closed walk of the cycle-start state.  Every
    omega-limit set of *any* schedule with cycle length q is the visited
    set of such a closed walk of length at most 2**n * q, so the anchored
    family has the same bound-growth limit as raw word enumeration while
    staying enumerable at the lengths the limit actually needs; each
    reported set is still the replayable omega of one explicit schedule.
    """
    check_state(mu, net.n)
    results = _walk_omegas(net, bounds, [mu])[mu]
    return results, _walk_omegas(net, bounds.grown(), [mu])[mu] == results


def oracle_achievable_omegas_all(
    net: Network, bounds: OracleBounds
) -> tuple[dict[int, frozenset[frozenset[int]]], dict[int, bool]]:
    """oracle_achievable_omegas for every state at once."""
    results = _walk_omegas(net, bounds, net.states())
    grown = _walk_omegas(net, bounds.grown(), net.states())
    stabilized = {mu: grown[mu] == results[mu] for mu in net.states()}
    return results, stabilized


def oracle_basin(
    net: Network, attractor: Iterable[int], mode: str, bounds: OracleBounds
) -> frozenset[int]:
    """Basin membership of `attractor` (any iterable, read once) from the bounded omega sets."""
    if mode not in ("p", "n"):
        raise ValueError("mode must be 'p' or 'n'")
    attractor = graph._state_set(net, attractor, "attractor must be nonempty")
    omegas = _walk_omegas(net, bounds, net.states())
    p, n = _omega_basins(omegas, _omega_unions(omegas), attractor)
    return p if mode == "p" else n


def _omega_unions(omegas: dict[int, frozenset[frozenset[int]]]) -> dict[int, frozenset[int]]:
    """Per state, the union of its omega sets; empty for an empty family."""
    return {mu: frozenset().union(*oms) for mu, oms in omegas.items()}


def _omega_basins(
    omegas: dict[int, frozenset[frozenset[int]]],
    unions: dict[int, frozenset[int]],
    a: frozenset[int],
) -> tuple[frozenset[int], frozenset[int]]:
    """The p- and n-basins of `a` read off per-state omega families, given
    their `_omega_unions`: the states with some, respectively every, omega
    set inside `a`.  Every omega set lies inside `a` iff their union does,
    and an empty family has both."""
    p = frozenset(mu for mu, oms in omegas.items() if any(om <= a for om in oms))
    n = frozenset(mu for mu, union in unions.items() if union <= a)
    return p, n


# --- theorem verification -------------------------------------------------


@dataclass
class VerificationReport:
    checks: dict[str, list[int]] = field(default_factory=dict)  # name -> [pass, fail]
    counterexamples: list[dict] = field(default_factory=list)

    def record(self, name: str, passed: bool, payload: dict | None = None) -> None:
        entry = self.checks.get(name)
        if entry is None:
            entry = self.checks[name] = [0, 0]
        if passed:
            entry[0] += 1
        else:
            entry[1] += 1
            self.counterexamples.append({"check": name, **(payload or {})})

    @property
    def total_failures(self) -> int:
        return sum(fails for _, fails in self.checks.values())

    @property
    def ok(self) -> bool:
        return self.total_failures == 0


@functools.lru_cache(maxsize=4)
def _every_set(n: int) -> tuple[frozenset[int], ...]:
    """Every nonempty state set at dimension n, in increasing order of its
    mask; kept per n, since it depends on nothing else."""
    return tuple(frozenset(s for s in range(1 << n) if mask >> s & 1)
                 for mask in range(1, 1 << (1 << n)))


def _samples_every_set(n: int, max_sets: int | None) -> bool:
    # asking for at least every nonempty set means all of them; sampling
    # could never reach that many distinct draws
    return max_sets is None or max_sets >= (1 << (1 << n)) - 1


def _sample_sets(
    net: Network, eq: frozenset[int], max_sets: int | None, rng: random.Random
):
    """Every nonempty state set, or at most `max_sets` of them: the full
    space, the fixed-point set, every singleton if they all fit, then
    random ones.  Every set is given without drawing."""
    if _samples_every_set(net.n, max_sets):
        return _every_set(net.n)
    universe = sorted(net.states())
    chosen = set()
    for a in (frozenset(universe), eq):
        if a and len(chosen) < max_sets:
            chosen.add(a)
    # all singletons or none: the state loop of _check_set_basins covers
    # each point's basins, so a budget they overrun goes to random sets
    singletons = {frozenset({s}) for s in universe}
    if len(chosen | singletons) <= max_sets:
        chosen |= singletons
    while len(chosen) < max_sets:
        size = rng.randint(1, len(universe))
        chosen.add(frozenset(rng.sample(universe, size)))
    return sorted(chosen, key=lambda s: (len(s), sorted(s)))


class _Draws:
    """The schedules drawn from one generator state at one n, each with its
    text, and what is kept with them: `end`, the generator state the draws
    leave; `laws`, the schedule-law facts of each schedule with the
    transforms that derived them; and `then`, the draws that start at
    `end`, when nothing was drawn in between."""

    __slots__ = ("schedules", "end", "laws", "then")

    def __init__(self, schedules, end):
        self.schedules, self.end, self.laws, self.then = schedules, end, None, None


# the draws per key, (n, generator state) or, for draws from a fresh
# Random(0), (n, None); the oldest entry goes first
_DRAWS: dict[tuple, _Draws] = {}
_DRAWS_KEPT = 16


def _draws(n: int, rng: random.Random, key: tuple | None = None,
           after: _Draws | None = None) -> _Draws:
    """The draws of `_sample_schedules`, which depend only on n and the
    generator state: kept per `key`, (n, rng.getstate()) unless the caller
    knows the state, or with the draws `after`, in whose end state the
    generator is.  A repeat moves the generator to the state the draws
    left it in, as drawing again would."""
    if after is not None:
        kept = after.then
    else:
        key = key or (n, rng.getstate())
        kept = _DRAWS.get(key)
    if kept is not None:
        rng.setstate(kept.end)
        return kept
    out = [synchronous(n)]
    alphabet = list(range(1 << n))
    for _ in range(2):
        plen = rng.randint(0, 3)
        qlen = rng.randint(1, 4)
        cycle_fires = [rng.choice(alphabet) for _ in range(qlen)]
        cycle_fires[rng.randrange(qlen)] |= full_mask(n)  # force progressive
        denom = rng.choice([1, 2, 3, 4])
        prefix = tuple(
            (Fraction(k, denom) - plen, rng.choice(alphabet)) for k in range(plen)
        )
        period = Fraction(rng.randint(1, 5), denom)
        slots = rng.randint(qlen, qlen + 3)
        offsets = sorted(rng.sample(range(slots), qlen))
        cycle = tuple(
            (period * Fraction(off, slots), fire)
            for off, fire in zip(offsets, cycle_fires)
        )
        out.append(Schedule(n, prefix, cycle, period, Fraction(1)))
    drawn = _Draws(tuple((rho, str(rho)) for rho in out), rng.getstate())
    if after is not None:
        after.then = drawn
    else:
        if len(_DRAWS) >= _DRAWS_KEPT:
            del _DRAWS[next(iter(_DRAWS))]
        _DRAWS[key] = drawn
    return drawn


def _sample_schedules(net: Network, rng: random.Random) -> tuple[tuple[Schedule, str], ...]:
    """The synchronous schedule and two structurally varied fair schedules
    with rational times, each with its text, kept per (n, generator
    state)."""
    return _draws(net.n, rng).schedules


def _check_run(
    report: VerificationReport,
    net: Network,
    mu: int,
    orbit: frozenset[int],
    omega: frozenset[int],
    eq: frozenset[int],
    graph_ach: dict[int, frozenset[frozenset[int]]] | None,
    payload: dict,
) -> None:
    report.record("omega_nonempty", bool(omega), payload)
    report.record("omega_subset_orbit", omega <= orbit, payload)
    if len(omega) == 1:
        report.record(
            "singleton_omega_is_fixed_point",
            next(iter(omega)) in eq,
            payload,
        )
    hit = orbit & eq
    if hit:
        report.record(
            "fixed_point_in_orbit_forces_constant_tail",
            len(hit) == 1 and omega == hit,
            payload,
        )
    if mu in eq:
        report.record("fixed_point_orbit_is_singleton", orbit == {mu}, payload)
    if graph_ach is not None:
        report.record("omega_is_graph_achievable", omega in graph_ach[mu], payload)


# the word oracle enumerates 2**n-letter words and graph achievability
# enumerates 2**|SCC| masks per SCC; past n=3 either dominates the whole
# run, so the checks needing them are restricted to small nets
_SUB_SCC_MAX_N = 3


def _check_word_oracle(report, net, base, bounds, eq, graph_ach, runs, word_omegas):
    """Every bounded word run obeys the omega laws, and the word omega sets
    lie inside the anchored-walk oracle's and the graph's."""
    for mu in net.states():
        payload = {**base, "mu": format_bits(mu, net.n)}
        for orbit, omega in runs[mu]:
            _check_run(report, net, mu, orbit, omega, eq, graph_ach, payload)
    # the walk oracle with both bounds inflated by 2**n * q dominates
    # raw word enumeration: a loop spanning k occurrences of a
    # length-q word is a closed walk of length k*q with k <= 2**n,
    # anchored at a state up to that many steps past the prefix
    inflation = (1 << net.n) * bounds.max_cycle_len
    walk = _walk_omegas(
        net, OracleBounds(bounds.max_prefix_len + inflation, inflation), net.states()
    )
    for mu in net.states():
        payload = {**base, "mu": format_bits(mu, net.n)}
        report.record(
            "word_omegas_within_walk_omegas", word_omegas[mu] <= walk[mu], payload
        )
        report.record(
            "oracle_omegas_within_graph_omegas", word_omegas[mu] <= graph_ach[mu], payload
        )
        report.record(
            "walk_omegas_within_graph_omegas", walk[mu] <= graph_ach[mu], payload
        )


_SHIFTS = (Fraction(5), Fraction(1, 2), Fraction(-3))
_SHIFT = Fraction(7, 3)
# each probe time, with its time on the shifted schedule
_PROBES = tuple(
    (t, t + _SHIFT) for t in (Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(11, 2))
)
# each restriction time, with the times its restricted flow is compared at
_CUTS = tuple((cut, (cut, cut + Fraction(1, 2), cut + 3))
              for cut in (Fraction(-10), Fraction(1, 3), Fraction(2), Fraction(9, 2)))


def _law_facts(rho: Schedule):
    """What the schedule laws ask of `rho` on any network: the distinct
    fire words of rho and of its transforms, each transform as its word's
    index, each restriction's progressiveness, and the event counts at
    every time the laws ask."""
    words = {}

    def index(sched):
        word = tuple(fire for _, fire in sched.prefix), sched.cycle.word
        return words.setdefault(word, len(words))

    reference = index(rho)
    translated = [index(translate(rho, d)) for d in _SHIFTS]
    shifted = translate(rho, _SHIFT)
    probes = [(rho._count(t), shifted._count(t2)) for t, t2 in _PROBES]
    cuts = []
    for t_prime, times in _CUTS:
        tail = restrict_after(rho, t_prime)
        cuts.append((index(tail), is_progressive(tail), rho._count(t_prime),
                     [(rho._count(t), tail._count(t)) for t in times]))
    return list(words), reference, translated, index(shifted), probes, cuts


def _check_schedule_laws(report, net, base, eq, graph_ach, answers, draws):
    """Omega-limit, invariance, translation and restriction laws along
    sampled rational-time schedules."""
    table = net.table
    # the facts are kept with the draws, and derived again when a
    # transform they were derived with is no longer the one asked
    transforms = translate, restrict_after, is_progressive
    if draws.laws is None or draws.laws[0] != transforms:
        draws.laws = transforms, [_law_facts(rho) for rho, _ in draws.schedules]
    for (rho, schedule), facts in zip(draws.schedules, draws.laws[1]):
        words, reference, translated, shifted, probes, cuts = facts
        # the run of each fire word from each start state, with its omega,
        # folded on the first ask; transforms firing the same word share it
        folded = [{} for _ in words]

        def run(i, mu):
            got = folded[i].get(mu)
            if got is None:
                values, loop = _fold(table, mu, *words[i])
                got = folded[i][mu] = values, loop, frozenset(values[loop:])
            return got

        for mu in net.states():
            payload = {**base, "mu": format_bits(mu, net.n), "schedule": schedule}
            # the reference flow answers its orbit, omega and every value below
            values, loop, omega = run(reference, mu)
            orbit = frozenset(values)
            _check_run(report, net, mu, orbit, omega, eq, graph_ach, payload)
            report.record("orbit_is_p_invariant", answers.p_inv(orbit), payload)
            report.record("omega_is_p_invariant", answers.p_inv(omega), payload)
            for moved in translated:
                report.record("translation_preserves_omega", run(moved, mu)[2] == omega, payload)
            shifted_values, shifted_loop, _ = run(shifted, mu)
            for count, shifted_count in probes:
                report.record(
                    "translated_flow_matches_shifted_time",
                    _value(shifted_values, shifted_loop, shifted_count)
                    == _value(values, loop, count),
                    payload,
                )
            for tail, progressive, cut_count, counts in cuts:
                tail_values, tail_loop, tail_omega = run(tail, _value(values, loop, cut_count))
                report.record("restriction_is_progressive", progressive, payload)
                for count, tail_count in counts:
                    report.record(
                        "flow_factors_through_restriction",
                        _value(tail_values, tail_loop, tail_count) == _value(values, loop, count),
                        payload,
                    )
                report.record("omega_cocycle", tail_omega == omega, payload)


def _check_achievability(report, net, base, eq, graph_ach, answers, reach):
    """Every graph-achievable omega set is achievable and its witness
    schedule replays to it; reachable and fixed-point sets are n-invariant."""
    if graph_ach is not None:
        for mu in net.states():
            payload = {**base, "mu": format_bits(mu, net.n)}
            report.record("achievable_omegas_nonempty", bool(graph_ach[mu]), payload)
            for target in graph_ach[mu]:
                # witness_schedule tests achievability itself and raises
                # ValueError when the target is not achievable from mu
                try:
                    witness = basins_mod.witness_schedule(net, mu, target)
                except ValueError:
                    ok = False
                else:
                    ok = omega_limit(net, mu, witness) == target
                report.record("achievable_omega_witness_replays", ok, payload)
    for mu in net.states():
        payload = {**base, "mu": format_bits(mu, net.n)}
        report.record("reachable_set_is_n_invariant", answers.n_inv(reach[mu]), payload)
    if eq:
        report.record("fixed_point_set_is_n_invariant", answers.n_inv(eq), base)
        for mu in eq:
            report.record(
                "fixed_point_singleton_is_n_invariant",
                answers.n_inv(frozenset({mu})),
                {**base, "mu": format_bits(mu, net.n)},
            )


def _check_set_basins(report, net, base, eq, graph_ach, answers, runs, word_omegas, sets):
    """Invariance and basin theorems over sampled state sets, with the
    word oracle's basins bracketing the graph's."""
    states = net.states()
    if graph_ach is not None:
        graph_unions, word_unions = _omega_unions(graph_ach), _omega_unions(word_omegas)
    for a in sets:
        p_inv = answers.p_inv(a)
        n_inv = answers.n_inv(a)
        w_p = answers.basin_p(a)
        w_n = answers.basin_n(a)
        payload = {**base, "A": sorted(format_bits(s, net.n) for s in a)}
        report.record(
            "single_step_closure_matches_n_invariance",
            n_inv == all(a.issuperset(_images(net, mu)) for mu in a),
            payload,
        )
        report.record("n_invariant_implies_p_invariant", (not n_inv) or p_inv, payload)
        report.record(
            "p_invariant_set_inside_its_p_basin", (not p_inv) or a <= w_p, payload
        )
        report.record(
            "n_invariant_set_inside_its_n_basin", (not n_inv) or a <= w_n, payload
        )
        report.record("n_basin_inside_p_basin", w_n <= w_p, payload)
        report.record(
            "nonempty_p_basin_is_p_invariant",
            (not w_p) or answers.p_inv(w_p),
            payload,
        )
        report.record(
            "nonempty_n_basin_is_n_invariant",
            (not w_n) or answers.n_inv(w_n),
            payload,
        )
        if graph_ach is not None:
            ach_p, ach_n = _omega_basins(graph_ach, graph_unions, a)
            report.record("p_basin_matches_achievable_omegas", w_p == ach_p, payload)
            report.record("n_basin_matches_achievable_omegas", w_n == ach_n, payload)
            oracle_p, oracle_n = _omega_basins(word_omegas, word_unions, a)
            report.record("oracle_p_basin_subset_of_graph", oracle_p <= w_p, payload)
            report.record("oracle_n_basin_superset_of_graph", w_n <= oracle_n, payload)
            # oracle p-invariance: every member keeps some bounded orbit inside
            oracle_p_inv = all(any(orbit <= a for orbit, _ in runs[mu]) for mu in a)
            report.record(
                "oracle_p_invariance_subset_of_graph", (not oracle_p_inv) or p_inv, payload
            )

    # the full space and every singleton are checked whether or not the
    # sample holds them
    full = frozenset(states)
    report.record("full_space_p_basin_is_everything", answers.basin_p(full) == full, base)
    report.record("full_space_n_basin_is_everything", answers.basin_n(full) == full, base)

    ordered = sorted(sets, key=len)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if a <= b:
                report.record(
                    "basin_monotonicity",
                    answers.basin_p(a) <= answers.basin_p(b)
                    and answers.basin_n(a) <= answers.basin_n(b),
                    base,
                )

    for mu in states:
        single = frozenset({mu})
        w_p, w_n = answers.basin_p(single), answers.basin_n(single)
        payload = {**base, "mu": format_bits(mu, net.n)}
        fixed = mu in eq
        report.record(
            "point_basin_nonempty_iff_fixed",
            (bool(w_p) == fixed) and (bool(w_n) == fixed),
            payload,
        )
        if fixed:
            report.record(
                "fixed_point_basin_chain", single <= w_n <= w_p, payload
            )


def _check_flow_basins(report, net, base, eq, graph_ach, answers, draws):
    """Orbit and omega basins of sampled flows against each other, against
    the set basins of the orbit and the omega-limit set, and, where the
    graph's achievable omega sets are known, the omega n-basin against its
    definition."""
    for rho, schedule in draws.schedules:
        for mu in net.states():
            payload = {**base, "mu": format_bits(mu, net.n), "schedule": schedule}
            values, loop = _run(net, mu, rho)
            orbit, omega = frozenset(values), frozenset(values[loop:])
            ob_p = basins_mod.orbit_basin_p(net, mu, rho, with_witnesses=False).members
            ob_n = basins_mod.orbit_basin_n(net, mu, rho).members
            om_p = basins_mod.omega_basin_p(net, mu, rho, with_witnesses=False).members
            om_n = basins_mod.omega_basin_n(net, mu, rho).members
            report.record("orbit_p_basin_equals_omega_p_basin", ob_p == om_p, payload)
            report.record("orbit_inside_orbit_p_basin", orbit <= ob_p, payload)
            report.record(
                "orbit_n_basin_nonempty_iff_constant_tail",
                bool(ob_n) == (len(omega) == 1),
                payload,
            )
            report.record(
                "orbit_p_basin_equals_set_basin_of_orbit",
                ob_p == answers.basin_p(orbit),
                payload,
            )
            report.record(
                "orbit_n_basin_inside_set_basin_of_orbit",
                ob_n <= answers.basin_n(orbit),
                payload,
            )
            report.record(
                "omega_p_basin_equals_set_basin_of_omega",
                om_p == answers.basin_p(omega),
                payload,
            )
            report.record("orbit_p_basin_is_p_invariant", answers.p_inv(ob_p), payload)
            if ob_n:
                report.record("orbit_n_basin_is_n_invariant", answers.n_inv(ob_n), payload)
            report.record("orbit_n_basin_inside_omega_n_basin", ob_n <= om_n, payload)
            report.record(
                "omega_n_basin_inside_set_basin_of_omega",
                om_n <= answers.basin_n(omega),
                payload,
            )
            if om_n:
                report.record("omega_n_basin_is_n_invariant", answers.n_inv(om_n), payload)
            if graph_ach is not None:
                # every fair schedule from s has omega as its limit set
                report.record(
                    "omega_n_basin_matches_achievable_omegas",
                    om_n == frozenset(s for s, oms in graph_ach.items() if oms == {omega}),
                    payload,
                )
            if len(omega) == 1:
                report.record(
                    "constant_tail_n_basins_collapse",
                    ob_n == om_n == answers.basin_n(omega),
                    payload,
                )
            if mu in eq:
                report.record(
                    "fixed_point_basins_all_coincide",
                    ob_p
                    == om_p
                    == answers.basin_p(frozenset({mu}))
                    and ob_n == answers.basin_n(frozenset({mu})),
                    payload,
                )


def verify_theorems(
    net: Network, bounds: OracleBounds, *, max_sets: int | None = None
) -> VerificationReport:
    """Check the invariance, omega-limit and basin theorems on one network.

    Five check families run in order:

    - word oracle: every bounded integer-time word schedule within `bounds`,
      against the anchored-walk oracle and the graph's achievable omega sets;
    - schedule laws: omega, translation and restriction laws along three
      sampled rational-time schedules;
    - achievability: witness replay for every graph-achievable omega set,
      and n-invariance of reachable and fixed-point sets;
    - set basins: invariance and basin theorems over every nonempty state
      set, or over `max_sets` sampled ones;
    - flow basins: orbit and omega basins of three more sampled schedules.

    The checks that enumerate words or fair sub-SCCs (the whole word-oracle
    family, graph achievability and the checks against it, such as the
    omega n-basin against its definition) run only for n <= 3; the rest
    run at every n.  Sampling draws from one generator seeded with 0, so a
    reported counterexample replays exactly.  Failures are data, not
    errors: each one lands in the report with a replayable payload.

    Each fact is computed once per call: forward reach once per SCC, whose
    states share it; the word runs fold each distinct action of a bounded
    cycle word once, from every state; each flow, of a sampled schedule or
    of a transform, is one integer run of its fire word that answers every
    value, orbit and omega asked of it, and transforms firing the same word
    from the same start share it, so `flow_at` and `orbit_trace` are not
    called here (tests/test_flow_kernel.py pins them to the run); the
    union of each state's omega sets, which decides its n-basin
    membership, is taken once per omega family; and the set-level
    reference answers (invariance, and the p- and n-basin of a given set)
    are memoized per call, shared by the families and dropped when the
    call returns.  The functions under test (orbit and omega basins,
    witnesses) run once per flow.

    What depends only on the draws outlives a call.  The sampled schedules
    with their text are kept in a cache of `_DRAWS_KEPT` entries: the
    laws' draws, which start from a fresh generator, per n; the flow
    basins' draws with the laws' when the set sample drew nothing, and per
    (n, generator state) otherwise.  Kept with each draw are the fire
    words of its transforms and its event counts at every time the laws
    ask, keyed by the transforms that derived them and derived again when
    one differs, so a patched transform is the one asked.  The list of
    every nonempty state set is kept per n.  No transformed schedule, run,
    check or answer is kept across calls.

    `max_sets` is None or an int of at least 1; anything else raises
    ValueError before any graph work.
    """
    if max_sets is not None and not (isinstance(max_sets, int) and max_sets >= 1):
        raise ValueError(f"max_sets must be None or an int of at least 1, got {max_sets!r}")
    rng = random.Random(0)
    report = VerificationReport()
    # every counterexample payload starts with the net; it is formatted
    # once here, although only failing checks ever read it
    base = {"n": net.n, "table": [format_bits(r, net.n) for r in net.table]}
    eq = fixed_points(net)
    graph._check_graph_cap(net)
    # forward reach is a fact of the SCC: its least member's BFS, done
    # first, is shared by the rest
    rep = graph._graph(net).rep
    reach = {}
    for mu in net.states():
        reach[mu] = reach[rep[mu]] if rep[mu] < mu else graph.reachable_set(net, mu)
    graph_ach = runs = word_omegas = None
    if net.n <= _SUB_SCC_MAX_N:
        graph_ach = {mu: graph.achievable_omegas_from(net, mu) for mu in net.states()}
        runs = _word_runs(net, bounds)
        word_omegas = {
            mu: frozenset(omega for _, omega in pairs) for mu, pairs in runs.items()
        }
        _check_word_oracle(report, net, base, bounds, eq, graph_ach, runs, word_omegas)
    # the set-level reference answers, each computed once per set and
    # dropped when the call returns; each looks its function up in `graph`
    # or `basins` when called, so a patched function is the one asked
    answers = SimpleNamespace(
        p_inv=functools.cache(lambda a: graph.is_p_invariant(net, a)),
        n_inv=functools.cache(lambda a: graph.is_n_invariant(net, a)),
        basin_p=functools.cache(lambda a: basins_mod.basin_p(net, a, False).members),
        basin_n=functools.cache(lambda a: basins_mod.basin_n(net, a).members),
    )
    # the laws' draws start from a fresh generator, so they are kept per n
    laws = _draws(net.n, rng, (net.n, None))
    _check_schedule_laws(report, net, base, eq, graph_ach, answers, laws)
    _check_achievability(report, net, base, eq, graph_ach, answers, reach)
    sets = _sample_sets(net, eq, max_sets, rng)
    _check_set_basins(report, net, base, eq, graph_ach, answers, runs, word_omegas, sets)
    # a sample of every set draws nothing, so the flow basins' draws start
    # where the laws' draws end, and are kept with them
    flows = _draws(net.n, rng, after=laws if _samples_every_set(net.n, max_sets) else None)
    _check_flow_basins(report, net, base, eq, graph_ach, answers, flows)
    return report
