"""Basins of attraction of sets, fixed points, orbits and omega-limit sets.

Every basin is a backward closure in `graph`: the states that can reach
some set of fair SCCs.  basin_p(A) closes over the fair SCCs of the
subgraph induced on A, which `graph` finds inside the graph's cached
SCCs; basin_n(A) is the complement of the closure of every full-graph
fair SCC not contained in A.  Each anchor lies in one SCC of the whole
graph, and the closure of any part of an SCC is the closure of all of it,
so without witnesses an answer is a union of the per-SCC closures the
graph keeps (`graph._reaching`).  Past their cap, and whenever witnesses
are asked for, one backward closure (`graph._backward_closure`) answers
from all the anchors at once.  It and every shortest path here
(`_bfs_path`) are the one breadth-first walk of `graph` (`graph._bfs`).

Existential ("p") basins come with constructive witness schedules taken
from the same BFS tree: its next-hop pointers give every member a
shortest walk to a source, its next hop's walk with one step in front,
and one covering cycle per source is shared by every member that ends
there.  The members of one BFS layer put their step at one time in front
of schedules that share their first time, so that time is checked once
per layer, each step's fire set once, and the witness is built from
parts already checked.  The aligned witness of `witness_schedule` is
built in one pass, behind the cut that `restrict_after` finds on the
reference schedule's integer grid.  The cycle of a source whose fair
SCC is a whole SCC of the graph is kept on the graph, so later queries
into that SCC reuse it.  A covering cycle is any closed walk through
every state of the fair SCC: each coordinate unstable throughout a fair
set takes both values inside it, so the walk fires it, and the cycle
co-fires the coordinates stable where it stands.  A reported membership
can always be replayed through the schedule module and checked against
the claimed omega-limit relation.  Universal ("n") basins are decided by
graph conditions alone and carry no witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from . import graph
from .core import Network, check_state, full_mask
from .schedule import Schedule, _FlowRecord, _layer, _run, _trusted, omega_limit, restrict_after


class NotAchievableError(ValueError):
    """The target is not fair, not strongly connected or not reachable."""


@dataclass(frozen=True)
class BasinResult:
    members: frozenset[int]
    witnesses: dict[int, Schedule] = field(default_factory=dict)

    def __contains__(self, mu: int) -> bool:
        return mu in self.members


@dataclass(frozen=True)
class AttractivityClass:
    p_class: str  # 'not' | 'partial' | 'total'
    n_class: str


def _classify(members: frozenset[int], n: int) -> str:
    if not members:
        return "not"
    if len(members) == 1 << n:
        return "total"
    return "partial"


_EMPTY = "basins are defined for nonempty sets only"


def _bfs_path(net: Network, start: int, goals, domain=None):
    """Shortest fire-set word from start into `goals`, along the proper
    edges, or along those inside `domain` when given.  Returns (word, end
    state) or None."""
    if start in goals:
        return [], start
    parent = graph._bfs(graph._successors(net), (start,), domain, goals)
    end = mu = next(reversed(parent))
    if end not in goals:
        return None
    word = []
    while mu != start:
        word.append(mu ^ parent[mu])
        mu = parent[mu]
    return word[::-1], end


def covering_walk(net: Network, target: Iterable[int], anchor: int) -> list[int]:
    """A closed walk from `anchor` through every state of a fair `target`
    (any iterable, read once), on edges internal to it: a coordinate
    unstable throughout a fair set takes both values inside it, so the walk
    fires it.  Returns the fire-set word of the walk (possibly empty)."""
    target = graph._state_set(net, target)
    if anchor not in target:
        raise ValueError("anchor must lie in the target")
    if not graph._is_fair(net, target):
        raise NotAchievableError("target set is not fair")

    def leg(start: int, goals) -> tuple[list[int], int]:
        step = _bfs_path(net, start, goals, target)
        if step is None:
            raise NotAchievableError("target set is not strongly connected")
        return step

    word: list[int] = []
    current = anchor
    pending = set(target) - {anchor}
    while pending:
        step, current = leg(current, pending)
        word.extend(step)
        pending.discard(current)
    return word + leg(current, {anchor})[0]


def _covering_cycle(net: Network, target: frozenset[int], anchor: int):
    """Timed cycle events replaying a covering walk of `target` from
    `anchor` at integer times, co-firing the coordinates stable at each
    source so that every coordinate appears."""
    word = covering_walk(net, target, anchor)
    full = full_mask(net.n)
    if not word:
        return ((0, full),), 1
    table = net.table
    events = []
    state = anchor
    for k, fire in enumerate(word):
        image = table[state]
        events.append((k, fire | (full & ~(state ^ image))))
        state = (state & ~fire) | (image & fire)
    return tuple(events), len(word)


def _anchor_witness(net: Network, scc: frozenset[int], anchor: int) -> Schedule:
    """The witness of `anchor`, the least member of a fair SCC of an
    induced subgraph: its covering cycle, repeated from time 0.  The cycle
    of a whole fair SCC of the graph is built once and kept on the graph;
    that of a part cut out of one is built per query."""
    g = graph._graph(net)
    whole = g.fair.get(anchor)
    # scc lies inside the graph's SCC of its least member, so it is all of
    # that SCC when their sizes agree
    keep = whole is not None and len(whole) == len(scc)
    if keep and anchor in g.cycles:
        return _walk_then_cycle(net.n, [], *g.cycles[anchor])
    witness = _walk_then_cycle(net.n, [], *_covering_cycle(net, scc, anchor))
    if keep:
        graph._keep_cycle(g, anchor, (witness.cycle, witness.period))
    return witness


def _walk_then_cycle(n: int, word: list[int], cycle, period: int) -> Schedule:
    """Fire `word` at times 0, 1, 2, ..., then repeat `cycle` forever.
    Integral times stay ints: they compare and render like Fractions."""
    return Schedule(n, tuple(enumerate(word)), cycle, period, len(word))


def _splicer(net: Network, mu: int, rho: Schedule):
    """Where a witness joins the flow of (mu, rho): its omega-limit set, a
    state it holds during the first segment of its periodic tail, a time t2
    strictly inside that segment, and rho restricted to times after t2.  A
    walk of length L to that state, fired at times t2 - L, ..., t2 - 1 in
    front of the tail, is a witness whose flow coincides pointwise with the
    flow of (mu, rho) from t2 on."""
    flow = _FlowRecord(net, mu, rho)
    # the segment runs from the loop entry to the next change, or through a
    # whole period when the tail is constant
    end = next(flow.after(flow.entry), flow.entry + flow.period)
    t2 = Fraction(flow.entry + end, 2 * flow.den)
    # t2 lies past the cycle start, so the cut occurrence joins the prefix
    # and the whole occurrences after t2 stay the cycle
    return frozenset(flow.values[flow.lead:]), flow.value(flow.entry), t2, restrict_after(rho, t2)


def witness_schedule(
    net: Network,
    mu_from: int,
    target: Iterable[int],
    align_to: tuple[int, Schedule] | None = None,
) -> Schedule:
    """An eventually periodic fair schedule driving mu_from to the
    omega-limit set `target`, any iterable of states, read once.

    Without alignment: walk to `target`, then repeat a closed covering
    walk of it forever.  With align_to=(mu, rho), where omega of (mu, rho)
    equals `target`, the witness is spliced so that its flow coincides
    pointwise with the (mu, rho) flow from some time on: reach a state the
    reference flow holds during one of its periodic segments, then copy
    the reference schedule verbatim.

    The witness decides achievability: NotAchievableError when no walk
    reaches the target, or when its covering walk finds it not fair or not
    strongly connected.  An aligned target is the omega of a fair flow, so
    it is both; a reference flow whose omega is not the target is a plain
    ValueError.
    """
    check_state(mu_from, net.n)
    target = graph._state_set(net, target, _EMPTY)
    if align_to is None:
        found = _bfs_path(net, mu_from, target)
    else:
        omega, seg_state, t2, tail = _splicer(net, *align_to)
        if omega != target:
            raise ValueError("align_to flow does not have the target as omega-limit set")
        found = _bfs_path(net, mu_from, frozenset({seg_state}))
    if found is None:
        raise NotAchievableError("target is not achievable from the given state")
    word, end = found
    if align_to is None:
        return _walk_then_cycle(net.n, word, *_covering_cycle(net, target, end))
    # the walk fires at t2 - L, ..., t2 - 1, one time unit apart: the
    # last time is checked against the tail's first, each letter as it is
    # placed, and the prefix is built in one pass
    event = _layer(tail.n, t2 - 1, tail.prefix[0][0] if tail.prefix else tail.cycle_start)
    walk = tuple(event(fire, len(word) - 1 - k) for k, fire in enumerate(word))
    return _trusted(tail.n, walk + tail.prefix, tail.cycle, tail.period, tail.cycle_start)


def basin_p(net: Network, attractor: Iterable[int], with_witnesses: bool = True) -> BasinResult:
    """States from which some fair schedule drives the omega-limit set
    inside `attractor`, any iterable of states, read once."""
    attractor = graph._state_set(net, attractor, _EMPTY)
    fair = graph._fair_sccs(net, attractor)
    # each fair SCC is strongly connected, so one anchor per SCC has the
    # same backward closure as the whole SCC
    anchors = {min(scc): scc for scc in fair}
    if not with_witnesses:
        parts = graph._reaching(net, anchors)
        return BasinResult(parts[0] if len(parts) == 1 else frozenset().union(*parts))
    hop = graph._backward_closure(net, list(anchors))
    witnesses: dict[int, Schedule] = {}
    # a member's word is its next hop's with one letter in front, fired
    # at times 0, 1, 2, ...; _backward_closure puts every next hop
    # first.  Each anchor's own witness carries its validated covering
    # cycle, built or kept, and the members ending there share it.  Every
    # first letter goes at 0 in front of a word or cycle starting at 1:
    # one layer for all of them
    words: dict[int, tuple[int, ...]] = {}
    event = _layer(net.n, 0, 1)
    for mu, nxt in hop.items():
        if mu == nxt:
            words[mu] = ()
            witnesses[mu] = _anchor_witness(net, anchors[mu], mu)
        else:
            words[mu] = (mu ^ nxt,) + words[nxt]
            ahead = witnesses[nxt]
            witnesses[mu] = _trusted(net.n, (event(mu ^ nxt),) + tuple(enumerate(words[nxt], 1)),
                                     ahead.cycle, ahead.period, len(words[mu]))
    return BasinResult(frozenset(hop), witnesses)


def basin_n(net: Network, attractor: Iterable[int]) -> BasinResult:
    """States from which every fair schedule drives the omega-limit set
    inside `attractor`, any iterable read once: those reaching no fair SCC leaving it."""
    attractor = graph._state_set(net, attractor, _EMPTY)
    escapes = [least for least, scc in graph._graph(net).fair.items() if not scc <= attractor]
    return BasinResult(graph._STATE_SETS[net.n].difference(*graph._reaching(net, escapes)))


def attractivity_class(net: Network, attractor: Iterable[int]) -> AttractivityClass:
    """The p- and n-classes of `attractor`, any iterable of states, read once."""
    attractor = graph._state_set(net, attractor, _EMPTY)
    return AttractivityClass(
        _classify(basin_p(net, attractor, with_witnesses=False).members, net.n),
        _classify(basin_n(net, attractor).members, net.n),
    )


def orbit_basin_p(
    net: Network, mu: int, rho: Schedule, with_witnesses: bool = True
) -> BasinResult:
    """States whose flow can be made to coincide pointwise with the given
    flow from some time on: the predecessors of its omega-limit set."""
    graph._check_graph_cap(net)
    # omega is the periodic tail of one flow, so it is strongly connected
    # and its backward closure is that of the SCC holding any of its states
    if not with_witnesses:
        values, tail = _run(net, mu, rho)
        return BasinResult(graph._reaching(net, [values[tail]])[0])
    # the BFS tree toward the splice state gives every member its walk
    # there; a member at depth d fires its first letter at t2 - d, in front
    # of its next hop's witness, whose prefix is d - 1 events longer than
    # the tail's; _backward_closure puts every next hop first
    _, seg_state, t2, tail = _splicer(net, mu, rho)
    hop = graph._backward_closure(net, [seg_state])
    n, cycle, period, start = tail.n, tail.cycle, tail.period, tail.cycle_start
    # the BFS visits depths in order, and a member's depth changes only
    # with its next hop's prefix length: each layer's time is made and
    # checked once, at its first member
    witnesses, width, event = {seg_state: tail}, None, None
    for mu2, nxt in hop.items():
        if mu2 != nxt:
            ahead = witnesses[nxt].prefix
            if len(ahead) != width:
                width = len(ahead)
                event = _layer(n, t2 - (width - len(tail.prefix) + 1),
                               ahead[0][0] if ahead else start)
            witnesses[mu2] = _trusted(n, (event(mu2 ^ nxt),) + ahead, cycle, period, start)
    return BasinResult(frozenset(hop), witnesses)


def orbit_basin_n(net: Network, mu: int, rho: Schedule) -> BasinResult:
    """Empty unless the flow is eventually constant; then the n-basin of
    its final value."""
    omega = omega_limit(net, mu, rho)
    if len(omega) > 1:
        return BasinResult(frozenset())
    return basin_n(net, omega)


def omega_basin_p(
    net: Network, mu: int, rho: Schedule, with_witnesses: bool = True
) -> BasinResult:
    """States from which some fair schedule reproduces the given
    omega-limit set exactly."""
    omega = omega_limit(net, mu, rho)
    # the exact-equality basin coincides with the subset basin of omega:
    # reaching any part of omega reaches all of it, after which a covering
    # cycle realizes equality
    return basin_p(net, omega, with_witnesses)


def omega_basin_n(net: Network, mu: int, rho: Schedule) -> BasinResult:
    """States from which every fair schedule reproduces the given
    omega-limit set exactly."""
    graph._check_graph_cap(net)
    omega = omega_limit(net, mu, rho)
    # nonempty only when omega is a whole fair SCC admitting no proper fair
    # strongly connected subset, as a fixed point is.  A nonempty
    # basin_n(omega) implies the first: every state reaches a terminal SCC,
    # which is fair, and an SCC inside the strongly connected omega is all
    # of omega.  Fairness is monotone along strongly connected supersets (a
    # superset has no more coordinates unstable at every member, and no
    # fewer that vary), so such a subset exists iff omega minus one state
    # still has a fair SCC.  A chain state, with one internal predecessor
    # and one internal successor, is no fixed point, and a strongly
    # connected subset that holds it holds its whole maximal chain: one
    # removal per chain answers for every state of it.
    result = basin_n(net, omega)
    if result.members and any(graph._fair_sccs(net, omega - {s}) for s in _chain_cut(net, omega)):
        return BasinResult(frozenset())
    return result


def _chain_cut(net: Network, omega: frozenset[int]) -> list[int]:
    """One state of each maximal chain of `omega`'s internal edges, and
    every state on no chain, read off the graph's tuples."""
    g = graph._graph(net)
    succ, pred = ({mu: [t for t in edges[mu] if t in omega] for mu in omega}
                  for edges in (g.succ, g.pred))
    chained = {mu for mu in omega if len(succ[mu]) == 1 and len(pred[mu]) == 1}
    cut, covered = [], set()
    for mu in omega:
        if mu in covered:
            continue
        cut.append(mu)
        if mu in chained:
            covered.add(mu)
            for step in (succ, pred):
                t = step[mu][0]
                while t in chained and t not in covered:
                    covered.add(t)
                    t = step[t][0]
    return cut
