"""Basins of attraction of sets, fixed points, orbits and omega-limit sets.

Every basin is one backward closure in `graph`: the states that can
reach some set of fair SCCs, by multi-source BFS over the predecessor
tuples that the network's transition graph keeps from its first
whole-graph pass on.  basin_p(A) closes over the fair SCCs of the
subgraph induced on A, which `graph` finds inside the graph's cached
SCCs; basin_n(A) is the complement of the closure of every full-graph
fair SCC not contained in A.  Each call builds only its own BFS tree.

Existential ("p") basins come with constructive witness schedules taken
from the same BFS tree: its next-hop pointers give every member a
shortest walk to a source, and one covering cycle per source is shared
by every member that ends there.  A covering cycle is any closed walk
through every state of the fair SCC: each coordinate unstable throughout
a fair set takes both values inside it, so the walk fires it, and the
cycle co-fires the coordinates stable where it stands.  A reported
membership can always be replayed through the schedule module and
checked against the claimed omega-limit relation.  Universal ("n")
basins are decided by graph conditions alone and carry no witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import graph
from .core import Network, all_states, check_state, full_mask
from .schedule import Schedule, omega_limit, orbit_trace, restrict_after


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
    if members == all_states(n):
        return "total"
    return "partial"


def _check_target(net: Network, states: frozenset[int]) -> None:
    if not states:
        raise ValueError("basins are defined for nonempty sets only")
    graph._check_states(net, states)


def _bfs_path(net: Network, start: int, goals: frozenset[int], domain=None):
    """Shortest fire-set word from start into `goals`, edges restricted to
    `domain` when given.  Returns (word, end state) or None."""
    if start in goals:
        return [], start
    table = net.table
    parent = {start: start}
    queue = [start]
    for state in queue:  # the loop also visits states appended while it runs
        for target in graph._targets(table, state):
            if target in parent or (domain is not None and target not in domain):
                continue
            parent[target] = state
            if target in goals:
                return _hop_word(parent, target)[0][::-1], target
            queue.append(target)
    return None


def _hop_word(hop: dict[int, int], mu: int) -> tuple[list[int], int]:
    """Fire-set word following `hop` pointers from mu until a state that
    points to itself; returns the word and that state."""
    word = []
    while hop[mu] != mu:
        word.append(mu ^ hop[mu])
        mu = hop[mu]
    return word, mu


def covering_walk(net: Network, target: frozenset[int], anchor: int) -> list[int]:
    """A closed walk from `anchor` through every state of a fair `target`,
    on edges internal to it.  A coordinate unstable throughout a fair set
    takes both values inside it, so the walk fires it.  Returns the
    fire-set word of the walk (possibly empty)."""
    graph._check_states(net, target)
    if anchor not in target:
        raise ValueError("anchor must lie in the target")
    if not graph._is_fair(net, target):
        raise ValueError("target set is not fair")

    def leg(start: int, goals) -> tuple[list[int], int]:
        step = _bfs_path(net, start, frozenset(goals), domain=target)
        if step is None:
            raise ValueError("target set is not strongly connected")
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


def _walk_then_cycle(n: int, word: list[int], cycle, period: int) -> Schedule:
    """Fire `word` at times 0, 1, 2, ..., then repeat `cycle` forever.
    Integral times stay ints: they compare and render like Fractions."""
    return Schedule(n, tuple(enumerate(word)), cycle, period, len(word))


def _splicer(trace, rho: Schedule):
    """Where a witness joins the reference flow of `trace` under `rho`.

    Returns a state the reference flow holds during the first segment of
    its periodic tail, and a function turning a walk to that state into a
    witness whose flow coincides pointwise with the reference flow from
    some time on: the walk ends just before a time t2 strictly inside that
    segment, after which the reference schedule is copied verbatim.
    """
    seg_state, seg_dwell = trace.loop[0]
    # Fraction keeps t2 exact when the schedule was built with int times
    t2 = trace.loop_entry + Fraction(seg_dwell) / 2
    # t2 lies past the cycle start, so the cut occurrence joins the prefix
    # and the whole occurrences after t2 stay the cycle
    tail = restrict_after(rho, t2)

    def witness(word: list[int]) -> Schedule:
        prefix = tuple((t2 - len(word) + k, fire) for k, fire in enumerate(word))
        return replace(tail, prefix=prefix + tail.prefix)

    return seg_state, witness


def witness_schedule(
    net: Network,
    mu_from: int,
    target: frozenset[int],
    align_to: tuple[int, Schedule] | None = None,
) -> Schedule:
    """An eventually periodic fair schedule driving mu_from to the
    omega-limit set `target`.

    Without alignment: walk to `target`, then repeat a closed covering
    walk of it forever.  With align_to=(mu, rho), where omega of (mu, rho)
    equals `target`, the witness is spliced so that its flow coincides
    pointwise with the (mu, rho) flow from some time on: reach a state the
    reference flow holds during one of its periodic segments, then copy
    the reference schedule verbatim.

    The witness decides achievability: ValueError when no walk reaches the
    target, or when its covering walk finds it not fair or not strongly
    connected.  An aligned target is the omega of a fair flow, so it is both.
    """
    check_state(mu_from, net.n)
    _check_target(net, target)
    if align_to is None:
        found = _bfs_path(net, mu_from, target)
    else:
        ref_mu, ref_rho = align_to
        trace, _ = orbit_trace(net, ref_mu, ref_rho)
        if trace.loop_states != target:
            raise ValueError("align_to flow does not have the target as omega-limit set")
        seg_state, witness = _splicer(trace, ref_rho)
        found = _bfs_path(net, mu_from, frozenset({seg_state}))
    if found is None:
        raise ValueError("target is not achievable from the given state")
    word, end = found
    if align_to is None:
        return _walk_then_cycle(net.n, word, *_covering_cycle(net, target, end))
    return witness(word)


def basin_p(net: Network, attractor: frozenset[int], with_witnesses: bool = True) -> BasinResult:
    """States from which some fair schedule drives the omega-limit set
    inside `attractor`."""
    _check_target(net, attractor)
    fair = graph._fair_sccs(net, attractor)
    # each fair SCC is strongly connected, so one anchor per SCC has the
    # same backward closure as the whole SCC
    anchors = {min(scc): scc for scc in fair}
    hop = graph._backward_closure(net, list(anchors))
    witnesses: dict[int, Schedule] = {}
    if with_witnesses:
        # each anchor's own witness validates its covering cycle once; the
        # members ending there share that validated cycle
        own = {a: _walk_then_cycle(net.n, [], *_covering_cycle(net, scc, a))
               for a, scc in anchors.items()}
        for mu in hop:
            word, anchor = _hop_word(hop, mu)
            witnesses[mu] = _walk_then_cycle(net.n, word, own[anchor].cycle, own[anchor].period)
    return BasinResult(frozenset(hop), witnesses)


def basin_n(net: Network, attractor: frozenset[int]) -> BasinResult:
    """States from which every fair schedule drives the omega-limit set
    inside `attractor`: those that reach no fair SCC leaving it."""
    _check_target(net, attractor)
    escapes = [min(scc) for scc in graph._fair_sccs(net) if not scc <= attractor]
    doomed = graph._backward_closure(net, escapes)
    return BasinResult(frozenset(mu for mu in net.states() if mu not in doomed))


def attractivity_class(net: Network, attractor: frozenset[int]) -> AttractivityClass:
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
    trace, _ = orbit_trace(net, mu, rho)
    # omega is the periodic tail of one flow, so it is strongly connected
    # and its backward closure is that of the splice state, the first of
    # the tail; the BFS tree toward it gives every member its walk there
    hop = graph._backward_closure(net, [trace.loop[0][0]])
    if not with_witnesses:
        return BasinResult(frozenset(hop))
    witness = _splicer(trace, rho)[1]
    return BasinResult(frozenset(hop), {mu2: witness(_hop_word(hop, mu2)[0]) for mu2 in hop})


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
    # nonempty only when omega is a fair SCC admitting no proper fair
    # strongly connected subset, as a fixed point is.  Fairness is monotone
    # along strongly connected supersets (a superset has no more coordinates
    # unstable at every member, and no fewer that vary), so such a subset
    # exists iff omega minus one state still has a fair SCC: |omega| passes.
    fair = graph._fair_sccs(net)
    if omega not in fair or any(graph._fair_sccs(net, omega - {s}) for s in omega):
        return BasinResult(frozenset())
    return basin_n(net, omega)
