"""The labeled asynchronous transition graph and its fair components.

Every quantification over schedules reduces to graph conditions here: a
set T is an achievable omega-limit set from mu iff T is strongly
connected, fair (every coordinate is stable at some member or takes both
values inside T, so an internal edge or a no-op firing fires it; `_is_fair`
tests this on the members alone) and reachable from mu.  The construction
direction of this equivalence lives in basins.witness_schedule; the
oracle module validates both directions by bounded schedule enumeration.

Firing a nonempty fire set nu inside the unstable coordinates of mu flips
exactly those bits, so the proper edges are mu -> mu ^ nu, enumerated from
the truth table with bit arithmetic (`_targets`).  Whole-state-space
passes read one structure per network (`_graph`): the successor and
predecessor tuples, each state's SCC by its least member, and the fair
SCCs, all filled in one pass over Tarjan's output.  A one-element tuple
is the one shared per state (`_SINGLES`), so the sparse tables, where
most states have one successor, keep no copy of it per network.  The
structure is built on the first such pass and kept on the immutable
Network, outside its fields, so equality, hash, repr and pickling do not
see it, and a network that never needs it never builds it.  The fair
SCCs of a subgraph induced on a domain are found inside its fair SCCs,
since every SCC of an induced subgraph lies in one SCC of the whole
graph.

Every walk (reachability, shortest paths, n-invariance, the stuck-member
test of p-invariance, covering walks, fair subsets and the induced
subgraphs of a domain) reads successors through one door, `_successors`:
the graph's tuples once the network's graph is built, `_targets` on the
table before.  So a walk from one state on a cold network builds
nothing, as a single CLI query wants, nor does a p-invariance that a
stuck member refutes; and on a network that a whole-graph pass has
built, a walk enumerates no successor again.

Every backward closure is one multi-source BFS over the predecessor
tuples (`_backward_closure`), inside a domain or over every state; the
witnesses read the next hops it keeps.  The backward closure of any part
of an SCC is the closure of the whole SCC, so the graph also keeps that
BFS's closures by SCC, filled as queries ask for them (`_reaching`): the
witness-free basins are unions of these.  The graph also keeps the
covering cycle that basins builds for a whole fair SCC, by its least
member (`_keep_cycle`).  The members and events kept are capped at
`_KEEP_PER_STATE` per state: on a chain of SCCs the closures overlap and
their sizes can sum to about 4**n / 2.  A closure is kept only while a
whole state space still fits under the cap, checked before its BFS; past
that, every query with an SCC not yet kept takes one BFS from all its
anchors instead, and a cycle past the cap is built per query.

One Tarjan pass (`_tarjan_sccs`) finds SCCs for the whole graph and for
the subgraph induced on a domain, such as a domain's part of one SCC.  It
reads successors through a door and keeps its index and lowlink tables
as lists over every state; a state outside the domain starts as done, so
no edge into it is followed and no map of the subgraph is built.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

from .core import (
    GRAPH_CAP,
    SUBSET_CAP,
    Network,
    check_state,
    full_mask,
)


class CapExceededError(ValueError):
    pass


def _check_graph_cap(net: Network) -> None:
    if net.n > GRAPH_CAP:
        raise CapExceededError(
            f"graph-exhaustive operations are capped at n={GRAPH_CAP}, got n={net.n}"
        )


# one int object per state, referenced by the predecessor tuples of every
# network instead of a copy per network
_STATES = tuple(range(1 << GRAPH_CAP))
# _STATE_SETS[n]: every state at dimension n, for one-pass membership tests
_STATE_SETS = tuple(frozenset(_STATES[:1 << n]) for n in range(GRAPH_CAP + 1))
# _SINGLES[s]: the one-element tuple (s,), shared by every successor and
# predecessor tuple of one member, as _STATES shares the ints
_SINGLES = tuple((s,) for s in _STATES)


def _state_set(net: Network, states: Iterable[int], empty: str | None = None) -> frozenset[int]:
    """A public entry point's state set, any iterable read once into a
    frozenset (a frozenset is returned as it is), validated before any loop
    indexes the table with it: a negative member would index from the end
    and make the subset enumeration in `_targets` run forever.  An empty
    set fails with the message `empty`, when given, before the cap does."""
    states = frozenset(states)
    if empty is not None and not states:
        raise ValueError(empty)
    _check_graph_cap(net)
    # one subset test, which 1.0 passes, and one sum, an int only if every
    # member is; a failure names the first member that check_state refuses
    if not (_STATE_SETS[net.n].issuperset(states) and isinstance(sum(states), int)):
        for mu in states:
            check_state(mu, net.n)
    return states


def _targets(table: tuple[int, ...], mu: int) -> list[int]:
    """Proper successors of a validated state: mu ^ nu for every nonempty
    nu inside the coordinates unstable at mu."""
    unstable = mu ^ table[mu]
    out = []
    nu = unstable
    while nu:
        out.append(mu ^ nu)
        nu = (nu - 1) & unstable
    return out


def successors(net: Network, mu: int) -> list[tuple[int, int]]:
    """(fire set, target) pairs for every subset of the unstable coordinates.

    Firing a stable coordinate is a no-op, so fire sets are canonicalized
    to subsets of the unstable set; the empty subset is the self-loop that
    exists at every state.
    """
    return [(0, mu)] + proper_successors(net, mu)


def proper_successors(net: Network, mu: int) -> list[tuple[int, int]]:
    _check_graph_cap(net)
    check_state(mu, net.n)
    # _targets lists fire sets in decreasing order; keep them increasing
    return [(mu ^ t, t) for t in reversed(_targets(net.table, mu))]


def _successors(net: Network):
    """The one door for successors: a map from a validated state to its
    proper successors, in `_targets`' order.  It reads the graph's tuples
    when the network's graph is already built, and runs `_targets` on the
    table when it is not, so a walk on a cold network builds nothing."""
    built = net.__dict__.get("_graph")
    if built is not None:
        return built.succ.__getitem__
    return partial(_targets, net.table)


def _adjacency(net: Network, domain) -> dict[int, list[int]]:
    """Successor lists of the subgraph induced on a validated domain."""
    step = _successors(net)
    return {mu: [t for t in step(mu) if t in domain] for mu in domain}


class _Graph:
    __slots__ = ("succ", "pred", "rep", "fair", "closures", "cycles", "kept", "capped")

    def __init__(self, succ, pred, rep, fair):
        # succ[mu]: the targets of proper edges from mu, in _targets' order
        self.succ: tuple[tuple[int, ...], ...] = succ
        # pred[t]: the sources of proper edges into t, increasing
        self.pred: tuple[tuple[int, ...], ...] = pred
        # rep[mu]: the least member of mu's SCC
        self.rep: list[int] = rep
        # the fair SCCs, fixed points included, keyed and ordered by least member
        self.fair: dict[int, frozenset[int]] = fair
        # filled by _reaching: closures maps an SCC's least member to the
        # states reaching that SCC.  cycles maps the least member of a whole
        # fair SCC to the covering cycle basins keeps for it (see
        # _keep_cycle).  kept counts the closures' members and the cycles'
        # events, and capped is set once one more closure might pass the cap
        self.closures: dict[int, frozenset[int]] = {}
        self.cycles: dict[int, tuple] = {}
        self.kept = 0
        self.capped = False


def _graph(net: Network) -> _Graph:
    """The whole transition graph of a capped network, built on first use
    and kept on the network for every later whole-graph pass."""
    cached = net.__dict__.get("_graph")
    if cached is not None:
        return cached
    table = net.table
    states = _STATES[:len(table)]
    succ = tuple([_SINGLES[t[0]] if len(t := _targets(table, mu)) == 1 else tuple(t)
                  for mu in states])
    pred: list[list[int]] = [[] for _ in table]
    for mu, targets in zip(states, succ):
        for t in targets:
            pred[t].append(mu)
    # one walk over Tarjan's output: each SCC's least member, and each
    # SCC's fairness, decided here once per network.  A one-state SCC is
    # fair iff it is a fixed point
    rep = list(states)
    fair = {}
    for scc in _tarjan_sccs(succ.__getitem__, len(table)):
        if len(scc) > 1:
            least = min(scc)
            for mu in scc:
                rep[mu] = least
            scc = frozenset(scc)
            if _is_fair(net, scc):
                fair[least] = scc
        elif table[scc[0]] == scc[0]:
            fair[scc[0]] = frozenset(scc)
    pred = tuple([_SINGLES[p[0]] if len(p) == 1 else tuple(p) for p in pred])
    built = _Graph(succ, pred, rep, dict(sorted(fair.items())))
    object.__setattr__(net, "_graph", built)
    return built


def _backward_closure(net: Network, sources, domain=None) -> dict[int, int]:
    """Multi-source BFS over reversed proper edges, restricted to `domain`
    (default: every state).  Maps every state that reaches a source to its
    next hop on a shortest path there; sources map to themselves.
    Predecessors are visited in increasing order, which fixes the BFS tree."""
    if domain is None:
        domain = _STATE_SETS[net.n]
    pred = _graph(net).pred
    hop = {s: s for s in sources}
    queue = list(hop)
    for state in queue:  # the loop also visits states appended while it runs
        for p in pred[state]:
            if p not in hop and p in domain:
                hop[p] = state
                queue.append(p)
    return hop


# the per-SCC closures kept on a graph hold at most this many members per state
_KEEP_PER_STATE = 8


def _reaching(net: Network, anchors) -> list[frozenset[int]]:
    """Sets whose union is every state that reaches one of `anchors`: the
    kept closure of each anchor's SCC, the missing ones added on the way.
    A closure is kept only while a whole state space still fits under the
    cap; past it, one BFS closure of all the anchors answers."""
    g = _graph(net)
    rep, closures = g.rep, g.closures
    keys = {rep[a] for a in anchors}
    for r in keys:
        if r not in closures:
            if g.kept + len(rep) > _KEEP_PER_STATE * len(rep):
                g.capped = True
                return [frozenset(_backward_closure(net, anchors))]
            closures[r] = frozenset(_backward_closure(net, (r,)))
            g.kept += len(closures[r])
    return [closures[r] for r in keys]


def _keep_cycle(g: _Graph, least: int, cycle: tuple) -> None:
    """Keep the covering cycle (validated events, period) of the whole fair
    SCC whose least member is `least`, unless its events would take the
    members and events kept past the cap; it is then built per query."""
    if g.kept + len(cycle[0]) <= _KEEP_PER_STATE * len(g.pred):
        g.cycles[least] = cycle
        g.kept += len(cycle[0])


def reachable_set(net: Network, mu: int) -> frozenset[int]:
    """Forward closure of mu; the union of all orbits from mu."""
    _check_graph_cap(net)
    check_state(mu, net.n)
    step = _successors(net)
    seen = {mu}
    stack = [mu]
    while stack:
        for target in step(stack.pop()):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return frozenset(seen)


def is_n_invariant(net: Network, states: Iterable[int]) -> bool:
    """No fire set takes a member of `states` (any iterable, read once) outside it."""
    states = _state_set(net, states, "invariance is defined for nonempty sets only")
    step = _successors(net)
    return all(states.issuperset(step(mu)) for mu in states)


def _tarjan_sccs(step, size: int, domain=None) -> list[list[int]]:
    """Iterative Tarjan through the successor door `step`, over all `size`
    states in state order or over the subgraph induced on `domain` in its
    order.  A state's index is raised past every other once its SCC is
    emitted, so it lowers no lowlink: that test replaces the on-stack set.
    A state outside the domain starts raised, so no edge into it is followed."""
    roots = range(size) if domain is None else domain
    index = [size] * size
    for mu in roots:
        index[mu] = -1
    low = index.copy()
    stack: list[int] = []
    sccs: list[list[int]] = []
    count = 0
    done = size
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(step(root)))]
        while work:
            node, edges = work[-1]
            for target in edges:
                seen = index[target]
                if seen < 0:
                    index[target] = low[target] = count
                    count += 1
                    stack.append(target)
                    work.append((target, iter(step(target))))
                    break
                if seen < low[node]:
                    low[node] = seen
            else:  # every edge of node is done
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        scc.append(w)
                        if w == node:
                            break
                    sccs.append(scc)
    return sccs


def _is_fair(net: Network, states: frozenset[int]) -> bool:
    """Fairness of a strongly connected set: every coordinate is stable at
    some member or takes both values inside the set.

    A path inside the set between two members that differ in a bit flips
    it along an internal edge, and an internal edge flipping it joins two
    members that differ in it; a coordinate stable at a member is fired
    there as a no-op.  So no edge needs to be looked at.
    """
    table = net.table
    base = next(iter(states))
    unstable = full_mask(net.n)
    varies = 0
    for mu in states:
        unstable &= mu ^ table[mu]
        varies |= mu ^ base
    return not unstable & ~varies


def is_fair_set(net: Network, states: Iterable[int]) -> bool:
    """Strongly connected and fair: a candidate omega-limit set (any iterable, read once)."""
    states = frozenset(states)
    if not states:
        return False
    states = _state_set(net, states)
    # singletons are strongly connected via their empty-fire self-loop
    if len(states) > 1 and len(_tarjan_sccs(_successors(net), len(net.table), states)) != 1:
        return False
    return _is_fair(net, states)


def _fair_sccs(net: Network, domain=None) -> list[frozenset[int]]:
    """fair_sccs on a validated domain, ordered by least member (the order
    of their sorted member lists, since SCCs are disjoint).

    Every SCC of the subgraph induced on the domain lies inside one SCC of
    the whole graph, and a subset of a set that is not fair is not fair
    either: it has no fewer coordinates unstable at every member and no
    more that vary.  So only the parts of the whole graph's fair SCCs in
    the domain are searched, and a part that is the whole SCC, already
    known fair, is not searched at all.  A one-state SCC is fair iff it is
    a fixed point, and fixed points lie in no nontrivial SCC.
    """
    g = _graph(net)
    if domain is None:
        return list(g.fair.values())
    result = []
    cut = False
    for scc in g.fair.values():
        if scc.issubset(domain):
            result.append(scc)
            continue
        part = scc.intersection(domain)
        if len(part) > 1:
            cut = True
            parts = map(frozenset, _tarjan_sccs(_successors(net), len(net.table), part))
            result.extend(p for p in parts if len(p) > 1 and _is_fair(net, p))
    if cut:
        result.sort(key=min)
    return result


def fair_sccs(net: Network, domain: Iterable[int] | None = None) -> list[frozenset[int]]:
    """The fair SCCs of the subgraph induced on `domain`, any iterable read once (default: all)."""
    if domain is None:
        _check_graph_cap(net)
    else:
        domain = _state_set(net, domain, "domain must be nonempty")
    return _fair_sccs(net, domain)


def is_p_invariant(net: Network, states: Iterable[int]) -> bool:
    """Every member can stay inside forever under some fair schedule.

    Equivalent graph condition: every member reaches, by edges internal to
    the set, a fair SCC of the induced subgraph (a fair strongly connected
    subset is always contained in a fair SCC, so maximal SCCs suffice).
    Each SCC is strongly connected inside the set, so one backward closure
    from one member of each, within the set, decides it.  `states` is any iterable, read once.

    A member that is no fixed point and has every proper successor outside
    the set is stuck: every fair schedule fires one of its unstable
    coordinates, and that move leaves the set.  One pass through the
    successor door looks for such a member first, so a set it refutes
    builds no graph and runs no Tarjan; fixed points, whose successor
    lists are empty, are skipped by that pass.
    """
    states = _state_set(net, states, "invariance is defined for nonempty sets only")
    if any(map(states.isdisjoint, filter(None, map(_successors(net), states)))):
        return False
    fair = _fair_sccs(net, states)
    if not fair:
        return False
    return len(_backward_closure(net, [min(scc) for scc in fair], states)) == len(states)


def _closure(edges: list[int], mask: int) -> int:
    """The bits reached from the lowest bit of `mask` along `edges` (bit i
    to the bits of edges[i]) without leaving `mask`."""
    reached = frontier = mask & -mask
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= edges[low.bit_length() - 1]
            frontier ^= low
        frontier = step & mask & ~reached
        reached |= frontier
    return reached


def fair_subsets(net: Network, scc: Iterable[int]) -> list[frozenset[int]]:
    """All fair strongly connected subsets of one SCC (any iterable, read once), in
    increasing order of their masks over the sorted members.

    Each subset is a mask over the members' indices; it is strongly
    connected iff one forward and one backward closure from its lowest
    member, inside the mask, both reach all of it."""
    scc = frozenset(scc)
    if len(scc) > (1 << SUBSET_CAP):
        raise CapExceededError(
            f"fair-subset enumeration is capped at SCCs of {1 << SUBSET_CAP} states,"
            f" got {len(scc)}"
        )
    scc = _state_set(net, scc)
    members = sorted(scc)
    index = {mu: i for i, mu in enumerate(members)}
    step = _successors(net)
    succ = [0] * len(members)
    pred = [0] * len(members)
    for i, mu in enumerate(members):
        for t in step(mu):
            j = index.get(t)
            if j is not None:
                succ[i] |= 1 << j
                pred[j] |= 1 << i
    found = []
    for mask in range(1, 1 << len(members)):
        if _closure(succ, mask) == mask and _closure(pred, mask) == mask:
            subset = frozenset(mu for i, mu in enumerate(members) if mask >> i & 1)
            if _is_fair(net, subset):
                found.append(subset)
    return found


def achievable_omegas_from(net: Network, mu: int) -> frozenset[frozenset[int]]:
    """Every set arising as an omega-limit set of some fair schedule from mu:
    the fair strongly connected subsets (maximal SCCs and sub-SCCs)
    reachable from mu."""
    reach = reachable_set(net, mu)
    # each SCC's fair subsets are enumerated once per network and kept
    # beside the graph, which this does not build
    known = net.__dict__.setdefault("_fair_subsets", {})
    result: set[frozenset[int]] = set()
    # largest first, so an SCC over the fair_subsets cap raises before any
    # SCC is enumerated
    sccs = _tarjan_sccs(_successors(net), len(net.table), reach)
    for scc in sorted(map(frozenset, sccs), key=len, reverse=True):
        found = known.get(scc)
        if found is None:
            found = known[scc] = tuple(fair_subsets(net, scc))
        result.update(found)
    return frozenset(result)

