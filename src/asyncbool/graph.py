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
the truth table with bit arithmetic (`_targets`).  Walks from one state
(reachability, shortest paths, n-invariance) step with it and store
nothing.  Whole-state-space passes read one structure per network
instead (`_graph`): the predecessor tuples, the SCCs of more than one
state and the fixed points.  It is built on the first such pass and kept
on the immutable Network, outside its fields, so equality, hash, repr and
pickling do not see it, and a network that never needs it never builds
it.  It holds no answer to any query, only the graph: backward closures
walk its predecessors, and the SCCs of a subgraph induced on a domain are
found inside its SCCs, since every SCC of an induced subgraph lies in one
SCC of the whole graph.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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


def _check_states(net: Network, states: Iterable[int]) -> None:
    """Validate a state set at a public entry point, before any loop indexes
    the table with its members: a negative member would index from the
    end and make the subset enumeration in `_targets` run forever."""
    _check_graph_cap(net)
    # one bounds pass; a failure names the first out-of-range member
    size = len(net.table)
    if states and not 0 <= min(states) <= max(states) < size:
        check_state(next(mu for mu in states if not 0 <= mu < size), net.n)


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


def _adjacency(net: Network, domain) -> dict[int, list[int]]:
    """Successor lists of the subgraph induced on a validated domain."""
    table = net.table
    return {mu: [t for t in _targets(table, mu) if t in domain] for mu in domain}


# one int object per state, referenced by the predecessor tuples of every
# network instead of a copy per network
_STATES = tuple(range(1 << GRAPH_CAP))


class _Graph(NamedTuple):
    pred: tuple[tuple[int, ...], ...]  # pred[t]: sources of proper edges into t, increasing
    sccs: list[frozenset[int]]  # the SCCs of more than one state
    fixed: frozenset[int]  # the fixed points, the only fair one-state SCCs


def _graph(net: Network) -> _Graph:
    """The whole transition graph of a capped network, built on first use
    and kept on the network for every later whole-graph pass."""
    cached = net.__dict__.get("_graph")
    if cached is not None:
        return cached
    table = net.table
    # the successor lists live only while the graph is built
    succ = {mu: _targets(table, mu) for mu in _STATES[:len(table)]}
    sccs = [frozenset(scc) for scc in _tarjan_sccs(succ) if len(scc) > 1]
    pred: list[list[int]] = [[] for _ in table]
    for mu, targets in succ.items():
        for t in targets:
            pred[t].append(mu)
    fixed = frozenset(mu for mu in succ if table[mu] == mu)
    built = _Graph(tuple(map(tuple, pred)), sccs, fixed)
    object.__setattr__(net, "_graph", built)
    return built


def _backward_closure(net: Network, sources, domain=None) -> dict[int, int]:
    """Multi-source BFS over reversed proper edges, restricted to `domain`
    when given.  Maps every state that reaches a source to its next hop on
    a shortest path there; sources map to themselves.  Predecessors are
    visited in increasing order, which fixes the BFS tree."""
    if not sources:
        return {}
    pred = _graph(net).pred
    hop = {s: s for s in sources}
    queue = list(hop)
    for state in queue:  # the loop also visits states appended while it runs
        for p in pred[state]:
            if p not in hop and (domain is None or p in domain):
                hop[p] = state
                queue.append(p)
    return hop


def reachable_set(net: Network, mu: int) -> frozenset[int]:
    """Forward closure of mu; the union of all orbits from mu."""
    _check_graph_cap(net)
    check_state(mu, net.n)
    table = net.table
    seen = {mu}
    stack = [mu]
    while stack:
        for target in _targets(table, stack.pop()):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return frozenset(seen)


def is_n_invariant(net: Network, states: frozenset[int]) -> bool:
    """No fire set can take any member outside the set."""
    if not states:
        raise ValueError("invariance is defined for nonempty sets only")
    _check_states(net, states)
    table = net.table
    return all(t in states for mu in states for t in _targets(table, mu))


def _tarjan_sccs(adjacency: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan over an explicit adjacency map.  A state's index is
    raised past every other once its SCC is emitted, so it lowers no
    lowlink: that test replaces the on-stack set."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    sccs: list[list[int]] = []
    done = len(adjacency)
    for root in adjacency:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            node, edges = work[-1]
            for target in edges:
                if target not in index:
                    index[target] = low[target] = len(index)
                    stack.append(target)
                    work.append((target, iter(adjacency[target])))
                    break
                if index[target] < low[node]:
                    low[node] = index[target]
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


def _is_fair_set(net: Network, states: frozenset[int]) -> bool:
    # singletons are strongly connected via their empty-fire self-loop
    if len(states) > 1 and len(_tarjan_sccs(_adjacency(net, states))) != 1:
        return False
    return _is_fair(net, states)


def is_fair_set(net: Network, states: frozenset[int]) -> bool:
    """Strongly connected and fair: a candidate omega-limit set."""
    if not states:
        return False
    _check_states(net, states)
    return _is_fair_set(net, states)


def _fair_sccs(net: Network, domain=None) -> list[frozenset[int]]:
    """fair_sccs on a validated domain.

    Every SCC of the subgraph induced on the domain lies inside one SCC of
    the whole graph, so only the parts of the cached nontrivial SCCs in the
    domain are searched, and a part that is the whole SCC is not searched
    at all.  A one-state SCC is fair iff it is a fixed point, and fixed
    points lie in no nontrivial SCC.
    """
    g = _graph(net)
    fixed = g.fixed if domain is None else g.fixed.intersection(domain)
    result = [frozenset((mu,)) for mu in fixed]
    for scc in g.sccs:
        part = scc if domain is None else scc.intersection(domain)
        if len(part) == len(scc):
            parts = [scc]
        elif len(part) > 1:
            parts = map(frozenset, _tarjan_sccs(_adjacency(net, part)))
        else:
            continue
        result.extend(p for p in parts if len(p) > 1 and _is_fair(net, p))
    result.sort(key=sorted)
    return result


def fair_sccs(net: Network, domain: frozenset[int] | None = None) -> list[frozenset[int]]:
    """The fair SCCs of the subgraph induced on `domain` (default: all states)."""
    if domain is None:
        _check_graph_cap(net)
    elif not domain:
        raise ValueError("domain must be nonempty")
    else:
        _check_states(net, domain)
    return _fair_sccs(net, domain)


def is_p_invariant(net: Network, states: frozenset[int]) -> bool:
    """Every member can stay inside forever under some fair schedule.

    Equivalent graph condition: every member reaches, by edges internal to
    the set, a fair SCC of the induced subgraph (a fair strongly connected
    subset is always contained in a fair SCC, so maximal SCCs suffice).
    Each SCC is strongly connected inside the set, so one backward closure
    from one member of each, within the set, decides it.
    """
    if not states:
        raise ValueError("invariance is defined for nonempty sets only")
    _check_states(net, states)
    fair = _fair_sccs(net, states)
    if not fair:
        return False
    return len(_backward_closure(net, [min(scc) for scc in fair], states)) == len(states)


def fair_subsets(net: Network, scc: frozenset[int]) -> list[frozenset[int]]:
    """All fair strongly connected subsets of one SCC."""
    if len(scc) > (1 << SUBSET_CAP):
        raise CapExceededError(
            f"fair-subset enumeration is capped at SCCs of {1 << SUBSET_CAP} states,"
            f" got {len(scc)}"
        )
    _check_states(net, scc)
    members = sorted(scc)
    found = []
    for mask in range(1, 1 << len(members)):
        subset = frozenset(members[i] for i in range(len(members)) if mask & (1 << i))
        if _is_fair_set(net, subset):
            found.append(subset)
    return found


def achievable_omegas_from(net: Network, mu: int) -> frozenset[frozenset[int]]:
    """Every set arising as an omega-limit set of some fair schedule from mu:
    the fair strongly connected subsets (maximal SCCs and sub-SCCs)
    reachable from mu."""
    reach = reachable_set(net, mu)
    result: set[frozenset[int]] = set()
    # largest first, so an SCC over the fair_subsets cap raises before any
    # SCC is enumerated
    for scc in sorted(_tarjan_sccs(_adjacency(net, reach)), key=len, reverse=True):
        result.update(fair_subsets(net, frozenset(scc)))
    return frozenset(result)


def is_achievable_from(net: Network, target: frozenset[int], mu: int) -> bool:
    """True iff `target` is strongly connected, fair and reachable from mu."""
    if not target:
        raise ValueError("target must be nonempty")
    check_state(mu, net.n)
    if not is_fair_set(net, target):
        return False
    return bool(reachable_set(net, mu) & target)
