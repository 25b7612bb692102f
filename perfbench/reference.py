"""Independent reference answers for the benchmark's correctness gate.

Nothing here imports asyncbool: networks are plain truth tables (a tuple
of 2**n ints, coordinate 1 the most significant bit) and every answer is
recomputed from the graph characterisations in the package README:

- the proper successors of mu are mu ^ f for every nonempty subset f of
  the coordinates unstable at mu;
- a set is fair when every coordinate is stable at some member or flips
  along an edge internal to the set;
- basin_p(A) is the backward closure of the fair SCCs of the subgraph
  induced on A;
- basin_n(A) is the complement of the backward closure of every fair SCC
  of the full graph that is not contained in A.
"""

from __future__ import annotations

from itertools import combinations


def full(n: int) -> int:
    return (1 << n) - 1


def apply(table, mu: int, fire: int) -> int:
    return (mu & ~fire) | (table[mu] & fire)


def _subsets(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


class Graph:
    """Proper-successor lists and predecessor lists of one truth table."""

    def __init__(self, n: int, table):
        self.n = n
        self.table = tuple(table)
        self.succ = [[mu ^ f for f in _subsets(mu ^ self.table[mu])] for mu in range(1 << n)]
        self.pred: list[list[int]] = [[] for _ in range(1 << n)]
        for mu, targets in enumerate(self.succ):
            for t in targets:
                self.pred[t].append(mu)
        self._fair_sccs: list[frozenset[int]] | None = None

    @property
    def edges(self) -> int:
        return sum(len(s) for s in self.succ)

    def stable(self, mu: int) -> int:
        return full(self.n) & ~(mu ^ self.table[mu])

    def sccs(self, domain=None) -> list[frozenset[int]]:
        """Tarjan's SCCs of the subgraph induced on `domain` (default all)."""
        nodes = sorted(domain) if domain is not None else range(1 << self.n)
        inside = set(nodes)
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        stack: list[int] = []
        on_stack: set[int] = set()
        out: list[frozenset[int]] = []
        for root in nodes:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(self.succ[root]))]
            while work:
                node, it = work[-1]
                pushed = False
                for t in it:
                    if t not in inside:
                        continue
                    if t not in index:
                        index[t] = low[t] = len(index)
                        stack.append(t)
                        on_stack.add(t)
                        work.append((t, iter(self.succ[t])))
                        pushed = True
                        break
                    if t in on_stack:
                        low[node] = min(low[node], index[t])
                if pushed:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == node:
                            break
                    out.append(frozenset(comp))
        return out

    def is_fair(self, states) -> bool:
        covered = 0
        for mu in states:
            covered |= self.stable(mu)
            for t in self.succ[mu]:
                if t in states:
                    covered |= mu ^ t
        return covered == full(self.n)

    def fair_sccs(self, domain=None) -> list[frozenset[int]]:
        if domain is None:
            if self._fair_sccs is None:
                self._fair_sccs = [c for c in self.sccs() if self.is_fair(c)]
            return self._fair_sccs
        return [c for c in self.sccs(domain) if self.is_fair(c)]

    def forward(self, sources, domain=None) -> frozenset[int]:
        seen = set(sources)
        stack = list(seen)
        while stack:
            for t in self.succ[stack.pop()]:
                if t not in seen and (domain is None or t in domain):
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def backward(self, sources) -> frozenset[int]:
        seen = set(sources)
        stack = list(seen)
        while stack:
            for p in self.pred[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return frozenset(seen)

    # --- answers ----------------------------------------------------------

    def fixed_points(self) -> frozenset[int]:
        return frozenset(mu for mu, img in enumerate(self.table) if img == mu)

    def basin_p(self, target) -> frozenset[int]:
        return self.backward(set().union(*self.fair_sccs(target)))

    def basin_n(self, target) -> frozenset[int]:
        escapes = set().union(*(c for c in self.fair_sccs() if not c <= target))
        return frozenset(range(1 << self.n)) - self.backward(escapes)

    def is_n_invariant(self, states) -> bool:
        return all(t in states for mu in states for t in self.succ[mu])

    def is_p_invariant(self, states) -> bool:
        fair = set().union(*self.fair_sccs(states))
        if not fair:
            return False
        # members that reach a fair SCC inside the set, walking inside it
        good = set(fair)
        stack = list(fair)
        while stack:
            for p in self.pred[stack.pop()]:
                if p in states and p not in good:
                    good.add(p)
                    stack.append(p)
        return good >= set(states)

    def classify(self, members) -> str:
        if not members:
            return "not"
        return "total" if len(members) == 1 << self.n else "partial"

    def attractivity(self, target) -> tuple[str, str]:
        return self.classify(self.basin_p(target)), self.classify(self.basin_n(target))

    def is_fair_connected(self, states) -> bool:
        if len(states) > 1 and len(self.sccs(states)) != 1:
            return False
        return self.is_fair(states)

    def achievable_omegas(self, mu: int) -> frozenset[frozenset[int]]:
        """Every fair strongly connected subset reachable from mu (small n)."""
        found = set()
        for comp in self.sccs(self.forward({mu})):
            members = sorted(comp)
            for size in range(1, len(members) + 1):
                for sub in combinations(members, size):
                    s = frozenset(sub)
                    if self.is_fair_connected(s):
                        found.add(s)
        return frozenset(found)


def simulate(table, n: int, mu: int, prefix, cycle, period, start):
    """(orbit, omega) of the flow of an eventually periodic schedule.

    `prefix` and `cycle` are (time, fire set) pairs in time order.  The
    state at each cycle occurrence start determines the future, so the
    run stops at the first repeated occurrence-start state.  Every state
    after an event is held for a positive duration, so the omega-limit set
    is the set of states entered during the repeating occurrences.
    """
    del period, start  # omega and orbit depend on event order only
    state = mu
    orbit = {mu}
    for _, fire in prefix:
        state = apply(table, state, fire)
        orbit.add(state)
    seen: dict[int, int] = {}
    entered: list[list[int]] = []
    while state not in seen:
        seen[state] = len(entered)
        occ = []
        for _, fire in cycle:
            state = apply(table, state, fire)
            occ.append(state)
            orbit.add(state)
        entered.append(occ)
    omega = frozenset(s for occ in entered[seen[state]:] for s in occ)
    return frozenset(orbit), omega


def is_progressive(n: int, cycle) -> bool:
    union = 0
    for _, fire in cycle:
        union |= fire
    return union == full(n)
