"""The per-SCC backward closures kept on the transition graph.

Every witness-free basin is answered from closures kept by SCC, or, past
their cap, from one multi-source BFS.  The reference here is the plain
BFS over reversed proper edges, built from proper_successors alone, so it
shares nothing with the graph the closures are kept on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import (
    Network,
    attractivity_class,
    basin_n,
    basin_p,
    fair_sccs,
    omega_basin_n,
    omega_limit,
    orbit_basin_p,
    proper_successors,
    synchronous,
)
from asyncbool import graph
from asyncbool.oracle import _sample_schedules


def ref_closure(net, sources):
    """Every state with a walk of proper edges into `sources`."""
    pred = {mu: [] for mu in net.states()}
    for mu in net.states():
        for _, t in proper_successors(net, mu):
            pred[t].append(mu)
    seen = set(sources)
    queue = list(seen)
    for state in queue:
        for p in pred[state]:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return frozenset(seen)


def ref_basin_p(net, a):
    return ref_closure(net, [min(scc) for scc in fair_sccs(net, a)])


def ref_basin_n(net, a):
    escapes = [min(scc) for scc in fair_sccs(net) if not scc <= a]
    return frozenset(net.states()) - ref_closure(net, escapes)


def ref_class(members, n):
    return "not" if not members else "total" if len(members) == 1 << n else "partial"


def ref_omega_basin_n(net, omega):
    # empty when omega has a fair strongly connected proper subset, which
    # then lies in a fair SCC of omega minus one of its states
    if any(fair_sccs(net, omega - {s}) for s in omega if len(omega) > 1):
        return frozenset()
    return ref_basin_n(net, omega)


def dense_table(n, rng):
    return tuple(rng.randrange(1 << n) for _ in range(1 << n))


def sparse_table(n, rng):
    """One proper successor per state, apart from one planted fixed point."""
    table = [mu ^ (1 << rng.randrange(n)) for mu in range(1 << n)]
    r = rng.randrange(1 << n)
    table[r] = r
    return tuple(table)


def chain_table(n, rng=None):
    """2**(n-1) fair two-state cycles {2g, 2g + 1}, g running through the
    Gray code of the upper n - 1 bits, each with edges into the next one,
    so the closure of the k-th cycle holds the k cycles before it; the
    states are renamed by a random bit flip when `rng` is given."""
    gray = [j ^ (j >> 1) for j in range(1 << (n - 1))]
    table = [0] * (1 << n)
    for g, nxt in zip(gray, gray[1:] + gray[-1:]):
        table[2 * g] = 2 * g + 1
        # flips bit 0 back, and the one bit where g and nxt differ
        table[2 * g + 1] = 2 * nxt
    flip = rng.randrange(1 << n) if rng else 0
    return tuple(table[mu ^ flip] ^ flip for mu in range(1 << n))


@st.composite
def cases(draw):
    make = draw(st.sampled_from((dense_table, sparse_table, chain_table)))
    n = draw(st.integers(1 if make is dense_table else 2, 8 if make is chain_table else 7))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    net = Network(n, make(n, rng))
    sets = [frozenset(rng.sample(range(1 << n), rng.randint(1, 1 << n))) for _ in range(3)]
    sets.append(frozenset().union(*fair_sccs(net)))
    return net, sets, rng.randrange(1 << n)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_witness_free_answers_equal_the_bfs_closure(case):
    net, sets, mu = case
    n = net.n
    flows = [(rho, omega_limit(net, mu, rho))
             for rho in [synchronous(n)] + _sample_schedules(net, random.Random(n))]
    want = {}
    for a in sets:
        p, nb = ref_basin_p(net, a), ref_basin_n(net, a)
        want[a] = p, nb, (ref_class(p, n), ref_class(nb, n))
    want_flows = [(ref_closure(net, omega), ref_omega_basin_n(net, omega)) for _, omega in flows]
    # asked twice on one network: the first pass fills the kept closures,
    # the second reads them
    for _ in range(2):
        for a in sets:
            p, nb, classes = want[a]
            assert basin_p(net, a, with_witnesses=False).members == p
            assert basin_n(net, a).members == nb
            got = attractivity_class(net, a)
            assert (got.p_class, got.n_class) == classes
        for (rho, _), (orbit_p, omega_n) in zip(flows, want_flows):
            assert orbit_basin_p(net, mu, rho, with_witnesses=False).members == orbit_p
            assert omega_basin_n(net, mu, rho).members == omega_n
    g = graph._graph(net)
    assert g.kept == sum(map(len, g.closures.values())) <= graph._KEEP_PER_STATE << n


class CountingPred(tuple):
    """Predecessor tuples that count the states a BFS expands."""

    reads = 0

    def __getitem__(self, state):
        self.reads += 1
        return tuple.__getitem__(self, state)


def test_chain_closures_stay_within_the_cap():
    # 512 fair two-state cycles in a chain: kept whole, their closures
    # would hold 2 + 4 + ... + 1024 = 262 656 members
    n = 10
    net = Network(n, chain_table(n))
    g = graph._graph(net)
    g.pred = CountingPred(g.pred)
    cycles = fair_sccs(net)
    assert len(cycles) == 512
    targets = [cycles[0], cycles[255], cycles[-1], cycles[100] | cycles[400]]
    calls = 0
    for _ in range(3):
        for a in targets:
            assert basin_n(net, a).members == ref_basin_n(net, a)
            calls += 1
            assert g.kept == sum(map(len, g.closures.values())) <= 8 << n
            # the closures kept, and the one stopped at the cap, expand at
            # most 8 * 2**n states in all; each call adds one BFS at most
            assert g.pred.reads <= (8 << n) + calls * (1 << n)
    assert g.capped
