"""What the transition graph keeps: successor tuples, per-SCC backward
closures and covering cycles.

Every witness-free basin is answered from closures kept by SCC, or, past
their cap, from one multi-source BFS.  The reference here is the plain
BFS over reversed proper edges, built from proper_successors alone, so it
shares nothing with the graph the closures are kept on.  Walks read
successors from the graph once it is built and from the truth table
before, and the two give equal answers; witnesses equal those of a
network whose graph keeps nothing yet.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import (
    Network,
    achievable_omegas_from,
    attractivity_class,
    basin_n,
    basin_p,
    covering_walk,
    fair_sccs,
    fair_subsets,
    is_fair_set,
    is_n_invariant,
    omega_basin_n,
    omega_limit,
    orbit_basin_p,
    proper_successors,
    reachable_set,
    synchronous,
    witness_schedule,
)
from asyncbool import graph
from asyncbool.basins import _covering_cycle
from asyncbool.graph import _targets
from asyncbool.oracle import _sample_schedules
from tests.test_graph import _reference_is_fair, _reference_tarjan


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
@given(st.sampled_from((dense_table, sparse_table, chain_table)), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_graph_reps_and_fair_sccs_equal_the_reference_tarjan(make, n, seed):
    net = Network(n, make(n, random.Random(seed)))
    g = graph._graph(net)
    sccs = _reference_tarjan({mu: _targets(net.table, mu) for mu in net.states()})
    assert g.rep == [min(scc) for mu in net.states() for scc in sccs if mu in scc]
    fair = sorted((frozenset(scc) for scc in sccs if _reference_is_fair(net, scc)), key=min)
    assert list(g.fair.items()) == [(min(scc), scc) for scc in fair]


def test_one_element_tuples_are_shared_per_state():
    # a sparse table: every state but the planted fixed point has one
    # successor, and most states have one predecessor
    n = 8
    net = Network(n, sparse_table(n, random.Random(3)))
    g = graph._graph(net)
    assert g.succ == tuple(tuple(_targets(net.table, mu)) for mu in net.states())
    ones = [t for t in g.succ + g.pred if len(t) == 1]
    assert len(ones) > 1 << n
    assert all(t is graph._SINGLES[t[0]] for t in ones)
    # an equal but distinct network keeps the same objects
    other = graph._graph(Network(n, net.table))
    assert all(a is b for a, b in zip(other.succ + other.pred, g.succ + g.pred) if len(a) == 1)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_witness_free_answers_equal_the_bfs_closure(case):
    net, sets, mu = case
    n = net.n
    drawn = [rho for rho, _ in _sample_schedules(net, random.Random(n))]
    flows = [(rho, omega_limit(net, mu, rho)) for rho in [synchronous(n)] + drawn]
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
            # the closures kept expand at most 8 * 2**n states in all, since
            # one is kept only while a whole state space fits; each call
            # adds one BFS from all its anchors at most
            assert g.pred.reads <= (8 << n) + calls * (1 << n)
    assert g.capped


def _outcome(call):
    """What call() returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _per_state_queries(net, sets, mu, fair):
    """The walks from one state or over one set, which read successors
    from the graph when it is built and from the table when it is not."""
    scc = max(fair, key=len)
    small = min(fair, key=len)
    queries = [
        lambda: reachable_set(net, mu),
        lambda: achievable_omegas_from(net, mu),
        lambda: witness_schedule(net, mu, scc),
        lambda: covering_walk(net, scc, min(scc)),
        lambda: covering_walk(net, scc, max(scc)),
        lambda: is_fair_set(net, scc),
        lambda: fair_subsets(net, small if len(small) <= 10 else sorted(small)[:6]),
    ]
    for a in sets:
        queries += [
            lambda a=a: is_n_invariant(net, a),
            lambda a=a: is_fair_set(net, a),
            lambda a=a: fair_subsets(net, sorted(a)[:6]),
        ]
    return queries


def _assert_kept_cycles_are_whole_scc_cycles(net):
    g = graph._graph(net)
    events = 0
    for least, (cycle, period) in g.cycles.items():
        # a cycle is kept only for a whole fair SCC, under its least member
        assert (cycle, period) == _covering_cycle(net, g.fair[least], least)
        events += len(cycle)
    assert g.kept == sum(map(len, g.closures.values())) + events <= graph._KEEP_PER_STATE << net.n


@settings(max_examples=60, deadline=None)
@given(cases())
def test_walks_and_witnesses_equal_on_a_cold_and_a_built_graph(case):
    ref, sets, mu = case
    n = ref.n
    fair = fair_sccs(ref)
    cold, built = Network(n, ref.table), Network(n, ref.table)
    graph._graph(built)
    # asked twice on each network; the cold one builds no graph for these
    got_cold = [_outcome(q) for q in _per_state_queries(cold, sets, mu, fair) for _ in range(2)]
    assert "_graph" not in cold.__dict__
    got_built = [_outcome(q) for q in _per_state_queries(built, sets, mu, fair) for _ in range(2)]
    assert got_cold == got_built
    # basins with witnesses: the first ask on the cold network builds its
    # graph and keeps the cycles that the second ask reads
    sync = synchronous(n)
    for _ in range(2):
        for a in sets:
            want = basin_p(cold, a)
            assert basin_p(built, a) == want
            assert basin_p(ref, a) == want
        want = orbit_basin_p(cold, mu, sync)
        assert orbit_basin_p(built, mu, sync) == want
    for net in (cold, built):
        _assert_kept_cycles_are_whole_scc_cycles(net)


def test_cold_per_state_calls_build_no_graph(net1):
    cycle = frozenset({0b01, 0b11})
    assert is_n_invariant(net1, cycle)
    assert witness_schedule(net1, 0b00, cycle).n == 2
    assert reachable_set(net1, 0b00) == {0b00, 0b01, 0b10, 0b11}
    assert achievable_omegas_from(net1, 0b00) == {cycle, frozenset({0b10})}
    assert is_fair_set(net1, cycle)
    assert covering_walk(net1, cycle, 0b01) == [0b10, 0b10]
    assert "_graph" not in net1.__dict__


def test_chain_kept_cycles_and_closures_stay_within_the_cap():
    n = 10
    net = Network(n, chain_table(n))
    cycles = fair_sccs(net)
    # fill the closures up to the cap, then ask for witnesses into every
    # two-state cycle: eighths of them whole, beside one state of each
    # cycle of the next eighth, which cuts those cycles
    for scc in cycles:
        basin_p(net, scc, with_witnesses=False)
    g = graph._graph(net)
    assert g.capped
    targets = [frozenset().union(*cycles[i::8], (min(c) for c in cycles[i + 1::8]))
               for i in range(8)]
    for _ in range(2):
        for a in targets:
            got = basin_p(net, a)
            assert got.members == ref_basin_p(net, a)
            # the witnesses of a network that keeps no cycle yet
            assert got == basin_p(Network(n, net.table), a)
            _assert_kept_cycles_are_whole_scc_cycles(net)
    # past the cap the remaining cycles are built per query
    assert 0 < len(g.cycles) < len(cycles)
    # on a graph with room, every whole cycle asked for is kept
    fresh = Network(n, net.table)
    for a in targets:
        basin_p(fresh, a)
    assert len(graph._graph(fresh).cycles) == len(cycles)
    _assert_kept_cycles_are_whole_scc_cycles(fresh)
