import dataclasses
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import (
    CapExceededError,
    DimensionError,
    Network,
    Schedule,
    achievable_omegas_from,
    basin_n,
    basin_p,
    fair_sccs,
    fair_subsets,
    is_achievable_from,
    is_fair_set,
    is_n_invariant,
    is_p_invariant,
    omega_limit,
    proper_successors,
    reachable_set,
    successors,
)
from asyncbool import graph
from asyncbool.basins import _covering_cycle, _hop_word, _walk_then_cycle
from asyncbool.formats import render_schedule
from asyncbool.graph import _tarjan_sccs, _targets


def test_successors_one_per_unstable_subset(net1):
    # 00 has both coordinates unstable: empty self-loop plus 3 proper edges
    edges = successors(net1, 0b00)
    assert (0b00, 0b00) in edges
    assert sorted(proper_successors(net1, 0b00)) == [
        (0b01, 0b01),
        (0b10, 0b10),
        (0b11, 0b11),
    ]


def test_fixed_point_has_no_proper_successors(net1):
    assert proper_successors(net1, 0b10) == []


def test_reachable_set(net1):
    assert reachable_set(net1, 0b10) == {0b10}
    assert reachable_set(net1, 0b00) == {0b00, 0b01, 0b10, 0b11}
    assert reachable_set(net1, 0b11) == {0b01, 0b11}


def test_tarjan_matches_bruteforce_on_small_graphs():
    adjacency = {0: [1], 1: [2], 2: [0, 3], 3: [3]}
    sccs = sorted(sorted(s) for s in _tarjan_sccs(adjacency))
    assert sccs == [[0, 1, 2], [3]]


def test_n_invariance(net1):
    assert is_n_invariant(net1, frozenset({0b10}))
    assert is_n_invariant(net1, frozenset({0b01, 0b11}))
    # {00, 01} leaks: firing coordinate 1 at 00 leaves for 10
    assert not is_n_invariant(net1, frozenset({0b00, 0b01}))
    with pytest.raises(ValueError):
        is_n_invariant(net1, frozenset())


def test_p_invariance(net1):
    assert is_p_invariant(net1, frozenset({0b01, 0b11}))
    assert is_p_invariant(net1, frozenset({0b10}))
    # 00 alone cannot stay put: both coordinates are unstable and some
    # coordinate must eventually fire
    assert not is_p_invariant(net1, frozenset({0b00}))
    assert is_p_invariant(net1, frozenset({0b00, 0b10}))


def test_fair_sets(net1):
    assert is_fair_set(net1, frozenset({0b10}))
    assert is_fair_set(net1, frozenset({0b01, 0b11}))
    assert not is_fair_set(net1, frozenset({0b00}))
    assert not is_fair_set(net1, frozenset({0b00, 0b01}))  # not strongly connected
    assert not is_fair_set(net1, frozenset())


def test_fair_sccs(net1):
    assert fair_sccs(net1) == [frozenset({0b01, 0b11}), frozenset({0b10})]


def test_fair_sccs_respects_domain(net1):
    # restricted to {00, 10} the only fair SCC is the fixed point
    assert fair_sccs(net1, frozenset({0b00, 0b10})) == [frozenset({0b10})]


def test_fair_subsets_of_cycle_scc(net1):
    # the 2-cycle admits no proper fair subset: each singleton has an
    # unstable coordinate that can never fire internally
    assert fair_subsets(net1, frozenset({0b01, 0b11})) == [frozenset({0b01, 0b11})]


def test_achievable_omegas(net1):
    assert achievable_omegas_from(net1, 0b00) == {
        frozenset({0b10}),
        frozenset({0b01, 0b11}),
    }
    assert achievable_omegas_from(net1, 0b10) == {frozenset({0b10})}
    assert is_achievable_from(net1, frozenset({0b10}), 0b00)
    assert not is_achievable_from(net1, frozenset({0b10}), 0b11)
    assert not is_achievable_from(net1, frozenset({0b00}), 0b00)


def test_is_achievable_from_rejects_out_of_range_start(net1):
    # {01} is not fair, so the start state is checked before fairness
    with pytest.raises(DimensionError):
        is_achievable_from(net1, frozenset({0b01}), 9)


def test_identity_network_everything_is_fair(id2):
    # every subset is strongly connected via no-op self-loops... no: only
    # singletons are strongly connected; each is fair since all
    # coordinates are stable
    assert fair_sccs(id2) == [frozenset({s}) for s in id2.states()]
    for s in id2.states():
        assert achievable_omegas_from(id2, s) == {frozenset({s})}


def test_achievable_omegas_capped_by_scc_size_not_n():
    # the n=6 identity has only one-state SCCs, so nothing is enumerated
    # past the cap; it used to be refused for n > 5
    assert achievable_omegas_from(Network(6, tuple(range(64))), 5) == {frozenset({5})}


def test_oversized_scc_refused_before_enumeration():
    # negation makes all 32 states of n=5 one SCC: 2**32 masks used to
    # slip under a 32-state cap and run for hours
    net = Network(5, tuple(31 ^ s for s in range(32)))
    t0 = time.monotonic()
    with pytest.raises(CapExceededError, match="16 states, got 32"):
        achievable_omegas_from(net, 0)
    assert time.monotonic() - t0 < 1.0


def test_graph_cap_enforced():
    big = Network(11, tuple(range(2048)))
    with pytest.raises(CapExceededError):
        successors(big, 0)


# --- the cached transition graph against per-call references ------------------


def _reference_is_fair(net, states):
    """The edge-scan fairness rule: every coordinate unstable at every
    member of `states` is fired by some edge internal to it."""
    needed = (1 << net.n) - 1
    for mu in states:
        needed &= mu ^ net.table[mu]
    for mu in states:
        for t in _targets(net.table, mu):
            if t in states:
                needed &= ~(mu ^ t)
    return not needed


def _reference_sccs(net, domain):
    """Every SCC of the subgraph induced on `domain`, singletons included,
    from one plain Tarjan over that whole subgraph."""
    adjacency = {mu: [t for t in _targets(net.table, mu) if t in domain] for mu in domain}
    return list(map(frozenset, _tarjan_sccs(adjacency)))


def _reference_fair_sccs(net, domain):
    fair = [s for s in _reference_sccs(net, domain) if _reference_is_fair(net, s)]
    return sorted(fair, key=sorted)


def _reference_closure(net, sources, domain=None):
    """Backward BFS over predecessor lists built for this call only, each
    in increasing source order."""
    pred = [[] for _ in net.table]
    for mu in net.states():
        for t in _targets(net.table, mu):
            if domain is None or (mu in domain and t in domain):
                pred[t].append(mu)
    hop = {s: s for s in sources}
    queue = list(hop)
    for state in queue:
        for p in pred[state]:
            if p not in hop:
                hop[p] = state
                queue.append(p)
    return hop


@st.composite
def nets_and_domains(draw):
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        table = [rng.randrange(1 << n) for _ in range(1 << n)]
    else:  # one flipped bit per state: many small SCCs, some fixed points
        table = [mu if rng.random() < 0.1 else mu ^ (1 << rng.randrange(n)) for mu in range(1 << n)]
    states = range(1 << n)
    domain = frozenset(draw(st.lists(st.sampled_from(states), min_size=1, max_size=1 << n)))
    return Network(n, tuple(table)), domain


@settings(max_examples=200, deadline=None)
@given(nets_and_domains())
def test_cached_graph_matches_per_call_reference(case):
    net, domain = case
    everything = frozenset(net.states())
    assert fair_sccs(net) == _reference_fair_sccs(net, everything)
    fair = _reference_fair_sccs(net, domain)
    assert graph._fair_sccs(net, domain) == fair
    assert is_p_invariant(net, domain) == (
        bool(fair) and len(_reference_closure(net, [min(s) for s in fair], domain)) == len(domain)
    )
    hop = _reference_closure(net, [min(s) for s in fair])
    assert basin_p(net, domain, with_witnesses=False).members == frozenset(hop)
    escapes = [min(s) for s in fair_sccs(net) if not s <= domain]
    assert basin_n(net, domain).members == everything - frozenset(_reference_closure(net, escapes))
    # every witness walks the reference hop tree, then repeats its anchor's cycle
    result = basin_p(net, domain)
    assert set(result.witnesses) == set(hop)
    for mu, witness in result.witnesses.items():
        word, anchor = _hop_word(hop, mu)
        own = result.witnesses[anchor]
        assert own.prefix == ()
        expected = Schedule(net.n, tuple(enumerate(word)), own.cycle, own.period, len(word))
        assert render_schedule(witness) == render_schedule(expected)


@settings(max_examples=200, deadline=None)
@given(nets_and_domains())
def test_fairness_bit_rule_matches_edge_scan_and_covering_cycles_replay(case):
    net, domain = case
    full = (1 << net.n) - 1
    for scc in _reference_sccs(net, domain):
        fair = graph._is_fair(net, scc)
        assert fair == _reference_is_fair(net, scc)
        if not fair:
            continue
        for anchor in scc:
            cycle, period = _covering_cycle(net, scc, anchor)
            fired = 0
            for _, fire in cycle:
                fired |= fire
            assert fired == full
            witness = _walk_then_cycle(net.n, [], cycle, period)
            assert omega_limit(net, anchor, witness) == scc


def test_whole_graph_tarjan_runs_once_per_network(monkeypatch):
    calls = []

    def counting(adjacency):
        calls.append(len(adjacency))
        return _tarjan_sccs(adjacency)

    monkeypatch.setattr(graph, "_tarjan_sccs", counting)
    rng = random.Random(4)
    net = Network(5, tuple(rng.randrange(32) for _ in range(32)))
    half = frozenset(range(0, 32, 2))
    for _ in range(3):
        fair_sccs(net)
        basin_n(net, half)
        basin_p(net, half)
        basin_p(net, frozenset(net.states()))
        is_p_invariant(net, half)
    assert calls.count(32) == 1
    # an equal but distinct network builds its own graph
    basin_n(Network(5, net.table), half)
    assert calls.count(32) == 2


def test_fair_sccs_result_is_the_callers_to_mutate(net1):
    first = fair_sccs(net1)
    first.clear()
    assert fair_sccs(net1) == [frozenset({0b01, 0b11}), frozenset({0b10})]
    restricted = fair_sccs(net1, frozenset({0b00, 0b10}))
    restricted.append(frozenset({0b00}))
    assert fair_sccs(net1, frozenset({0b00, 0b10})) == [frozenset({0b10})]


def test_cached_graph_is_invisible_to_value_semantics():
    rng = random.Random(9)
    table = tuple(rng.randrange(64) for _ in range(64))
    net, fresh = Network(6, table), Network(6, table)
    basin_n(net, frozenset({0}))  # builds the graph on net only
    assert net == fresh and hash(net) == hash(fresh) and repr(net) == repr(fresh)
    copy = dataclasses.replace(net)
    assert copy == fresh and vars(copy) == vars(fresh)
    assert dataclasses.replace(net, table=tuple(range(64))) == Network(6, tuple(range(64)))
    assert pickle.dumps(net) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(net))
    assert back == net and vars(back) == vars(fresh)
    assert fair_sccs(back) == fair_sccs(net)


def test_state_sets_checked_in_one_bounds_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(graph, "check_state", lambda *args: calls.append(args))
    net = Network(10, tuple(mu ^ 1 for mu in range(1024)))
    is_p_invariant(net, frozenset(range(0, 1024, 2)))
    assert calls == []


def test_out_of_range_member_named_as_before():
    net = Network(3, tuple(range(8)))
    for states in ({1, 9, -2}, {-5, 3}, {8}, {100, 2, 40}):
        first = next(mu for mu in frozenset(states) if not 0 <= mu < 8)
        with pytest.raises(DimensionError, match=f"^state {first} out of range for n=3$"):
            is_p_invariant(net, frozenset(states))


def from_cached_sccs(net, mu):
    """achievable_omegas_from read off the whole graph's condensation: the
    reach is closed under successors, so its SCCs are the cached SCCs that
    meet it and its one-state SCCs, fair only at fixed points."""
    reach = reachable_set(net, mu)
    g = graph._graph(net)
    result = {frozenset((s,)) for s in g.fixed & reach}
    for scc in g.sccs:
        if not scc.isdisjoint(reach):
            result.update(fair_subsets(net, scc))
    return frozenset(result)


@st.composite
def small_nets(draw):
    """A net with n <= 4.  Up to n = 3 any table; at n = 4 each state is
    fixed or flips one coordinate, which keeps the SCCs small enough to
    enumerate their 2**|SCC| subsets from every state."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if n <= 3:
        return Network(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
    flips = [0] + [1 << i for i in range(n)]
    return Network(n, tuple(mu ^ rng.choice(flips) for mu in range(1 << n)))


@settings(max_examples=150, deadline=None)
@given(small_nets())
def test_achievable_omegas_match_the_cached_sccs(net):
    # Tarjan over the reach alone finds the same SCCs as the whole graph's
    for mu in net.states():
        assert achievable_omegas_from(net, mu) == from_cached_sccs(net, mu)
