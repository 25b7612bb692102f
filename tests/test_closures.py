"""The closure-based basins against their per-state definitions.

The reference functions below decide membership one state at a time from
reachable_set and fair_sccs, exactly as the definitions read: a state is
in the p-basin of A iff it reaches a fair SCC of the subgraph induced on
A, in the n-basin iff every fair SCC it reaches lies in A.  The fair SCCs
a state mu reaches are fair_sccs(net, reachable_set(net, mu)): the SCCs of
the subgraph induced on a forward-closed set are SCCs of the full graph.
Every witness the closures return must replay, and must equal the one the
old per-member builder makes from the same BFS tree.
"""

import dataclasses
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncbool import (
    CapExceededError,
    DimensionError,
    Network,
    Schedule,
    attractivity_class,
    basin_n,
    basin_p,
    fair_sccs,
    flow_at,
    flows_eventually_equal,
    is_fair_set,
    is_n_invariant,
    is_p_invariant,
    omega_basin_n,
    omega_basin_p,
    omega_limit,
    orbit_basin_n,
    orbit_basin_p,
    orbit_trace,
    proper_successors,
    reachable_set,
    render_schedule,
    restrict_after,
    synchronous,
    witness_schedule,
)
from asyncbool import graph
from asyncbool.basins import _covering_cycle

# --- per-state reference definitions ----------------------------------------


def ref_basin_p(net, a):
    targets = frozenset().union(*fair_sccs(net, a))
    return frozenset(mu for mu in net.states() if reachable_set(net, mu) & targets)


def ref_basin_n(net, a):
    return frozenset(
        mu
        for mu in net.states()
        if all(scc <= a for scc in fair_sccs(net, reachable_set(net, mu)))
    )


def ref_class(members, n):
    if not members:
        return "not"
    return "total" if len(members) == 1 << n else "partial"


def ref_is_p_invariant(net, states):
    targets = frozenset().union(*fair_sccs(net, states))
    for mu in states:
        seen, stack = {mu}, [mu]
        while stack:
            for _, t in proper_successors(net, stack.pop()):
                if t in states and t not in seen:
                    seen.add(t)
                    stack.append(t)
        if not seen & targets:
            return False
    return True


def ref_orbit_basin_p(net, mu, rho):
    omega = omega_limit(net, mu, rho)
    return frozenset(mu2 for mu2 in net.states() if reachable_set(net, mu2) & omega)


def ref_omega_basin_n(net, mu, rho):
    omega = omega_limit(net, mu, rho)
    s = min(omega)
    if len(omega) == 1 and net.table[s] == s:
        return ref_basin_n(net, omega)
    if omega not in fair_sccs(net, reachable_set(net, next(iter(omega)))):
        return frozenset()
    members = sorted(omega)
    for mask in range(1, (1 << len(members)) - 1):  # every proper nonempty subset
        if is_fair_set(net, frozenset(m for i, m in enumerate(members) if mask >> i & 1)):
            return frozenset()
    return frozenset(
        mu2 for mu2 in net.states() if fair_sccs(net, reachable_set(net, mu2)) == [omega]
    )


# --- comparison -------------------------------------------------------------


def _assert_p_witnesses(net, result, accept):
    assert set(result.witnesses) == set(result.members)
    for mu, rho in result.witnesses.items():
        assert accept(omega_limit(net, mu, rho)), mu


def check_set_queries(net, a):
    want_p, want_n = ref_basin_p(net, a), ref_basin_n(net, a)
    bp = basin_p(net, a)
    assert bp.members == want_p
    _assert_p_witnesses(net, bp, lambda om: om <= a)
    assert basin_n(net, a).members == want_n
    cls = attractivity_class(net, a)
    assert (cls.p_class, cls.n_class) == (ref_class(want_p, net.n), ref_class(want_n, net.n))
    assert is_p_invariant(net, a) == ref_is_p_invariant(net, a)


def check_flow_queries(net, mu, rho):
    omega = omega_limit(net, mu, rho)
    ob = orbit_basin_p(net, mu, rho)
    assert ob.members == ref_orbit_basin_p(net, mu, rho)
    assert set(ob.witnesses) == set(ob.members)
    for mu2, w in ob.witnesses.items():
        assert flows_eventually_equal(net, mu2, w, mu, rho)[0], mu2
    om = omega_basin_p(net, mu, rho)
    assert om.members == ref_basin_p(net, omega)
    _assert_p_witnesses(net, om, lambda o: o == omega)
    want_orbit_n = ref_basin_n(net, omega) if len(omega) == 1 else frozenset()
    assert orbit_basin_n(net, mu, rho).members == want_orbit_n
    if len(omega) <= 32:  # the reference enumerates 2**|omega| subsets
        assert omega_basin_n(net, mu, rho).members == ref_omega_basin_n(net, mu, rho)


def dense_table(n, rng):
    return tuple(rng.randrange(1 << n) for _ in range(1 << n))


def sparse_table(n, rng):
    """One proper successor per state, apart from one planted fixed point."""
    table = [mu ^ (1 << rng.randrange(n)) for mu in range(1 << n)]
    r = rng.randrange(1 << n)
    table[r] = r
    return tuple(table)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    table = (dense_table if draw(st.booleans()) else sparse_table)(n, rng)
    net = Network(n, table)
    states = list(net.states())
    a = frozenset(draw(st.lists(st.sampled_from(states), min_size=1, max_size=len(states))))
    mu = draw(st.sampled_from(states))
    return net, a, mu


@settings(max_examples=150, deadline=None)
@given(cases())
# the synchronous omega from 01 is {01, 10}, a proper part of the fair SCC
# {01, 10, 11}: its omega-n-basin is empty
@example((Network(2, (0, 2, 1, 0)), frozenset({0b01}), 0b01))
def test_closures_match_per_state_definitions(case):
    net, a, mu = case
    check_set_queries(net, a)
    for scc in fair_sccs(net):
        check_set_queries(net, scc)
        # a flow whose omega is the fair SCC itself, which synchronous flows
        # rarely reach; the reference's 2**|scc| subsets bound the size
        if len(scc) <= 16:
            anchor = min(scc)
            rho = witness_schedule(net, anchor, scc)
            assert omega_basin_n(net, anchor, rho).members == ref_omega_basin_n(net, anchor, rho)
    check_flow_queries(net, mu, synchronous(net.n))


@pytest.mark.parametrize(
    "n, make, seed", [(8, dense_table, 8), (10, sparse_table, 10)], ids=["dense-8", "sparse-10"]
)
def test_closures_match_at_larger_n(n, make, seed):
    rng = random.Random(seed)
    net = Network(n, make(n, rng))
    fair = fair_sccs(net)
    half = frozenset(rng.sample(range(1 << n), 1 << (n - 1)))
    for a in (frozenset({min(fair[0])}), frozenset().union(*fair), half):
        check_set_queries(net, a)
    mu = rng.randrange(1 << n)
    check_flow_queries(net, mu, synchronous(n))


def test_omega_basin_n_answers_past_the_subset_cap():
    # the n=6 counter's synchronous omega is all 64 states, twice the old
    # 32-state cap on proper-fair-subset enumeration
    net = Network(6, tuple((s + 1) % 64 for s in range(64)))
    rho = synchronous(6)
    assert omega_limit(net, 0, rho) == frozenset(range(64))
    assert omega_basin_n(net, 0, rho).members == frozenset()


# --- state-set validation ---------------------------------------------------


@pytest.mark.parametrize("bad", [4, -1])
@pytest.mark.parametrize(
    "query",
    [
        basin_p,
        basin_n,
        is_p_invariant,
        is_n_invariant,
        lambda net, states: fair_sccs(net, domain=states),
    ],
    ids=["basin_p", "basin_n", "is_p_invariant", "is_n_invariant", "fair_sccs"],
)
def test_out_of_range_members_rejected(query, bad):
    net = Network(2, (3, 3, 2, 1))
    with pytest.raises(DimensionError):
        query(net, frozenset({0, bad}))


# --- graph cap on flow queries ----------------------------------------------


@pytest.mark.parametrize(
    "table",
    [tuple(range(2048)), tuple(2047 ^ m for m in range(2048))],
    ids=["identity", "negation"],
)
@pytest.mark.parametrize("query", [orbit_basin_p, omega_basin_n])
def test_flow_basins_respect_graph_cap(query, table):
    # the identity flow ends in a fixed point, the negation flow in a
    # two-state cycle; both basins would walk all 2^11 states
    with pytest.raises(CapExceededError):
        query(Network(11, table), 0, synchronous(11))


# --- witnesses along the BFS tree against the per-member builder -------------


def ref_hop_word(hop, mu):
    """The fire-set word following `hop` from mu to a state pointing to itself."""
    word = []
    while hop[mu] != mu:
        word.append(mu ^ hop[mu])
        mu = hop[mu]
    return word, mu


def ref_basin_p_witnesses(net, a):
    """basin_p's witnesses as the per-member builder made them: each
    member's word walked from the BFS tree, fired at times 0, 1, 2, ...
    through the checking constructor, then the anchor's covering cycle."""
    anchors = {min(scc): scc for scc in graph._fair_sccs(net, a)}
    hop = graph._backward_closure(net, list(anchors))
    cycles = {anchor: _covering_cycle(net, scc, anchor) for anchor, scc in anchors.items()}
    out = {}
    for mu in hop:
        word, anchor = ref_hop_word(hop, mu)
        out[mu] = Schedule(net.n, tuple(enumerate(word)), *cycles[anchor], len(word))
    return out


def ref_orbit_basin_p_witnesses(net, mu, rho):
    """orbit_basin_p's witnesses as the per-member builder made them: each
    member's word fired just before t2, inside the first segment of the
    flow's periodic tail, in front of the schedule cut after t2."""
    trace, _ = orbit_trace(net, mu, rho)
    seg_state, seg_dwell = trace.loop[0]
    t2 = trace.loop_entry + Fraction(seg_dwell) / 2
    tail = restrict_after(rho, t2)
    hop = graph._backward_closure(net, [seg_state])
    out = {}
    for mu2 in hop:
        word = ref_hop_word(hop, mu2)[0]
        prefix = tuple((t2 - len(word) + k, fire) for k, fire in enumerate(word))
        out[mu2] = dataclasses.replace(tail, prefix=prefix + tail.prefix)
    return out


def permuted_mask_table(n, rng):
    """Images whose masks (image XOR state) are a permutation of all 2**n
    masks: one fixed point and 3**n - 2**n proper edges."""
    masks = list(range(1 << n))
    rng.shuffle(masks)
    return tuple(mu ^ mask for mu, mask in enumerate(masks))


@st.composite
def witness_tree_cases(draw):
    """A net with n <= 6, a target set, a start state and a schedule: the
    synchronous one, or a random rational one whose cycle has several
    events, so that cutting it inside the flow's tail can leave some of
    the cut occurrence in the prefix."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    net = Network(n, (permuted_mask_table if draw(st.booleans()) else sparse_table)(n, rng))
    states = list(net.states())
    a = frozenset(draw(st.lists(st.sampled_from(states), min_size=1, max_size=len(states))))
    if draw(st.booleans()):  # a random set seldom holds a fair SCC
        a |= draw(st.sampled_from(fair_sccs(net)))
    rho = synchronous(n)
    if draw(st.booleans()):
        period = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        offsets = sorted({period * Fraction(rng.randrange(12), 12) for _ in range(rng.randint(2, 4))})
        fires = [rng.randrange(1 << n) for _ in offsets]
        fires[0] |= (1 << n) - 1
        start = Fraction(rng.randint(0, 6), rng.randint(1, 4))
        times = sorted({start - Fraction(rng.randint(1, 9), 5) for _ in range(rng.randint(0, 3))})
        prefix = tuple((t, rng.randrange(1 << n)) for t in times)
        rho = Schedule(n, prefix, tuple(zip(offsets, fires)), period, start)
    return net, a, draw(st.sampled_from(states)), rho


def _exact(witnesses):
    """Every field of every witness with its type, in dict order."""
    return [(mu, w.n, repr(w.prefix), repr(tuple(w.cycle)), repr(w.period),
             repr(w.cycle_start), render_schedule(w)) for mu, w in witnesses.items()]


def _literal_flow(net, mu, events, t):
    state = mu
    for time, fire in events:
        if time > t:
            break
        state = (state & ~fire) | (net.table[state] & fire)
    return state


def check_witness_rebuilds(net, witnesses):
    """Each witness is one the checking constructor accepts, and its flow
    read on its own time grid is the literal fold of its events: a grid
    left over from a shorter schedule would misplace some event."""
    for mu, w in witnesses.items():
        assert w == Schedule(w.n, w.prefix, tuple(w.cycle), w.period, w.cycle_start)
        events = list(islice(w.events(), len(w.prefix) + 2 * len(w.cycle)))
        times = [t for t, _ in events]
        probes = [times[0] - 1, *times, *(Fraction(s + t) / 2 for s, t in zip(times, times[1:]))]
        for t in probes:
            assert flow_at(net, mu, w, t) == _literal_flow(net, mu, events, t), (mu, t)


@settings(max_examples=200, deadline=None)
@given(witness_tree_cases())
def test_tree_witnesses_equal_the_per_member_builder(case):
    net, a, mu, rho = case
    omega = omega_limit(net, mu, rho)
    for got, want in (
        (basin_p(net, a), ref_basin_p_witnesses(net, a)),
        (orbit_basin_p(net, mu, rho), ref_orbit_basin_p_witnesses(net, mu, rho)),
        (omega_basin_p(net, mu, rho), ref_basin_p_witnesses(net, omega)),
    ):
        assert _exact(got.witnesses) == _exact(want)
        check_witness_rebuilds(net, got.witnesses)
