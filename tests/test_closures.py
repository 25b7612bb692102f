"""The closure-based basins against their per-state definitions.

The reference functions below decide membership one state at a time from
reachable_set and fair_sccs, exactly as the definitions read: a state is
in the p-basin of A iff it reaches a fair SCC of the subgraph induced on
A, in the n-basin iff every fair SCC it reaches lies in A.  The fair SCCs
a state mu reaches are fair_sccs(net, reachable_set(net, mu)): the SCCs of
the subgraph induced on a forward-closed set are SCCs of the full graph.
Every witness the closures return must replay.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import (
    CapExceededError,
    DimensionError,
    Network,
    attractivity_class,
    basin_n,
    basin_p,
    fair_sccs,
    flows_eventually_equal,
    is_fair_set,
    is_fixed_point,
    is_n_invariant,
    is_p_invariant,
    omega_basin_n,
    omega_basin_p,
    omega_limit,
    orbit_basin_n,
    orbit_basin_p,
    proper_successors,
    reachable_set,
    synchronous,
    witness_schedule,
)

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
    if len(omega) == 1 and is_fixed_point(net, next(iter(omega))):
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
