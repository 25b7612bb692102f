"""Property-based checks over random networks and schedules."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import (
    Network,
    OracleBounds,
    Schedule,
    all_states,
    apply_fire_set,
    attractivity_class,
    basin_n,
    basin_p,
    covering_walk,
    fair_sccs,
    fair_subsets,
    flow_at,
    full_mask,
    is_fair_set,
    is_n_invariant,
    is_p_invariant,
    omega_limit,
    oracle_basin,
    orbit_trace,
    parse_schedule,
    reachable_set,
    render_schedule,
    synchronous,
    translate,
    unstable_set,
    witness_schedule,
)
from asyncbool.core import check_state


def networks(n: int):
    return st.tuples(
        *[st.integers(0, (1 << n) - 1) for _ in range(1 << n)]
    ).map(lambda t: Network(n, t))


def rationals():
    return st.builds(
        Fraction, st.integers(-30, 30), st.integers(1, 6)
    )


@st.composite
def schedules(draw, n: int):
    qlen = draw(st.integers(1, 3))
    period = draw(st.builds(Fraction, st.integers(1, 8), st.integers(1, 3)))
    slots = draw(st.integers(qlen, qlen + 2))
    offs = sorted(draw(st.sets(st.integers(0, slots - 1), min_size=qlen, max_size=qlen)))
    fires = [draw(st.integers(0, (1 << n) - 1)) for _ in range(qlen)]
    fires[draw(st.integers(0, qlen - 1))] = full_mask(n)  # keep it progressive
    cycle = tuple((period * Fraction(o, slots), f) for o, f in zip(offs, fires))
    plen = draw(st.integers(0, 2))
    ptimes = sorted(
        draw(st.sets(rationals(), min_size=plen, max_size=plen))
    )
    start = draw(st.builds(Fraction, st.integers(0, 4), st.integers(1, 2)))
    if ptimes:
        start = max(start, max(ptimes) + Fraction(1, 7))
    prefix = tuple(
        (t, draw(st.integers(0, (1 << n) - 1))) for t in ptimes
    )
    return Schedule(n, prefix, cycle, period, start)


@settings(max_examples=60, deadline=None)
@given(networks(3), st.integers(0, 7), st.integers(0, 7))
def test_apply_fire_set_changes_only_fired_bits(net, mu, nu):
    out = apply_fire_set(net, mu, nu)
    assert out & ~nu == mu & ~nu
    assert out ^ mu <= nu | unstable_set(net, mu)


@settings(max_examples=40, deadline=None)
@given(networks(3), st.integers(0, 7), schedules(3))
def test_omega_is_nonempty_subset_of_orbit(net, mu, rho):
    trace, orbit = orbit_trace(net, mu, rho)
    omega = omega_limit(net, mu, rho)
    assert omega
    assert omega <= orbit
    assert mu in orbit


@settings(max_examples=40, deadline=None)
@given(networks(3), st.integers(0, 7), schedules(3), rationals())
def test_translation_invariance(net, mu, rho, d):
    assert omega_limit(net, mu, translate(rho, d)) == omega_limit(net, mu, rho)


@settings(max_examples=30, deadline=None)
@given(networks(3), st.integers(0, 7), schedules(3), rationals())
def test_flow_is_right_continuous_step_function(net, mu, rho, t):
    trace, _ = orbit_trace(net, mu, rho)
    assert trace.value_at(t) == flow_at(net, mu, rho, t)


@settings(max_examples=40, deadline=None)
@given(networks(3), st.integers(0, 7), schedules(3))
def test_schedule_text_roundtrip(net, mu, rho):
    again = parse_schedule(render_schedule(rho), rho.n)
    assert again == rho
    assert omega_limit(net, mu, again) == omega_limit(net, mu, rho)


@settings(max_examples=60, deadline=None)
@given(networks(3), st.integers(0, 7))
def test_orbit_stays_in_reachable_set(net, mu):
    reach = reachable_set(net, mu)
    _, orbit = orbit_trace(net, mu, synchronous(3))
    assert orbit <= reach


@settings(max_examples=40, deadline=None)
@given(networks(3), st.sets(st.integers(0, 7), min_size=1).map(frozenset))
def test_invariance_hierarchy_and_basin_inclusion(net, a):
    n_inv = is_n_invariant(net, a)
    p_inv = is_p_invariant(net, a)
    if n_inv:
        assert p_inv
    w_p = basin_p(net, a, with_witnesses=False).members
    w_n = basin_n(net, a).members
    assert w_n <= w_p
    if p_inv:
        assert a <= w_p
    if n_inv:
        assert a <= w_n


@settings(max_examples=40, deadline=None)
@given(networks(3))
def test_fair_sccs_partition_property(net):
    sccs = fair_sccs(net)
    # pairwise disjoint and every omega of the synchronous run lands in one
    seen = set()
    for scc in sccs:
        assert not (scc & seen)
        seen |= scc
    full = all_states(3)
    assert basin_p(net, full, with_witnesses=False).members == full


@settings(max_examples=40, deadline=None)
@given(networks(2), st.integers(0, 3), schedules(2))
def test_omega_witnessed_by_basin_p(net, mu, rho):
    omega = omega_limit(net, mu, rho)
    result = basin_p(net, omega)
    assert mu in result.members
    witness = result.witnesses[mu]
    assert omega_limit(net, mu, witness) <= omega


# every public entry point that takes a state set a, called with a state
# mu where it needs one
SET_ENTRY_POINTS = {
    "basin_p": lambda net, a, mu: basin_p(net, a),
    "basin_n": lambda net, a, mu: basin_n(net, a),
    "attractivity_class": lambda net, a, mu: attractivity_class(net, a),
    "witness_schedule": lambda net, a, mu: witness_schedule(net, mu, a),
    "covering_walk": lambda net, a, mu: covering_walk(net, a, mu),
    "fair_sccs": lambda net, a, mu: fair_sccs(net, a),
    "is_fair_set": lambda net, a, mu: is_fair_set(net, a),
    "fair_subsets": lambda net, a, mu: fair_subsets(net, a),
    "is_n_invariant": lambda net, a, mu: is_n_invariant(net, a),
    "is_p_invariant": lambda net, a, mu: is_p_invariant(net, a),
    "oracle_basin": lambda net, a, mu: oracle_basin(net, a, "n", OracleBounds(1, 1)),
}


def _outcome(call):
    """What call() returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def state_sets(draw):
    """A random net of n <= 5, a nonempty set whose members may lie out
    of range or be no int, and a state."""
    n = draw(st.integers(1, 5))
    size = 1 << n
    member = st.one_of(
        st.integers(0, size - 1),
        st.integers(-2, size + 2),
        st.sampled_from([1.0, Fraction(1), "1", None]),
    )
    members = frozenset(draw(st.lists(member, min_size=1, max_size=6)))
    return draw(networks(n)), members, draw(st.integers(0, size - 1))


@settings(max_examples=100, deadline=None)
@given(state_sets())
def test_every_set_entry_point_reads_any_iterable_once(case):
    net, a, mu = case
    # with two or more members refused, the first one named follows the
    # iteration order of the set read, which a frozenset rebuilt from a
    # list need not share: any of their refusals is then the answer
    refusals = {_outcome(lambda: check_state(s, net.n)) for s in a}
    refusals.discard(None)
    for name, entry in SET_ENTRY_POINTS.items():
        want = _outcome(lambda: entry(net, a, mu))
        for form in (set(a), list(a), tuple(a), iter(list(a)), (s for s in a)):
            got = _outcome(lambda: entry(net, form, mu))
            assert got == want or len(refusals) > 1 and {got, want} <= refusals, (name, form)
