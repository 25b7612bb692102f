import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import (
    CapExceededError,
    DimensionError,
    Network,
    NotAchievableError,
    Schedule,
    all_states,
    apply_fire_set,
    attractivity_class,
    basin_n,
    basin_p,
    covering_walk,
    fair_sccs,
    flows_eventually_equal,
    full_mask,
    is_fair_set,
    is_progressive,
    omega_basin_n,
    omega_basin_p,
    omega_limit,
    orbit_basin_n,
    orbit_basin_p,
    orbit_trace,
    reachable_set,
    render_schedule,
    restrict_after,
    synchronous,
    witness_schedule,
)
from asyncbool import basins as basins_mod
from asyncbool import graph
from asyncbool import schedule as schedule_mod
from asyncbool.oracle import _draws
from tests.test_closures import ref_basin_p_witnesses, ref_orbit_basin_p_witnesses
from tests.test_reaching import chain_table, dense_table, sparse_table


def test_point_basins_of_net1(net1):
    bp = basin_p(net1, frozenset({0b10}))
    bn = basin_n(net1, frozenset({0b10}))
    assert bp.members == {0b00, 0b10}
    assert bn.members == {0b10}


def test_basin_witnesses_replay(net1):
    bp = basin_p(net1, frozenset({0b10}))
    for mu, rho in bp.witnesses.items():
        assert is_progressive(rho)
        assert omega_limit(net1, mu, rho) <= {0b10}


def test_cycle_attractor_basin(net1):
    cyc = frozenset({0b01, 0b11})
    assert basin_p(net1, cyc, with_witnesses=False).members == {0b00, 0b01, 0b11}
    assert basin_n(net1, cyc).members == {0b01, 0b11}


def test_full_space_basins(net1):
    full = all_states(2)
    assert basin_p(net1, full, with_witnesses=False).members == full
    assert basin_n(net1, full).members == full


def test_empty_attractor_rejected(net1):
    with pytest.raises(ValueError):
        basin_p(net1, frozenset())
    with pytest.raises(ValueError):
        basin_n(net1, frozenset())


def test_non_invariant_target_has_empty_basin(net1):
    # 00 is not a fixed point, so nothing can settle inside {00}
    assert basin_p(net1, frozenset({0b00})).members == frozenset()
    assert basin_n(net1, frozenset({0b00})).members == frozenset()


def test_attractivity_classes(net1, id2):
    assert attractivity_class(net1, frozenset({0b10})) == attractivity_class(
        net1, frozenset({0b10})
    )
    cls = attractivity_class(net1, all_states(2))
    assert (cls.p_class, cls.n_class) == ("total", "total")
    cls = attractivity_class(net1, frozenset({0b00}))
    assert (cls.p_class, cls.n_class) == ("not", "not")
    cls = attractivity_class(id2, frozenset({0b01}))
    assert (cls.p_class, cls.n_class) == ("partial", "partial")


def test_covering_walk_covers_target(net1):
    target = frozenset({0b01, 0b11})
    word = covering_walk(net1, target, 0b01)
    state = 0b01
    seen = {state}
    for fire in word:
        state = apply_fire_set(net1, state, fire)
        seen.add(state)
        assert state in target
    assert state == 0b01
    assert seen == target


def test_covering_walk_rejects_target_not_strongly_connected(net1):
    # {00, 10} is fair (10 is fixed), but nothing leads from 10 back to 00
    with pytest.raises(ValueError, match="not strongly connected"):
        covering_walk(net1, frozenset({0b00, 0b10}), 0b00)


def test_witness_schedule_reaches_target(net1):
    rho = witness_schedule(net1, 0b00, frozenset({0b01, 0b11}))
    assert omega_limit(net1, 0b00, rho) == {0b01, 0b11}
    rho = witness_schedule(net1, 0b00, frozenset({0b10}))
    assert omega_limit(net1, 0b00, rho) == {0b10}


def test_witness_schedule_rejects_unreachable(net1):
    with pytest.raises(ValueError):
        witness_schedule(net1, 0b11, frozenset({0b10}))


def test_aligned_witness_gives_eventual_flow_equality(net1):
    ref = synchronous(2)
    rho = witness_schedule(
        net1, 0b00, frozenset({0b01, 0b11}), align_to=(0b11, ref)
    )
    ok, _ = flows_eventually_equal(net1, 0b00, rho, 0b11, ref)
    assert ok


def test_orbit_basin_p_members_and_witnesses(net1):
    result = orbit_basin_p(net1, 0b11, synchronous(2))
    assert result.members == all_states(2) - {0b10}
    for mu, rho in result.witnesses.items():
        ok, _ = flows_eventually_equal(net1, mu, rho, 0b11, synchronous(2))
        assert ok, mu


def test_orbit_basin_p_witnesses_of_an_int_time_schedule(net1):
    # a schedule built through the API with int times: the splice time
    # must stay exact, or the witnesses carry float times and cannot render
    rho = Schedule(2, (), ((0, 3),), 1, 0)
    reference = omega_limit(net1, 0b00, rho)
    result = orbit_basin_p(net1, 0b00, rho)
    assert result.witnesses
    for mu, witness in result.witnesses.items():
        assert "." not in render_schedule(witness)
        assert omega_limit(net1, mu, witness) == reference


def test_orbit_basin_n_empty_for_proper_cycle(net1):
    assert orbit_basin_n(net1, 0b11, synchronous(2)).members == frozenset()


def test_orbit_basin_n_of_constant_flow(net1):
    # the flow from the fixed point is constant; its n-orbit-basin is the
    # n-basin of the point
    assert orbit_basin_n(net1, 0b10, synchronous(2)).members == {0b10}


def test_omega_basins(net1):
    # omega = {01, 11} from 11 under sync
    assert omega_basin_p(net1, 0b11, synchronous(2), with_witnesses=False).members == {
        0b00,
        0b01,
        0b11,
    }
    # the 2-cycle is a maximal fair SCC with no proper fair subset, so the
    # n-omega-basin is the set of states that cannot avoid it
    assert omega_basin_n(net1, 0b11, synchronous(2)).members == {0b01, 0b11}
    assert omega_basin_n(net1, 0b10, synchronous(2)).members == {0b10}


def test_omega_basin_witness_reproduces_omega_exactly(net1):
    result = omega_basin_p(net1, 0b11, synchronous(2))
    for mu, rho in result.witnesses.items():
        assert omega_limit(net1, mu, rho) == {0b01, 0b11}


def test_identity_point_basins(id2):
    for mu in id2.states():
        assert basin_p(id2, frozenset({mu})).members == {mu}
        assert basin_n(id2, frozenset({mu})).members == {mu}


# --- witness_schedule decides achievability by building the witness --------


def test_witness_schedule_contract(net1):
    # 10 is a fixed point that 11 cannot reach
    with pytest.raises(NotAchievableError, match="not achievable"):
        witness_schedule(net1, 0b11, frozenset({0b10}))
    # reachable from 00, but 00 is not fixed, and nothing leads from 10
    # back to 00
    with pytest.raises(NotAchievableError, match="not fair"):
        witness_schedule(net1, 0b00, frozenset({0b00}))
    with pytest.raises(NotAchievableError, match="not strongly connected"):
        witness_schedule(net1, 0b00, frozenset({0b00, 0b10}))
    with pytest.raises(ValueError):
        witness_schedule(net1, 0b00, frozenset())
    for mu, target in ((4, frozenset({0b10})), (-1, frozenset({0b10})),
                       (0b00, frozenset({0b10, 4})), (0b00, frozenset({-1}))):
        with pytest.raises(DimensionError):
            witness_schedule(net1, mu, target)
    # the flow of 11 under the synchronous schedule ends in {01, 11}
    with pytest.raises(ValueError, match="align_to"):
        witness_schedule(net1, 0b00, frozenset({0b10}), align_to=(0b11, synchronous(2)))
    with pytest.raises(CapExceededError):
        witness_schedule(Network(11, tuple(range(2048))), 0, frozenset({0}))


def parent_witness_schedule(net, mu_from, target, align_to=None):
    """witness_schedule as it read when it tested achievability up front,
    through the graph, before building anything."""
    if not (is_fair_set(net, target) and reachable_set(net, mu_from) & target):
        raise ValueError("target is not achievable from the given state")
    if align_to is None:
        word, anchor = basins_mod._bfs_path(net, mu_from, target)
        return basins_mod._walk_then_cycle(
            net.n, word, *basins_mod._covering_cycle(net, target, anchor))
    ref_mu, ref_rho = align_to
    trace, _ = orbit_trace(net, ref_mu, ref_rho)
    if trace.loop_states != target:
        raise ValueError("align_to flow does not have the target as omega-limit set")
    # the splice as it read on OrbitTrace: the first loop segment, a time
    # halfway through it, and the reference schedule after that time
    seg_state, seg_dwell = trace.loop[0]
    t2 = trace.loop_entry + Fraction(seg_dwell) / 2
    tail = restrict_after(ref_rho, t2)
    word, _ = basins_mod._bfs_path(net, mu_from, frozenset({seg_state}))
    prefix = tuple((t2 - len(word) + k, fire) for k, fire in enumerate(word))
    return dataclasses.replace(tail, prefix=prefix + tail.prefix)


def _rendered_or_refused(make):
    try:
        return render_schedule(make())
    except ValueError:
        return None


def _witness_or_refusal_type(net, mu, target, align_to):
    """The rendered witness, or None when it is refused as not achievable.
    The only other refusal is a reference flow whose omega is not the
    target, a plain ValueError."""
    try:
        return render_schedule(witness_schedule(net, mu, target, align_to))
    except NotAchievableError:
        return None
    except ValueError as exc:
        assert type(exc) is ValueError and "align_to" in str(exc)
        return None


@st.composite
def witness_cases(draw):
    """A net with n <= 5, a start state, a target (a fair SCC or any
    nonempty set) and an optional reference flow to align to."""
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    net = Network(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
    states = list(net.states())
    mu = draw(st.sampled_from(states))
    target = frozenset(draw(st.lists(st.sampled_from(states), min_size=1, max_size=6)))
    if draw(st.booleans()):
        target = draw(st.sampled_from(fair_sccs(net)))
    align_to = None
    if draw(st.booleans()):
        fires = [rng.randrange(1 << n) for _ in range(rng.randint(1, 3))]
        fires[0] |= full_mask(n)
        cycle = tuple((Fraction(k, 3), fire) for k, fire in enumerate(fires))
        timed = Schedule(n, (), cycle, Fraction(len(fires)), 0)
        rho = draw(st.sampled_from([synchronous(n), timed]))
        ref_mu = draw(st.sampled_from(states))
        align_to = (ref_mu, rho)
        if draw(st.booleans()):
            target = omega_limit(net, ref_mu, rho)
    return net, mu, target, align_to


@settings(max_examples=300, deadline=None)
@given(witness_cases())
def test_witness_schedule_matches_the_up_front_achievability_test(case):
    net, mu, target, align_to = case
    got = _witness_or_refusal_type(net, mu, target, align_to)
    want = _rendered_or_refused(lambda: parent_witness_schedule(net, mu, target, align_to))
    assert got == want


# --- witness trees and aligned walks, checked by layer ------------------------


@st.composite
def witness_tree_cases(draw):
    """A dense, sparse or chain table with n <= 6; a flow from a drawn state
    under synchronous(n) or one of the rational schedules of oracle's
    draws; a target holding a fair SCC; and start states for aligned
    witnesses."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from([dense_table, sparse_table, chain_table]))
    net = Network(n, make(n, rng))
    states = list(net.states())
    rho = draw(st.sampled_from([rho for rho, _ in _draws(n, rng.getstate())[0]]))
    a = draw(st.sampled_from(fair_sccs(net))).union(
        draw(st.lists(st.sampled_from(states), max_size=4)))
    starts = draw(st.lists(st.sampled_from(states), min_size=1, max_size=8, unique=True))
    return net, a, draw(st.sampled_from(states)), rho, starts


@settings(max_examples=150, deadline=None)
@given(witness_tree_cases())
def test_witnesses_equal_the_checked_constructor_and_replay(case):
    # witnesses are built from parts checked once per layer: each must be
    # one the checking constructor accepts, equal the per-member reference
    # to the type of every time, and replay
    net, a, mu, rho, starts = case
    omega = omega_limit(net, mu, rho)
    orbit = orbit_basin_p(net, mu, rho)
    aligned = [s for s in starts if s in orbit]
    for s in set(starts) - set(aligned):
        with pytest.raises(NotAchievableError):
            witness_schedule(net, s, omega, align_to=(mu, rho))

    def joins(s, w):
        return flows_eventually_equal(net, s, w, mu, rho)[0]

    for got, want, replays in (
        (basin_p(net, a).witnesses, ref_basin_p_witnesses(net, a),
         lambda s, w: omega_limit(net, s, w) <= a),
        (orbit.witnesses, ref_orbit_basin_p_witnesses(net, mu, rho), joins),
        (omega_basin_p(net, mu, rho).witnesses, ref_basin_p_witnesses(net, omega),
         lambda s, w: omega_limit(net, s, w) == omega),
        ({s: witness_schedule(net, s, omega, align_to=(mu, rho)) for s in aligned},
         {s: parent_witness_schedule(net, s, omega, (mu, rho)) for s in aligned}, joins),
    ):
        assert list(got) == list(want)
        for s, w in got.items():
            assert w == Schedule(w.n, w.prefix, tuple(w.cycle), w.period, w.cycle_start)
            assert repr(w) == repr(want[s])
            assert replays(s, w), s


def test_aligned_witness_is_built_in_one_pass(monkeypatch):
    # 1 000 steps back along the n = 10 Gray-code cycle from the state the
    # synchronous flow of 0 holds at its loop entry: one witness schedule,
    # not one per letter, besides the tail cut off the reference
    net, rho = gray_cycle(10), synchronous(10)
    gray = [i ^ (i >> 1) for i in range(1 << 10)]
    omega = frozenset(net.states())
    seg_state = basins_mod._splicer(net, 0, rho)[1]
    start = gray[(gray.index(seg_state) - 1000) % (1 << 10)]
    built = []

    def counting(*parts):
        built.append(parts)
        return trusted(*parts)

    trusted = schedule_mod._trusted
    monkeypatch.setattr(schedule_mod, "_trusted", counting)
    monkeypatch.setattr(basins_mod, "_trusted", counting)
    witness = witness_schedule(net, start, omega, align_to=(0, rho))
    monkeypatch.undo()
    assert len(built) == 2
    assert len(witness.prefix) == 1000
    assert repr(witness) == repr(parent_witness_schedule(net, start, omega, (0, rho)))


# --- covering walks and omega n-basins against their per-step references ----


def per_leg_covering_walk(net, target, anchor):
    """covering_walk as one breadth-first search per leg: from the current
    state to the nearest pending state, successors in decreasing fire-set
    order, until every state is visited; then back to the anchor."""

    def leg(start, goals):
        if start in goals:
            return [], start
        parent = {start: start}
        queue = [start]
        for state in queue:
            for t in graph._targets(net.table, state):
                if t in parent or t not in target:
                    continue
                parent[t] = state
                if t in goals:
                    word, mu = [], t
                    while mu != start:
                        word.append(mu ^ parent[mu])
                        mu = parent[mu]
                    return word[::-1], t
                queue.append(t)
        raise AssertionError("target is strongly connected")

    word, current, pending = [], anchor, set(target) - {anchor}
    while pending:
        step, current = leg(current, frozenset(pending))
        word += step
        pending.discard(current)
    return word + leg(current, frozenset({anchor}))[0]


@st.composite
def dense_or_sparse_nets(draw, max_n):
    """Any table; one flipped bit per state with some fixed points, which
    gives long simple cycles of chain states; or none, one or two flipped
    bits per state, which gives chains that start and end at branching
    states."""
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "one bit", "few bits"]))
    if kind == "dense":
        return Network(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
    if kind == "one bit":
        masks = [0] + [1 << i for i in range(n)] * 3
    else:
        masks = [0, 1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48]
    return Network(n, tuple(mu ^ (rng.choice(masks) & ((1 << n) - 1)) for mu in range(1 << n)))


@settings(max_examples=200, deadline=None)
@given(dense_or_sparse_nets(5))
def test_covering_walks_equal_the_per_leg_search(net):
    for scc in fair_sccs(net):
        for anchor in scc:
            assert covering_walk(net, scc, anchor) == per_leg_covering_walk(net, scc, anchor)


def per_state_omega_basin_n(net, mu, rho):
    """omega_basin_n with one removal per state of omega."""
    omega = omega_limit(net, mu, rho)
    members = basin_n(net, omega).members
    if members and any(graph._fair_sccs(net, omega - {s}) for s in omega):
        return frozenset()
    return members


def maximal_chains(net, omega):
    """The maximal chains of the edges internal to omega: its states with
    one internal predecessor and one internal successor, joined along the
    edges between them."""
    succ = {mu: [t for t in graph._targets(net.table, mu) if t in omega] for mu in omega}
    indegree = {mu: 0 for mu in omega}
    for targets in succ.values():
        for t in targets:
            indegree[t] += 1
    group = {mu: {mu} for mu in omega if len(succ[mu]) == indegree[mu] == 1}
    for mu in list(group):
        t = succ[mu][0]
        if t in group and group[t] is not group[mu]:
            merged = group[mu] | group[t]
            for x in merged:
                group[x] = merged
    return {frozenset(g) for g in group.values()}


@settings(max_examples=200, deadline=None)
@given(dense_or_sparse_nets(6), st.integers(0, 63))
def test_omega_basin_n_equals_one_removal_per_state(net, start):
    for omega in fair_sccs(net):
        # one removal per maximal chain, whose states all answer alike
        cut = basins_mod._chain_cut(net, omega)
        chains = maximal_chains(net, omega)
        on_chains = frozenset().union(*chains)
        assert len(cut) == len(set(cut))
        assert set(cut) - on_chains == omega - on_chains
        assert all(len(chain.intersection(cut)) == 1 for chain in chains)
        for chain in chains:
            assert len({bool(graph._fair_sccs(net, omega - {s})) for s in chain}) == 1
    # the synchronous flow, and flows whose omega is a whole fair SCC: only
    # those can have a nonempty omega n-basin
    flows = [(start % (1 << net.n), synchronous(net.n))]
    flows += [(min(scc), witness_schedule(net, min(scc), scc)) for scc in fair_sccs(net)]
    for mu, rho in flows:
        assert omega_basin_n(net, mu, rho).members == per_state_omega_basin_n(net, mu, rho)


def gray_cycle(n):
    """Each state steps to the next state of the n-bit Gray code: one
    simple cycle through all 2**n states, the synchronous omega of each."""
    gray = [i ^ (i >> 1) for i in range(1 << n)]
    table = [0] * (1 << n)
    for i, g in enumerate(gray):
        table[g] = gray[(i + 1) % (1 << n)]
    return Network(n, tuple(table))


def test_omega_basin_n_of_the_gray_cycle_at_the_cap():
    # every state of the cycle is a chain state: one removal, not 1 024
    net = gray_cycle(10)
    start = time.perf_counter()
    result = omega_basin_n(net, 0, synchronous(10))
    elapsed = time.perf_counter() - start
    assert result.members == frozenset(net.states())
    assert elapsed < 0.5
