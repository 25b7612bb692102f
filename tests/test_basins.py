from fractions import Fraction

import pytest

from asyncbool import (
    Network,
    Schedule,
    all_states,
    attractivity_class,
    basin_n,
    basin_p,
    covering_walk,
    flows_eventually_equal,
    is_progressive,
    iterate_word,
    omega_basin_n,
    omega_basin_p,
    omega_limit,
    orbit_basin_n,
    orbit_basin_p,
    orbit_trace,
    render_schedule,
    synchronous,
    witness_schedule,
)


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
        state = iterate_word(net1, state, [fire])
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
