from fractions import Fraction

import pytest

from asyncbool import (
    STEP_CAP,
    DimensionError,
    Network,
    NotProgressiveError,
    Schedule,
    ScheduleError,
    flow_at,
    flows_eventually_equal,
    is_progressive,
    omega_limit,
    orbit_trace,
    restrict_after,
    synchronous,
    translate,
)
from asyncbool.schedule import _led_by

F = Fraction


def mk(n, prefix, cycle, period, start):
    return Schedule(
        n,
        tuple((F(t), f) for t, f in prefix),
        tuple((F(o), f) for o, f in cycle),
        F(period),
        F(start),
    )


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        mk(2, [], [], 1, 0)  # empty cycle
    with pytest.raises(ScheduleError):
        mk(2, [], [(0, 3)], 0, 0)  # zero period
    with pytest.raises(ScheduleError):
        mk(2, [], [(1, 3)], 1, 0)  # offset outside [0, period)
    with pytest.raises(ScheduleError):
        mk(2, [(0, 1), (0, 2)], [(0, 3)], 1, 1)  # non-increasing prefix
    with pytest.raises(ScheduleError):
        mk(2, [(2, 1)], [(0, 3)], 1, 1)  # cycle starts inside the prefix


@pytest.mark.parametrize("cycle", [[(F(1, 2), 1), (0, 2)], [(0, 1), (0, 2)]],
                         ids=["decreasing", "repeated"])
def test_cycle_offsets_must_strictly_increase(cycle):
    with pytest.raises(ScheduleError, match="^cycle offsets must strictly increase$"):
        mk(2, [], cycle, 1, 0)


def test_events_are_strictly_increasing():
    rho = mk(2, [(-1, 1), (0, 2)], [(0, 3), (F(1, 2), 1)], 2, 5)
    times = []
    for t, _ in rho.events():
        times.append(t)
        if len(times) > 10:
            break
    assert all(a < b for a, b in zip(times, times[1:]))


def test_progressiveness(net1):
    assert is_progressive(synchronous(3))
    rho = mk(2, [], [(0, 0b10)], 1, 0)
    assert not is_progressive(rho)
    with pytest.raises(NotProgressiveError, match="^coordinate 2 never fires$"):
        omega_limit(net1, 0, rho)


def test_progressiveness_reads_one_union_per_cycle():
    # coordinates 1 and 3 of n=3 never fire; in a wider network the fired
    # coordinate is 3, so 1, 2 and 4 are missing
    rho = mk(3, [], [(0, 0b010), (F(1, 2), 0b010)], 1, 0)
    assert not is_progressive(rho)
    assert vars(rho.cycle)["fires"] == 0b010
    shifted = translate(rho, F(3))
    assert shifted.cycle is rho.cycle
    with pytest.raises(NotProgressiveError, match="^coordinate 1, 3 never fires$"):
        omega_limit(Network(3, tuple(range(8))), 0, shifted)
    with pytest.raises(NotProgressiveError, match="^coordinate 1, 2, 4 never fires$"):
        omega_limit(Network(4, tuple(range(16))), 0, rho)


def test_flow_before_first_event_is_initial(net1):
    rho = synchronous(2)
    assert flow_at(net1, 0b00, rho, F(-1)) == 0b00
    assert flow_at(net1, 0b00, rho, F(0)) == 0b11


def test_flow_rejects_non_progressive(net1):
    rho = mk(2, [], [(0, 0b10)], 1, 0)
    with pytest.raises(NotProgressiveError):
        flow_at(net1, 0, rho, F(1))


def test_sync_omega_of_net1_cycle(net1):
    # 00 -> 11 -> 01 -> 11 -> ... under the synchronous schedule
    assert omega_limit(net1, 0b00, synchronous(2)) == {0b01, 0b11}
    assert omega_limit(net1, 0b10, synchronous(2)) == {0b10}


def test_orbit_trace_structure(net1):
    trace, orbit = orbit_trace(net1, 0b00, synchronous(2))
    assert trace.initial == 0b00
    assert orbit == {0b00, 0b11, 0b01}
    assert trace.loop_states == {0b01, 0b11}
    # dwell times of the loop sum to a whole number of periods
    assert sum((d for _, d in trace.loop), F(0)) % F(1) == 0


def test_trace_value_at_matches_flow(net1):
    rho = mk(2, [(0, 0b10)], [(0, 0b11), (F(1, 3), 0b01)], 1, 2)
    trace, _ = orbit_trace(net1, 0b00, rho)
    for t in [F(-1), F(0), F(1), F(2), F(7, 3), F(5, 2), F(3), F(10, 3), F(9)]:
        assert trace.value_at(t) == flow_at(net1, 0b00, rho, t), t


def test_fixed_point_orbit_is_singleton(net1):
    for rho in (synchronous(2), mk(2, [(0, 1)], [(0, 2), (F(1, 2), 1)], 1, 1)):
        trace, orbit = orbit_trace(net1, 0b10, rho)
        assert orbit == {0b10}
        assert trace.loop_states == {0b10}


def test_translate_shifts_flow(net1):
    rho = synchronous(2)
    shifted = translate(rho, F(7, 2))
    for t in [F(-1), F(0), F(1), F(5, 2)]:
        assert flow_at(net1, 0b00, shifted, t + F(7, 2)) == flow_at(net1, 0b00, rho, t)
    assert omega_limit(net1, 0b00, shifted) == omega_limit(net1, 0b00, rho)


def test_restrict_after_factors_flow(net1):
    rho = mk(2, [(0, 0b01)], [(0, 0b11), (F(1, 2), 0b10)], 2, 1)
    for t_prime in [F(-5), F(0), F(3, 2), F(2), F(17, 4)]:
        mid = flow_at(net1, 0b00, rho, t_prime)
        tail = restrict_after(rho, t_prime)
        assert is_progressive(tail)
        for dt in [F(0), F(1, 4), F(1), F(3)]:
            t = t_prime + dt
            assert flow_at(net1, mid, tail, t) == flow_at(net1, 0b00, rho, t)


def test_restrict_after_drops_past_events():
    rho = mk(2, [(0, 1), (1, 2)], [(0, 3)], 1, 2)
    tail = restrict_after(rho, F(1, 2))
    assert tail.prefix == ((F(1), 2),)
    tail2 = restrict_after(rho, F(10))
    assert tail2.prefix == ()
    assert tail2.cycle_start == F(11)


def _lead(t, fire, rest):
    return _led_by(rest.n, t, fire, rest.prefix, rest.cycle, rest.period, rest.cycle_start)


def test_leading_event_is_checked():
    # the fast path skips the events a Schedule already checked, not the new one
    rho = mk(2, [(1, 0b01)], [(0, 0b11)], 1, 2)
    with pytest.raises(DimensionError):
        _lead(0, 0b100, rho)
    with pytest.raises(DimensionError):
        _lead(0, -1, rho)
    for t in (1, F(3, 2), 5):  # at, or after, the first event
        with pytest.raises(ScheduleError):
            _lead(t, 0b01, rho)
    no_prefix = mk(2, [], [(0, 0b11)], 1, 2)
    for t in (2, F(5, 2)):  # at, or after, the cycle start
        with pytest.raises(ScheduleError):
            _lead(t, 0b01, no_prefix)
    with pytest.raises(ScheduleError):
        _lead(0.5, 0b01, rho)
    led = _lead(F(-1, 3), 0b10, _lead(0, 0b01, no_prefix))
    assert led == mk(2, [(F(-1, 3), 0b10), (0, 0b01)], [(0, 0b11)], 1, 2)


def test_leading_event_derives_its_own_grid(net1):
    rho = Schedule(2, ((1, 0b01),), ((0, 0b11),), 1, 2)
    flow_at(net1, 0b00, rho, 5)  # derives rho's grid, all on whole ticks
    led = _lead(F(-1, 3), 0b10, rho)
    want = Schedule(2, ((F(-1, 3), 0b10), (1, 0b01)), ((0, 0b11),), 1, 2)
    for t in (F(-1, 2), F(-1, 3), F(-1, 6), 0, 1, F(3, 2), 2, F(7, 3)):
        assert flow_at(net1, 0b00, led, t) == flow_at(net1, 0b00, want, t)
    assert flow_at(net1, 0b00, led, F(-1, 3)) == 0b10


def test_shift_and_cut_must_be_int_or_fraction():
    # a float shift used to be taken silently, leaving a binary-float time
    # with a 2**55 denominator in the translated schedule
    rho = mk(2, [(0, 1)], [(0, 3), (F(1, 2), 2)], 1, 1)
    for transform in (translate, restrict_after):
        with pytest.raises(ScheduleError, match="is not an int or Fraction") as exc:
            transform(rho, 0.1)
        assert "\n" not in str(exc.value)
        assert transform(rho, 2) == transform(rho, F(2))
        assert transform(rho, F(1, 3)).cycle is rho.cycle
    assert translate(rho, 2).cycle_start == F(3)
    assert translate(rho, F(1, 3)).prefix == ((F(1, 3), 1),)
    assert restrict_after(rho, 2).prefix == ((F(5, 2), 2),)
    assert restrict_after(rho, F(1, 3)).cycle_start == F(1)


def test_flows_eventually_equal_same_flow(net1):
    ok, witness = flows_eventually_equal(net1, 0b00, synchronous(2), 0b00, synchronous(2))
    assert ok
    assert witness is not None


def test_flows_eventually_equal_different_fixed_points():
    net = Network(2, (0, 1, 2, 3))  # identity: flows are constant
    ok, _ = flows_eventually_equal(net, 0b00, synchronous(2), 0b01, synchronous(2))
    assert not ok


def test_flows_eventually_equal_after_transient(net1):
    # 00 and 01 both map to 11 at t=0 and stay in phase afterwards
    ok, witness = flows_eventually_equal(net1, 0b00, synchronous(2), 0b01, synchronous(2))
    assert ok
    trace1, _ = orbit_trace(net1, 0b00, synchronous(2))
    trace2, _ = orbit_trace(net1, 0b01, synchronous(2))
    assert trace1.value_at(witness) == trace2.value_at(witness)


def test_flows_eventually_equal_out_of_phase(net1):
    # 00 and 11 trace the same cycle in opposite phase: never equal
    ok, _ = flows_eventually_equal(net1, 0b00, synchronous(2), 0b11, synchronous(2))
    assert not ok


def test_schedule_dimension_that_is_not_an_int_refused():
    # it used to end in a TypeError from the first fire set's range check
    with pytest.raises(DimensionError, match="^dimension 2.0 is not an int$"):
        Schedule(2.0, (), ((F(0), 0b11),), F(1), F(0))


@pytest.mark.parametrize("n, message", [
    (2.0, "^dimension 2.0 is not an int$"),
    (0, f"^dimension must be in 1..{STEP_CAP}, got 0$"),
    (-1, f"^dimension must be in 1..{STEP_CAP}, got -1$"),
    (STEP_CAP + 1, f"^dimension must be in 1..{STEP_CAP}, got {STEP_CAP + 1}$"),
])
def test_schedule_and_synchronous_share_the_network_dimension_rule(n, message):
    # synchronous(2.0) used to end in a TypeError from full_mask, Schedule(0, ...)
    # was accepted and Schedule(-1, ...) ended in "negative shift count"
    for make in (
        lambda: synchronous(n),
        lambda: Schedule(n, (), ((F(0), 0),), F(1), F(0)),
        lambda: Network(n, (0,)),
    ):
        with pytest.raises(DimensionError, match=message):
            make()
