"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the whole file stays within its stated time budgets on a
desktop-class machine.
"""

import itertools
import random
import time

from asyncbool import (
    Network,
    OracleBounds,
    flows_eventually_equal,
    orbit_trace,
    achievable_omegas_from,
    all_states,
    attractivity_class,
    basin_n,
    basin_p,
    basins,
    default_bounds,
    export_dot,
    fixed_points,
    omega_limit,
    oracle_basin,
    parse_network_table,
    parse_schedule,
    parse_state_set,
    proper_successors,
    render_network_table,
    render_schedule,
    render_state_set,
    synchronous,
    unstable_set,
    verify_theorems,
)
from asyncbool.oracle import oracle_achievable_omegas_all
from tests.conftest import NET1_ROWS, NET1_TABLE_TEXT


def _report(num: int, ok: bool, note: str = "") -> None:
    suffix = f" ({note})" if note else ""
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'}{suffix}")


def _net1() -> Network:
    return Network.from_rows(2, NET1_ROWS)


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    net1 = _net1()
    ok = fixed_points(net1) == {0b10}
    ok = ok and unstable_set(net1, 0b00) == 0b11  # coordinates {1, 2}
    ok = ok and len(proper_successors(net1, 0b00)) == 3
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_identity_point_basins():
    t0 = time.monotonic()
    id2 = Network(2, (0, 1, 2, 3))
    ok = True
    for mu in id2.states():
        single = frozenset({mu})
        ok = ok and basin_p(id2, single).members == single
        ok = ok and basin_n(id2, single).members == single
        cls = attractivity_class(id2, single)
        ok = ok and (cls.p_class, cls.n_class) == ("partial", "partial")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_net1_point_basins_with_oracle():
    t0 = time.monotonic()
    net1 = _net1()
    target = frozenset({0b10})
    ok = basin_p(net1, target).members == {0b00, 0b10}
    ok = ok and basin_n(net1, target).members == {0b10}
    bounds = default_bounds(2)
    _, stabilized = oracle_achievable_omegas_all(net1, bounds)
    ok = ok and all(stabilized.values())
    ok = ok and oracle_basin(net1, target, "p", bounds) == {0b00, 0b10}
    ok = ok and oracle_basin(net1, target, "n", bounds) == {0b10}
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(3, ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_4_fixed_point_gate():
    t0 = time.monotonic()
    ok = True
    for table in itertools.product(range(4), repeat=4):
        net = Network(2, table)
        for mu in net.states():
            single = frozenset({mu})
            fixed = table[mu] == mu
            has_p = bool(basin_p(net, single, with_witnesses=False).members)
            has_n = bool(basin_n(net, single).members)
            ok = ok and (has_p == fixed == has_n)
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(4, ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_5_theorem_suite():
    t0 = time.monotonic()
    failures = 0
    for table in itertools.product(range(4), repeat=4):
        failures += verify_theorems(Network(2, table), OracleBounds(4, 4)).total_failures
    rng = random.Random(20240901)
    for _ in range(500):
        net = Network(3, tuple(rng.randrange(8) for _ in range(8)))
        failures += verify_theorems(net, OracleBounds(1, 3), max_sets=40).total_failures
    for _ in range(100):
        net = Network(4, tuple(rng.randrange(16) for _ in range(16)))
        failures += verify_theorems(net, OracleBounds(1, 4), max_sets=25).total_failures
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 300.0
    _report(5, ok, f"{failures} failures, {elapsed:.1f}s")
    assert ok


def test_criterion_6_achievability_lemma():
    t0 = time.monotonic()
    mismatches = unstabilized = 0
    for table in itertools.product(range(4), repeat=4):
        net = Network(2, table)
        results, stabilized = oracle_achievable_omegas_all(net, default_bounds(2))
        for mu in net.states():
            unstabilized += not stabilized[mu]
            mismatches += results[mu] != achievable_omegas_from(net, mu)
    rng = random.Random(20240902)
    for _ in range(50):
        net = Network(3, tuple(rng.randrange(8) for _ in range(8)))
        results, stabilized = oracle_achievable_omegas_all(net, default_bounds(3))
        for mu in net.states():
            unstabilized += not stabilized[mu]
            mismatches += results[mu] != achievable_omegas_from(net, mu)
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and unstabilized == 0 and elapsed < 300.0
    _report(6, ok, f"{mismatches} mismatches, {unstabilized} unstabilized, {elapsed:.1f}s")
    assert ok


# frozen witnesses found by the exhaustive criterion-7 search
STRICT_ORBIT_N = {"table": (0, 0, 1, 2), "mu": 0b11}
STRICT_OMEGA_N = {"table": (1, 2, 3, 0), "mu": 0b00}


def test_criterion_7_strict_inclusion_witnesses():
    t0 = time.monotonic()
    rho = synchronous(2)
    found_orbit = set()
    found_omega = set()
    for table in itertools.product(range(4), repeat=4):
        net = Network(2, table)
        for mu in net.states():
            _, orbit = orbit_trace(net, mu, rho)
            omega = omega_limit(net, mu, rho)
            if basins.orbit_basin_n(net, mu, rho).members < basin_n(net, orbit).members:
                found_orbit.add((table, mu))
            if basins.omega_basin_n(net, mu, rho).members < basin_n(net, omega).members:
                found_omega.add((table, mu))
    ok = bool(found_orbit) and bool(found_omega)
    ok = ok and (STRICT_ORBIT_N["table"], STRICT_ORBIT_N["mu"]) in found_orbit
    ok = ok and (STRICT_OMEGA_N["table"], STRICT_OMEGA_N["mu"]) in found_omega
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(7, ok, f"{len(found_orbit)}/{len(found_omega)} instances, {elapsed:.1f}s")
    assert ok


def test_criterion_8_witness_replay():
    t0 = time.monotonic()
    replayed = failed = 0

    def check(net, result, predicate):
        nonlocal replayed, failed
        for mu, rho in result.witnesses.items():
            replayed += 1
            if not predicate(omega_limit(net, mu, rho)):
                failed += 1

    net1 = _net1()
    for target in (frozenset({0b10}), frozenset({0b01, 0b11})):
        check(net1, basin_p(net1, target), lambda om, t=target: om <= t)
    # criterion-4 style: point basins with witnesses across every n=2 net
    for table in itertools.product(range(4), repeat=4):
        net = Network(2, table)
        for mu in fixed_points(net):
            check(net, basin_p(net, frozenset({mu})), lambda om, m=mu: om == {m})
    # criterion-7 fixtures: orbit and omega p-basin witnesses
    rho = synchronous(2)
    for spec in (STRICT_ORBIT_N, STRICT_OMEGA_N):
        net = Network(2, spec["table"])
        mu0 = spec["mu"]
        omega = omega_limit(net, mu0, rho)
        check(net, basins.omega_basin_p(net, mu0, rho), lambda om: om == omega)
        for mu2, w in basins.orbit_basin_p(net, mu0, rho).witnesses.items():
            replayed += 1
            ok_flow, _ = flows_eventually_equal(net, mu2, w, mu0, rho)
            if not ok_flow:
                failed += 1
    elapsed = time.monotonic() - t0
    ok = failed == 0 and replayed > 0
    _report(8, ok, f"{replayed} witnesses replayed, {failed} failed, {elapsed:.1f}s")
    assert ok


def test_criterion_9_io_determinism():
    t0 = time.monotonic()
    net1 = _net1()
    ok = render_network_table(net1) == NET1_TABLE_TEXT
    ok = ok and parse_network_table(render_network_table(net1)) == net1
    rho = parse_schedule("prefix 0:01 ; cycle 0:11 1/3:10 ; period 2 ; start 1", 2)
    ok = ok and parse_schedule(render_schedule(rho), 2) == rho
    states = frozenset({0b00, 0b11})
    ok = ok and parse_state_set(render_state_set(states, 2), 2) == states
    dot1, dot2 = export_dot(net1), export_dot(net1)
    ok = ok and dot1 == dot2
    node = next(line for line in dot1.splitlines() if "s00 [" in line)
    ok = ok and node.count("<u>") == 2
    ok = ok and dot1.count("s00 -> ") == 3
    elapsed = time.monotonic() - t0
    _report(9, ok, f"{elapsed:.2f}s")
    assert ok
