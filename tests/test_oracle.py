"""The bounded-enumeration oracle and the theorem verification harness."""

import functools
import itertools
import operator
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import (
    CapExceededError,
    DimensionError,
    Network,
    OracleBounds,
    Schedule,
    achievable_omegas_from,
    basin_n,
    basin_p,
    default_bounds,
    omega_limit,
    oracle_achievable_omegas,
    oracle_basin,
    restrict_after,
    simulate_word_schedule,
    translate,
    verify_theorems,
)
from asyncbool import basins as basins_mod
from asyncbool import graph
from asyncbool import oracle as oracle_mod
from asyncbool.oracle import (
    _anchored_omegas,
    _prefix_outcomes,
    _word_runs,
    oracle_achievable_omegas_all,
)
from tests.conftest import all_networks

# checks recorded only from the bounded word enumeration
WORD_ORACLE_CHECKS = {
    "word_omegas_within_walk_omegas",
    "oracle_omegas_within_graph_omegas",
    "walk_omegas_within_graph_omegas",
    "oracle_p_basin_subset_of_graph",
    "oracle_n_basin_superset_of_graph",
    "oracle_p_invariance_subset_of_graph",
}

# checks recorded from omega_basin_n on sampled flows
OMEGA_N_BASIN_CHECKS = {
    "orbit_n_basin_inside_omega_n_basin",
    "omega_n_basin_inside_set_basin_of_omega",
    "omega_n_basin_is_n_invariant",
    "constant_tail_n_basins_collapse",
}


def test_bounds_validation():
    with pytest.raises(ValueError):
        OracleBounds(0, 0)
    with pytest.raises(ValueError):
        OracleBounds(-1, 1)


@pytest.mark.parametrize("bounds, field", [((1.5, 2), "max_prefix_len"), ((1, "2"), "max_cycle_len")])
def test_bounds_that_are_not_ints_refused(bounds, field):
    # 1.5 used to be accepted and end in a TypeError inside the enumeration
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        OracleBounds(*bounds)


@pytest.mark.parametrize("n", [2.0, "2", None, 0, 21])
def test_default_bounds_refuses_what_the_dimension_rule_refuses(n):
    # 2.0 used to end in a TypeError from the shift
    with pytest.raises(DimensionError):
        default_bounds(n)


@pytest.mark.parametrize("max_sets", [0, -3, 2.5, "3", 4.0])
def test_max_sets_that_is_no_positive_int_refused_before_graph_work(max_sets):
    # 0 and -3 used to check no sampled set at all, and 2.5 passed
    net = Network(2, (0b11, 0b11, 0b10, 0b01))
    with pytest.raises(ValueError, match="^max_sets must be None or an int of at least 1"):
        verify_theorems(net, OracleBounds(1, 2), max_sets=max_sets)
    assert "_graph" not in net.__dict__
    assert verify_theorems(net, OracleBounds(1, 2), max_sets=1).checks["n_basin_inside_p_basin"] == [1, 0]


def test_simulate_word_schedule_matches_omega_limit(net1):
    # every integer-time word schedule with prefix and cycle of length <= 2:
    # prefix fires at t = 0..p-1, the progressive cycle at offsets 0..q-1
    # with period q
    prefixes = [w for p in range(3) for w in itertools.product(range(4), repeat=p)]
    cycles = [
        w
        for q in (1, 2)
        for w in itertools.product(range(4), repeat=q)
        if functools.reduce(operator.or_, w) == 0b11
    ]
    for prefix_word in prefixes:
        for cycle_word in cycles:
            rho = Schedule(
                2,
                tuple((Fraction(k), f) for k, f in enumerate(prefix_word)),
                tuple((Fraction(k), f) for k, f in enumerate(cycle_word)),
                Fraction(len(cycle_word)),
                Fraction(len(prefix_word)),
            )
            for mu in net1.states():
                orbit, omega = simulate_word_schedule(net1, mu, prefix_word, cycle_word)
                assert omega == omega_limit(net1, mu, rho)
                assert omega <= orbit


def _small_random_nets(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((1, 2))
        yield Network(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))


def _fold(net: Network, state: int, fire: int) -> int:
    return (state & ~fire) | (net.table[state] & fire)


def test_prefix_outcomes_match_every_literal_prefix_word():
    # the layered search keeps exactly the (state, visited set) pairs of
    # the prefix words of length <= p, each folded on its own
    for net in _small_random_nets(11, 30):
        for p in range(4):
            for mu in net.states():
                want = set()
                for k in range(p + 1):
                    for word in itertools.product(range(1 << net.n), repeat=k):
                        state, visited = mu, {mu}
                        for fire in word:
                            state = _fold(net, state, fire)
                            visited.add(state)
                        want.add((state, frozenset(visited)))
                assert _prefix_outcomes(net, mu, OracleBounds(p, 1)) == want


def test_anchored_omegas_match_every_covering_closed_walk():
    # every literal fire word of length <= L from the anchor, no
    # canonical fire sets and no dedup: the visited sets of the walks that
    # end at the anchor having fired every coordinate
    def closed_walks(net, anchor, max_len):
        full = (1 << net.n) - 1
        found = set()

        def walk(state, visited, coverage, length):
            if state == anchor and coverage == full:
                found.add(visited)
            if length < max_len:
                for fire in range(1 << net.n):
                    s2 = _fold(net, state, fire)
                    walk(s2, visited | {s2}, coverage | fire, length + 1)

        walk(anchor, frozenset({anchor}), 0, 0)
        return found

    for net in _small_random_nets(12, 30):
        for max_len in range(1, 5):
            for anchor in net.states():
                assert _anchored_omegas(net, anchor, max_len)[0] == closed_walks(
                    net, anchor, max_len
                )


def test_oracle_achievable_omegas_net1(net1):
    omegas, stabilized = oracle_achievable_omegas(net1, 0b00, OracleBounds(2, 4))
    assert omegas == {frozenset({0b10}), frozenset({0b01, 0b11})}
    assert stabilized
    omegas, _ = oracle_achievable_omegas(net1, 0b10, OracleBounds(1, 1))
    assert omegas == {frozenset({0b10})}


def test_one_state_answer_matches_the_whole_table():
    """oracle_achievable_omegas walks only the anchors within reach of mu;
    its sets and flag equal the whole-table answer at mu on every n = 2 net
    and on acceptance criterion 6's n = 3 nets."""
    cases = [(net, default_bounds(2)) for net in all_networks(2)]
    rng = random.Random(20240902)
    cases += [(Network(3, tuple(rng.randrange(8) for _ in range(8))), default_bounds(3))
              for _ in range(50)]
    for net, bounds in cases:
        results, stabilized = oracle_achievable_omegas_all(net, bounds)
        for mu in net.states():
            assert oracle_achievable_omegas(net, mu, bounds) == (results[mu], stabilized[mu])


def test_oracle_monotone_in_bounds(net1):
    small, _ = oracle_achievable_omegas(net1, 0b00, OracleBounds(1, 2))
    large, _ = oracle_achievable_omegas(net1, 0b00, OracleBounds(2, 4))
    assert small <= large


def test_oracle_agrees_with_graph_route(net1):
    results, stabilized = oracle_achievable_omegas_all(net1, default_bounds(2))
    for mu in net1.states():
        assert stabilized[mu]
        assert results[mu] == achievable_omegas_from(net1, mu)


def test_oracle_basin_net1(net1):
    bounds = default_bounds(2)
    assert oracle_basin(net1, frozenset({0b10}), "p", bounds) == {0b00, 0b10}
    assert oracle_basin(net1, frozenset({0b10}), "n", bounds) == {0b10}
    full = frozenset(net1.states())
    assert oracle_basin(net1, full, "p", bounds) == full
    assert oracle_basin(net1, full, "n", bounds) == full
    with pytest.raises(ValueError):
        oracle_basin(net1, frozenset({0b10}), "x", bounds)
    with pytest.raises(ValueError):
        oracle_basin(net1, frozenset(), "p", bounds)


def test_oracle_rejects_out_of_range_states(net1):
    bounds = OracleBounds(1, 2)
    with pytest.raises(DimensionError):
        oracle_achievable_omegas(net1, 9, bounds)
    with pytest.raises(DimensionError):
        oracle_basin(net1, frozenset({7}), "p", bounds)


def test_oracle_basin_matches_basins_module(net1):
    bounds = default_bounds(2)
    for a in [frozenset({0b10}), frozenset({0b01, 0b11}), frozenset({0b00, 0b10})]:
        assert oracle_basin(net1, a, "p", bounds) == basin_p(net1, a, False).members
        assert oracle_basin(net1, a, "n", bounds) == basin_n(net1, a).members


def test_verify_theorems_net1_clean(net1):
    report = verify_theorems(net1, OracleBounds(2, 3))
    assert report.ok, report.counterexamples[:3]
    assert report.total_failures == 0
    # the report actually exercised every section
    assert "omega_nonempty" in report.checks
    assert "basin_monotonicity" in report.checks
    assert "orbit_p_basin_equals_omega_p_basin" in report.checks
    assert WORD_ORACLE_CHECKS <= report.checks.keys()


# pass counts of every check on net1 at OracleBounds(2, 3), frozen before
# verify_theorems was split into check families: a dropped, duplicated or
# resampled check changes them
NET1_CHECK_PASSES = {
    "achievable_omega_witness_replays": 5,
    "achievable_omegas_nonempty": 4,
    "basin_monotonicity": 50,
    "constant_tail_n_basins_collapse": 3,
    "fixed_point_basin_chain": 1,
    "fixed_point_basins_all_coincide": 3,
    "fixed_point_in_orbit_forces_constant_tail": 7,
    "fixed_point_orbit_is_singleton": 4,
    "fixed_point_set_is_n_invariant": 1,
    "fixed_point_singleton_is_n_invariant": 1,
    "flow_factors_through_restriction": 144,
    "full_space_n_basin_is_everything": 1,
    "full_space_p_basin_is_everything": 1,
    "n_basin_inside_p_basin": 15,
    "n_basin_matches_achievable_omegas": 15,
    "n_invariant_implies_p_invariant": 15,
    "n_invariant_set_inside_its_n_basin": 15,
    "nonempty_n_basin_is_n_invariant": 15,
    "nonempty_p_basin_is_p_invariant": 15,
    "omega_cocycle": 48,
    "omega_is_graph_achievable": 17,
    "omega_is_p_invariant": 12,
    "omega_n_basin_inside_set_basin_of_omega": 12,
    "omega_n_basin_is_n_invariant": 12,
    "omega_n_basin_matches_achievable_omegas": 12,
    "omega_nonempty": 17,
    "omega_p_basin_equals_set_basin_of_omega": 12,
    "omega_subset_orbit": 17,
    "oracle_n_basin_superset_of_graph": 15,
    "oracle_omegas_within_graph_omegas": 4,
    "oracle_p_basin_subset_of_graph": 15,
    "oracle_p_invariance_subset_of_graph": 15,
    "orbit_inside_orbit_p_basin": 12,
    "orbit_is_p_invariant": 12,
    "orbit_n_basin_inside_omega_n_basin": 12,
    "orbit_n_basin_inside_set_basin_of_orbit": 12,
    "orbit_n_basin_is_n_invariant": 3,
    "orbit_n_basin_nonempty_iff_constant_tail": 12,
    "orbit_p_basin_equals_omega_p_basin": 12,
    "orbit_p_basin_equals_set_basin_of_orbit": 12,
    "orbit_p_basin_is_p_invariant": 12,
    "p_basin_matches_achievable_omegas": 15,
    "p_invariant_set_inside_its_p_basin": 15,
    "point_basin_nonempty_iff_fixed": 4,
    "reachable_set_is_n_invariant": 4,
    "restriction_is_progressive": 48,
    "single_step_closure_matches_n_invariance": 15,
    "singleton_omega_is_fixed_point": 7,
    "translated_flow_matches_shifted_time": 48,
    "translation_preserves_omega": 36,
    "walk_omegas_within_graph_omegas": 4,
    "word_omegas_within_walk_omegas": 4,
}


def test_verify_theorems_check_counts_are_pinned(net1):
    report = verify_theorems(net1, OracleBounds(2, 3))
    assert report.checks == {name: [p, 0] for name, p in NET1_CHECK_PASSES.items()}
    assert len(report.checks) == 52
    assert sum(p for p, _ in report.checks.values()) == 822


def test_verify_catches_an_omega_n_basin_without_the_chain_cut(monkeypatch):
    # with no proper sub-SCC tested, omega_basin_n answers basin_n(omega)
    # where omega has a fair proper subset and the answer is empty; the
    # inclusion checks all pass on that, the definition does not
    net = Network(2, (0b11, 0b10, 0b00, 0b00))
    assert verify_theorems(net, OracleBounds(2, 3)).ok
    monkeypatch.setattr(basins_mod, "_chain_cut", lambda net, omega: [])
    report = verify_theorems(net, OracleBounds(2, 3))
    assert {c["check"] for c in report.counterexamples} == {"omega_n_basin_matches_achievable_omegas"}


def test_max_sets_covering_every_set_enumerates_them_all(net1):
    # n=2 has 15 nonempty state sets: asking for 15 or more used to loop
    # forever drawing random sets that were already chosen
    bounds = OracleBounds(1, 2)
    every = verify_theorems(net1, bounds).checks
    assert verify_theorems(net1, bounds, max_sets=15).checks == every
    assert verify_theorems(net1, bounds, max_sets=16).checks == every


def test_max_sets_bounds_the_sample_past_the_singletons():
    # at n = 7 the full space, the fixed-point set and the 128 singletons
    # alone are 129 or 130 sets: all of them used to be checked whatever
    # max_sets said
    rng = random.Random(7)
    net = Network(7, tuple(rng.randrange(128) for _ in range(128)))
    report = verify_theorems(net, OracleBounds(1, 2), max_sets=64)
    assert report.ok
    assert report.checks["n_basin_inside_p_basin"] == [64, 0]


def test_verify_detects_injected_mutation(net1, monkeypatch):
    # corrupt the n-basin computation mid-check: the harness must notice
    # and produce a replayable counterexample
    real = basins_mod.basin_n

    def corrupted(net, attractor):
        result = real(net, attractor)
        return basins_mod.BasinResult(result.members | {0b00})

    monkeypatch.setattr(basins_mod, "basin_n", corrupted)
    report = verify_theorems(net1, OracleBounds(1, 2))
    assert not report.ok
    bad = report.counterexamples[0]
    assert "check" in bad and "table" in bad


def test_verify_counts_a_witness_that_raises_as_a_failed_replay(net1, monkeypatch):
    # witness_schedule raising ValueError for a graph-achievable target is
    # a failed replay, one per (state, target) pair, not an escaped error
    def refusing(net, mu, target, align_to=None):
        raise ValueError("no witness")

    monkeypatch.setattr(basins_mod, "witness_schedule", refusing)
    report = verify_theorems(net1, OracleBounds(1, 2))
    pairs = sum(len(achievable_omegas_from(net1, mu)) for mu in net1.states())
    assert report.checks["achievable_omega_witness_replays"] == [0, pairs]
    replays = [c for c in report.counterexamples if c["check"] == "achievable_omega_witness_replays"]
    assert sorted(c["mu"] for c in replays) == ["00", "00", "01", "10", "11"]


def _literal_word_runs(net: Network, bounds: OracleBounds) -> dict[int, set]:
    """The (orbit, omega) pairs of every word schedule within bounds, each
    run through the public simulate_word_schedule: every prefix word of
    length <= P, and every cycle word of length 1..L whose fire sets cover
    every coordinate."""
    letters = range(1 << net.n)
    full = (1 << net.n) - 1
    prefixes = [
        w for p in range(bounds.max_prefix_len + 1) for w in itertools.product(letters, repeat=p)
    ]
    cycles = [
        w
        for q in range(1, bounds.max_cycle_len + 1)
        for w in itertools.product(letters, repeat=q)
        if functools.reduce(operator.or_, w) == full
    ]
    return {
        mu: {
            simulate_word_schedule(net, mu, prefix, cycle)
            for prefix in prefixes
            for cycle in cycles
        }
        for mu in net.states()
    }


def _assert_word_runs_are_literal(net: Network, bounds: OracleBounds) -> None:
    runs = _word_runs(net, bounds)
    want = _literal_word_runs(net, bounds)
    assert set(runs) == set(want)

    def masks(pair):
        return tuple(sum(1 << s for s in part) for part in pair)

    for mu, pairs in runs.items():
        assert set(pairs) == want[mu]
        # no pair twice, and in increasing order of the state masks, so a
        # counterexample payload replays in the same order
        assert len(pairs) == len(set(pairs))
        assert list(pairs) == sorted(pairs, key=masks)


def test_word_runs_match_the_public_simulation():
    # the word oracle's pairs are exactly those of every literal (prefix
    # word, progressive cycle word) pair, each run on its own
    rng = random.Random(20261018)
    for _ in range(12):
        n = rng.choice((1, 2, 3))
        net = Network(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
        _assert_word_runs_are_literal(net, OracleBounds(1, 2))


@st.composite
def word_oracle_cases(draw):
    """A net with n <= 3 and bounds P in 0..2, L in 1..3; at n = 3 the
    literal side runs 8**(P + L) word pairs per state, so P <= 1, L <= 2."""
    n = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    small = n == 3
    prefix_len = draw(st.integers(0, 1 if small else 2))
    cycle_len = draw(st.integers(1, 2 if small else 3))
    return Network(n, tuple(table)), OracleBounds(prefix_len, cycle_len)


@settings(max_examples=100, deadline=None)
@given(word_oracle_cases())
def test_word_runs_match_every_literal_word_pair(case):
    _assert_word_runs_are_literal(*case)


# the dense n = 3 table on which the word actions grow about 4x per letter
DENSE3 = Network(3, (1, 6, 2, 1, 7, 0, 4, 7))


def test_word_action_layer_refused_before_it_is_built(monkeypatch):
    # the layers of cycle words of 1, 2 and 3 letters are bounded by 9, 64
    # and 449 actions: a cap of 100 lets two be built and refuses the third
    monkeypatch.setattr(oracle_mod, "_ACTION_CAP", 100)
    assert _word_runs(DENSE3, OracleBounds(1, 2))
    with pytest.raises(CapExceededError, match="^word actions are capped at 100, but cycle"
                       " words of 3 letters may make 449: lower the cycle bound$"):
        _word_runs(DENSE3, OracleBounds(1, 3))
    with pytest.raises(CapExceededError, match="capped at 100"):
        verify_theorems(DENSE3, OracleBounds(0, 3))


def test_word_action_cap_refuses_eight_letters_on_the_dense_table():
    # cycle words of 8 letters may make about 1.4 M actions, past 2**20;
    # 7 letters (about 343 k) stay under it
    with pytest.raises(CapExceededError, match="8 letters may make 1424046"):
        _word_runs(DENSE3, OracleBounds(1, 8))


def test_walk_budget_is_shared_by_every_anchor(monkeypatch):
    # at cycle bound 3 on the dense table, the walk of each anchor alone
    # stays under a cap of 140 nodes, but the 8 walks together take 151
    monkeypatch.setattr(oracle_mod, "_WALK_CAP", 140)
    bounds = OracleBounds(0, 3)
    for anchor in DENSE3.states():
        assert oracle_mod._walk_omegas(DENSE3, bounds, [anchor])[anchor]
    assert sum(_anchored_omegas(DENSE3, anchor, 3)[1] for anchor in DENSE3.states()) == 151
    with pytest.raises(CapExceededError, match=r"^anchored walks are capped at 140 nodes,"
                       r" but walks of \d steps may make \d+: lower the bounds$"):
        oracle_mod._walk_omegas(DENSE3, bounds, DENSE3.states())
    with pytest.raises(CapExceededError, match="capped at 140 nodes"):
        oracle_achievable_omegas_all(DENSE3, bounds)


def test_walk_budget_stops_the_five_coordinate_negation():
    # every coordinate of every state is unstable, so a walk's nodes may
    # grow 32x per step: the CLI's default bounds (4, 4) from 00000 used to
    # run for minutes; one anchor alone is refused before its fifth step
    negation = Network(5, tuple(s ^ 0b11111 for s in range(32)))
    with pytest.raises(CapExceededError, match="^anchored walks are capped at 1048576 nodes,"
                       " but walks of 5 steps may make 4316658"):
        oracle_mod._walk_omegas(negation, OracleBounds(0, 5), [0])


def test_verify_detects_lying_p_invariance(net1, monkeypatch):
    # memoized set answers are still filled through graph.is_p_invariant,
    # so a patched fault there reaches the checks
    real = graph.is_p_invariant

    def lying(net, states):
        return real(net, states) != (len(states) == 2)

    monkeypatch.setattr(graph, "is_p_invariant", lying)
    report = verify_theorems(net1, OracleBounds(1, 2))
    assert not report.ok
    failed = {name for name, (_, fails) in report.checks.items() if fails}
    assert {"orbit_is_p_invariant", "n_invariant_implies_p_invariant"} <= failed


def _drop_first_event(rho):
    return restrict_after(rho, next(rho.events())[0])


@pytest.mark.parametrize(
    "name, faulty, failing",
    [
        ("translate", lambda rho, d: _drop_first_event(translate(rho, d)),
         {"translated_flow_matches_shifted_time", "translation_preserves_omega"}),
        ("restrict_after", lambda rho, t: _drop_first_event(restrict_after(rho, t)),
         {"flow_factors_through_restriction", "omega_cocycle"}),
    ],
)
def test_verify_detects_a_transform_off_by_one_event(net1, monkeypatch, name, faulty, failing):
    # the event counts are taken once per schedule, before the state loop,
    # but on the transformed schedules themselves: a transform that drops
    # one event fails exactly the laws that use it
    monkeypatch.setattr(oracle_mod, name, faulty)
    report = verify_theorems(net1, OracleBounds(1, 2))
    assert {check for check, (_, fails) in report.checks.items() if fails} == failing
    assert all("schedule" in bad and "mu" in bad for bad in report.counterexamples)


def test_set_basins_are_computed_once_per_call(net1, monkeypatch):
    # every distinct set's reference n-basin is computed once per call and
    # again in the next call: no answer outlives verify_theorems.  Calls
    # made inside orbit_basin_n and omega_basin_n, the functions under
    # test, are not the reference side and are not counted.
    real = basins_mod.basin_n
    calls = Counter()

    def counting(net, attractor):
        if sys._getframe(1).f_globals["__name__"] == "asyncbool.oracle":
            calls[attractor] += 1
        return real(net, attractor)

    monkeypatch.setattr(basins_mod, "basin_n", counting)
    for _ in range(2):
        calls.clear()
        assert verify_theorems(net1, OracleBounds(1, 2)).ok
        # the sample holds every nonempty set of the 4 states
        assert len(calls) == 15
        assert set(calls.values()) == {1}


def test_word_oracle_skipped_above_n3():
    # the n=2 net of test_verify_theorems_net1_clean records every
    # word-oracle check; an n=4 net records none, and the rest still run,
    # omega n-basins included: they enumerate no subsets.  The identity
    # adds the fixed-point checks the fixed-point-free permutation lacks.
    recorded = set()
    for table in (tuple((i * 7 + 3) % 16 for i in range(16)), tuple(range(16))):
        report = verify_theorems(Network(4, table), OracleBounds(1, 2), max_sets=10)
        assert report.ok, report.counterexamples[:3]
        assert not WORD_ORACLE_CHECKS & report.checks.keys()
        assert {"omega_nonempty", "basin_monotonicity"} <= report.checks.keys()
        recorded |= report.checks.keys()
    assert OMEGA_N_BASIN_CHECKS <= recorded


def _report(net, bounds, max_sets=None):
    report = verify_theorems(net, bounds, max_sets=max_sets)
    return report.checks, report.counterexamples


@pytest.mark.parametrize("n, max_sets", [(3, None), (3, 7), (3, 40), (4, 12), (4, 30)])
def test_reports_equal_cold_and_warm(monkeypatch, n, max_sets):
    # kept draws and the kept every-set list give the report of a cold
    # process, on a fresh network and on one whose graph is built; a
    # corrupted n-basin fills the counterexamples too
    rng = random.Random(n * 100 + (max_sets or 0))
    table = tuple(rng.randrange(1 << n) for _ in range(1 << n))
    bounds = OracleBounds(1, 2)
    monkeypatch.setattr(oracle_mod, "_DRAWS", {})
    oracle_mod._every_set.cache_clear()
    cold = _report(Network(n, table), bounds, max_sets)
    assert oracle_mod._DRAWS
    warm_net = Network(n, table)
    for net in (Network(n, table), warm_net, warm_net):
        assert _report(net, bounds, max_sets) == cold
    real = basins_mod.basin_n
    monkeypatch.setattr(basins_mod, "basin_n", lambda net, attractor: basins_mod.BasinResult(
        real(net, attractor).members | {0}))
    oracle_mod._DRAWS.clear()
    cold = _report(Network(n, table), bounds, max_sets)
    assert cold[1]
    assert _report(warm_net, bounds, max_sets) == cold


def test_kept_draws_leave_the_generator_where_drawing_does(monkeypatch):
    monkeypatch.setattr(oracle_mod, "_DRAWS", {})
    net = Network(3, tuple(range(8)))
    runs = []
    for _ in range(2):
        rng = random.Random(11)
        rng.random()
        runs.append((oracle_mod._sample_schedules(net, rng), rng.getstate()))
    (drawn, state), (kept, kept_state) = runs
    assert kept is drawn and kept_state == state
    assert [text for _, text in drawn] == [str(rho) for rho, _ in drawn]
    # another dimension draws afresh from the same generator state
    rng = random.Random(11)
    rng.random()
    assert oracle_mod._sample_schedules(Network(2, (0, 1, 2, 3)), rng)[0][0].n == 2


def test_the_draw_cache_stays_bounded(monkeypatch):
    monkeypatch.setattr(oracle_mod, "_DRAWS", {})
    net = Network(2, (0b11, 0b11, 0b10, 0b01))
    for seed in range(3 * oracle_mod._DRAWS_KEPT):
        oracle_mod._sample_schedules(net, random.Random(seed))
        assert len(oracle_mod._DRAWS) <= oracle_mod._DRAWS_KEPT
    # the oldest draws went first
    kept = {state for _, state in oracle_mod._DRAWS}
    assert kept == {random.Random(seed).getstate()
                    for seed in range(2 * oracle_mod._DRAWS_KEPT, 3 * oracle_mod._DRAWS_KEPT)}
    # every max_sets sample leaves the generator elsewhere for the flow
    # basins' draws: verify keeps no more than the bound either
    for max_sets in range(1, 40):
        verify_theorems(Network(4, tuple(range(16))), OracleBounds(1, 1), max_sets=max_sets)
        assert len(oracle_mod._DRAWS) <= oracle_mod._DRAWS_KEPT


def _counting_transforms(monkeypatch):
    """Wrap oracle's translate and restrict_after; the returned Counter
    counts their calls by name."""
    calls = Counter()
    for name in ("translate", "restrict_after"):
        real = getattr(oracle_mod, name)

        def counting(rho, t, real=real, name=name):
            calls[name] += 1
            return real(rho, t)

        monkeypatch.setattr(oracle_mod, name, counting)
    return calls


def test_warm_verify_calls_no_transform(monkeypatch):
    # the schedule-law facts are kept with the draws, so a second n = 2
    # call, on another table, builds no transform and reports as a cold one
    monkeypatch.setattr(oracle_mod, "_DRAWS", {})
    calls = _counting_transforms(monkeypatch)
    bounds = OracleBounds(1, 2)
    verify_theorems(Network(2, (0b11, 0b11, 0b10, 0b01)), bounds)
    assert calls["translate"] and calls["restrict_after"]
    calls.clear()
    other = Network(2, (0b01, 0b00, 0b11, 0b11))
    warm = _report(other, bounds)
    assert not calls
    oracle_mod._DRAWS.clear()
    assert _report(other, bounds) == warm
    assert calls["translate"] and calls["restrict_after"]


def test_warm_verify_takes_no_generator_snapshot(monkeypatch):
    # with every set checked, nothing is drawn between the laws' draws and
    # the flow basins', so a warm call finds both without reading the
    # generator's state
    monkeypatch.setattr(oracle_mod, "_DRAWS", {})
    net = Network(3, (1, 6, 2, 1, 7, 0, 4, 7))
    cold = _report(net, OracleBounds(1, 2))
    real = random.Random.getstate
    snapshots = Counter()

    def counting(self):
        snapshots["getstate"] += 1
        return real(self)

    monkeypatch.setattr(random.Random, "getstate", counting)
    assert _report(Network(3, net.table), OracleBounds(1, 2)) == cold
    assert not snapshots
    # a sample that draws reads it again, for the flow basins' draws
    _report(net, OracleBounds(1, 2), max_sets=7)
    assert snapshots["getstate"] >= 1


@pytest.mark.parametrize(
    "name, faulty, failing",
    [
        ("translate", lambda rho, d: _drop_first_event(translate(rho, d)),
         {"translated_flow_matches_shifted_time", "translation_preserves_omega"}),
        ("restrict_after", lambda rho, t: _drop_first_event(restrict_after(rho, t)),
         {"flow_factors_through_restriction", "omega_cocycle"}),
    ],
)
def test_kept_law_facts_do_not_hide_a_faulty_transform(net1, monkeypatch, name, faulty, failing):
    # facts kept from an unpatched call are derived again when the
    # transform differs, and once more when the real one is back
    bounds = OracleBounds(1, 2)
    assert verify_theorems(net1, bounds).ok
    with monkeypatch.context() as patch:
        patch.setattr(oracle_mod, name, faulty)
        report = verify_theorems(net1, bounds)
    assert {check for check, (_, fails) in report.checks.items() if fails} == failing
    assert verify_theorems(net1, bounds).ok


omega_families = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.dictionaries(
        st.integers(0, (1 << n) - 1),
        st.frozensets(st.frozensets(st.integers(0, (1 << n) - 1), min_size=1), max_size=4),
        max_size=1 << n),
    st.frozensets(st.integers(0, (1 << n) - 1), min_size=1)))


@settings(max_examples=300, deadline=None)
@given(omega_families)
def test_omega_basins_match_their_definition(case):
    # some, respectively every, omega set inside A; an empty family is in
    # the n-basin and not in the p-basin
    omegas, a = case
    p, n = oracle_mod._omega_basins(omegas, oracle_mod._omega_unions(omegas), a)
    assert p == {mu for mu, oms in omegas.items() if any(om <= a for om in oms)}
    assert n == {mu for mu, oms in omegas.items() if all(om <= a for om in oms)}


def _frozenset_anchored_omegas(net, anchor, max_len, fanout=0, spent=0):
    """_anchored_omegas with visited sets kept as frozensets."""
    full = (1 << net.n) - 1

    def expand(node):
        state, visited, coverage = node
        unstable = state ^ net.table[state]
        coverage |= full & ~unstable
        lam = unstable
        while True:
            s2 = state ^ lam
            yield s2, visited if s2 in visited else visited | {s2}, coverage | lam
            if not lam:
                return
            lam = (lam - 1) & unstable

    start = (anchor, frozenset({anchor}), 0)
    nodes = oracle_mod._layers(start, max_len, expand, fanout, oracle_mod._refuse_walks, spent)
    omegas = {visited for s, visited, coverage in nodes if s == anchor and coverage == full}
    return omegas, len(nodes)


@st.composite
def anchored_walk_cases(draw):
    """A net with n <= 3, an anchor, a walk length, and either no budget
    or one whose earlier walks left a few hundred nodes of the walk cap."""
    n = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    net = Network(n, tuple(table))
    case = net, draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, 4))
    left = draw(st.one_of(st.none(), st.integers(0, 300)))
    if left is None:
        return case
    fanout = max(1 << (s ^ image).bit_count() for s, image in enumerate(net.table))
    return (*case, fanout, oracle_mod._WALK_CAP - left)


def _outcome(walk, *args):
    try:
        return walk(*args)
    except CapExceededError as refusal:
        return str(refusal)


@settings(max_examples=200, deadline=None)
@given(anchored_walk_cases())
def test_anchored_omegas_on_masks_match_frozenset_walks(case):
    # the same omega sets and node count, or the same refusal
    assert _outcome(_anchored_omegas, *case) == _outcome(_frozenset_anchored_omegas, *case)


def test_reports_equal_cold_and_warm_across_samples(monkeypatch):
    # the flow basins' draws are kept with the laws' only when the set
    # sample drew nothing: samples that draw, or not, share one cache and
    # each still reports as in a cold process
    monkeypatch.setattr(oracle_mod, "_DRAWS", {})
    net = Network(3, (1, 6, 2, 1, 7, 0, 4, 7))
    bounds = OracleBounds(1, 2)
    samples = (None, 7, 40, 255, 12)
    cold = {}
    for max_sets in samples:
        oracle_mod._DRAWS.clear()
        cold[max_sets] = _report(net, bounds, max_sets)
    for max_sets in samples + samples[::-1]:
        assert _report(net, bounds, max_sets) == cold[max_sets]


def test_chained_draws_leave_the_generator_where_drawing_does(monkeypatch):
    # draws that follow other draws are kept with them, not in the cache,
    # and a repeat still leaves the generator where drawing again would
    monkeypatch.setattr(oracle_mod, "_DRAWS", {})
    runs = []
    for _ in range(2):
        rng = random.Random(0)
        first = oracle_mod._draws(2, rng, (2, None))
        then = oracle_mod._draws(2, rng, after=first)
        runs.append((first, then, rng.getstate()))
    (first, then, state), (kept_first, kept_then, kept_state) = runs
    assert kept_first is first and kept_then is then is first.then
    assert kept_state == state
    assert list(oracle_mod._DRAWS) == [(2, None)]
    # they are the draws a generator in the first draws' end state makes
    rng = random.Random()
    rng.setstate(first.end)
    drawn = oracle_mod._sample_schedules(Network(2, (0, 1, 2, 3)), rng)
    assert [text for _, text in drawn] == [text for _, text in then.schedules]
