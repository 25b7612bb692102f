import time

import pytest

from asyncbool import (
    CapExceededError,
    DimensionError,
    Network,
    achievable_omegas_from,
    fair_sccs,
    fair_subsets,
    is_achievable_from,
    is_fair_set,
    is_n_invariant,
    is_p_invariant,
    proper_successors,
    reachable_set,
    successors,
)
from asyncbool.graph import _tarjan_sccs


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
