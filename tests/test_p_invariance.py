"""p-invariance against a reference that shares nothing with the graph,
and the stuck-member test that refutes a set before any graph is built.

A member that is no fixed point and whose every proper successor lies
outside the set cannot stay in it, so `is_p_invariant` answers False for
it from one pass through the successor door.  The reference here is the
definition's graph condition: every member reaches, inside the set, a
fair SCC of the induced subgraph, with the SCCs found by the test's own
Tarjan.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from asyncbool import Network, cli, graph, is_p_invariant, proper_successors
from tests.test_graph import _reference_is_fair, _reference_tarjan
from tests.test_reaching import chain_table, dense_table, sparse_table


def ref_is_p_invariant(net, a):
    """Every member of `a` reaches, by edges inside `a`, a fair SCC of the
    subgraph induced on `a`."""
    inside = {mu: [t for _, t in proper_successors(net, mu) if t in a] for mu in a}
    fair = [s for s in _reference_tarjan(inside) if _reference_is_fair(net, s)]
    pred = {mu: [] for mu in a}
    for mu, targets in inside.items():
        for t in targets:
            pred[t].append(mu)
    seen = {mu for scc in fair for mu in scc}
    queue = list(seen)
    for state in queue:
        for p in pred[state]:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return len(seen) == len(a)


def stuck(net, a):
    """The members of `a` that are no fixed point and have every proper
    successor outside `a`."""
    return [mu for mu in a if net.table[mu] != mu
            and all(t not in a for _, t in proper_successors(net, mu))]


@st.composite
def nets_and_sets(draw):
    """A dense, sparse or chain table with n <= 8, and sets that include a
    fixed-point singleton (when the table has one), a random set given a
    stuck member, random sets and the whole state space."""
    make = draw(st.sampled_from((dense_table, sparse_table, chain_table)))
    n = draw(st.integers(1 if make is dense_table else 2, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    table = make(n, rng)
    states = range(1 << n)
    sets = [frozenset(states)]
    sets += [frozenset((mu,)) for mu in states if table[mu] == mu][:2]
    sets += [frozenset(rng.sample(states, rng.randint(1, 1 << n))) for _ in range(2)]
    moving = [mu for mu in states if table[mu] != mu]
    if moving:
        # a random set with one moving member, all of whose successors
        # are taken out of it
        mu = rng.choice(moving)
        unstable = mu ^ table[mu]
        out = {mu ^ nu for nu in range(1, unstable + 1) if nu & unstable == nu}
        sets.append(frozenset(rng.sample(states, rng.randint(0, 1 << n))) - out | {mu})
    return table, sets


@settings(max_examples=150, deadline=None)
@given(nets_and_sets())
def test_p_invariance_equals_the_reference_cold_and_warm(case):
    table, sets = case
    n = len(table).bit_length() - 1
    warm = Network(n, table)
    graph._graph(warm)
    for a in sets:
        want = ref_is_p_invariant(warm, a)
        cold = Network(n, table)
        assert is_p_invariant(cold, a) is want
        assert is_p_invariant(warm, a) is want
        if stuck(cold, a):
            assert want is False
            assert "_graph" not in cold.__dict__


# the CI's sparse n = 10 table: one flipped bit per state, fixed point 0
SPARSE10 = tuple(s if s == 0 else s ^ (1 << (s * 7 % 10)) for s in range(1024))
# 1 is stuck: its one successor, 1 ^ 128, lies outside the set
REFUTED = frozenset({0b1, 0b11, 0b100011})


def counting_tarjan(monkeypatch):
    calls = []
    tarjan = graph._tarjan_sccs

    def counting(step, size, domain=None):
        calls.append(domain is None)
        return tarjan(step, size, domain)

    monkeypatch.setattr(graph, "_tarjan_sccs", counting)
    return calls


def test_refuted_cold_call_builds_nothing(monkeypatch):
    calls = counting_tarjan(monkeypatch)
    net = Network(10, SPARSE10)
    assert stuck(net, REFUTED) == [0b1]
    assert is_p_invariant(net, REFUTED) is False
    assert "_graph" not in net.__dict__
    assert calls == []
    # a fixed point has no proper successor, and is not stuck: its
    # singleton holds, from the graph
    assert is_p_invariant(net, {0}) is True
    assert "_graph" in net.__dict__


def test_refuted_cli_call_builds_nothing(monkeypatch, tmp_path, capsys):
    calls = counting_tarjan(monkeypatch)
    built = []
    build = graph._graph
    monkeypatch.setattr(graph, "_graph", lambda net: built.append(net) or build(net))
    path = tmp_path / "sparse10.tbl"
    path.write_text("n=10\n" + "".join(f"{s:010b} -> {t:010b}\n" for s, t in enumerate(SPARSE10)))
    members = ",".join(f"{mu:010b}" for mu in sorted(REFUTED))
    code = cli.main(["invariant", "--mode", "p", "--json", "--set", members, "--net", str(path)])
    assert code == 1
    assert capsys.readouterr().out == '{"holds": false, "mode": "p", "record": "invariant"}\n'
    assert built == [] and calls == []
    code = cli.main(["invariant", "--mode", "p", "--set", "0000000000", "--net", str(path)])
    # the fixed point's singleton is decided on the graph, built once
    assert code == 0
    assert built and calls == [True]
