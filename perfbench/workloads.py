"""The three benchmark workloads: inputs from a seed, queries and checks.

A workload is one round of queries in a fixed order; the runner repeats
the round.  A query names a package module and a public function and is
looked up at call time, so the tracer's wrappers are the ones called.
Every query carries a checker that recomputes the answer with
`reference` (or replays a witness) and returns an error string or None,
and an `answer` function that maps the result to the canonical
JSON-able answer whose digest the committed answer file holds.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("basin-sweep", "oracle-verify", "cli-session")


@dataclass
class Query:
    qid: str
    layer: str
    func: str
    args: tuple
    check: Callable[[object], str | None]
    answer: Callable[[object], object]
    # (asyncbool) -> error or None; compares with the bounded oracle
    crosscheck: Callable[[object], str | None] | None = None

    def run(self, mods):
        fn = getattr(mods[self.layer], self.func)
        if self.layer != "cli":
            return fn(*self.args)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = fn(list(self.args))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()


@dataclass
class Workload:
    queries: list[Query]
    graphs: list[ref.Graph]  # every network the round touches
    probes: list[Query] = field(default_factory=list)  # known-crasher inputs


def _bits(value: int, n: int) -> str:
    return format(value, f"0{n}b")


def _states(states) -> list[str]:
    return sorted(states)


def _expect(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# --- input generators -----------------------------------------------------


def dense_table(n: int, rng: random.Random) -> tuple[int, ...]:
    """A random table whose masks (image XOR state) are a random permutation
    of all 2**n masks.  Unlike uniform random images this fixes the graph
    size: every net has exactly one fixed point and 3**n - 2**n proper
    edges, so the cost of a query varies little from seed to seed."""
    masks = list(range(1 << n))
    rng.shuffle(masks)
    return tuple(mu ^ mask for mu, mask in enumerate(masks))


def sparse_table(n: int, rng: random.Random) -> tuple[int, ...]:
    """Every image differs from its state in exactly one random bit, except
    one planted fixed point: one proper successor per state."""
    table = [mu ^ (1 << rng.randrange(n)) for mu in range(1 << n)]
    r = rng.randrange(1 << n)
    table[r] = r
    return tuple(table)


def _largest(sets) -> frozenset[int]:
    return min(sets, key=lambda s: (-len(s), sorted(s)))


def _half(n: int, rng: random.Random) -> frozenset[int]:
    return frozenset(rng.sample(range(1 << n), 1 << (n - 1)))


# --- answer checks shared by the API workloads ----------------------------


def _schedule_fields(rho):
    return rho.prefix, rho.cycle, rho.period, rho.cycle_start


def _replay_omega(g: ref.Graph, mu: int, rho) -> frozenset[int] | str:
    if not ref.is_progressive(g.n, rho.cycle):
        return "witness schedule is not progressive"
    return ref.simulate(g.table, g.n, mu, *_schedule_fields(rho))[1]


def _check_p_witnesses(g: ref.Graph, result, target) -> str | None:
    if set(result.witnesses) != set(result.members):
        return "witnesses do not cover the members"
    for mu, rho in result.witnesses.items():
        omega = _replay_omega(g, mu, rho)
        if isinstance(omega, str) or not omega <= target:
            return f"witness from {_bits(mu, g.n)} does not replay into the target"
    return None


def _check_orbit_witnesses(ab, g: ref.Graph, result, mu: int, rho) -> str | None:
    if set(result.witnesses) != set(result.members):
        return "witnesses do not cover the members"
    want = ref.simulate(g.table, g.n, mu, *_schedule_fields(rho))[1]
    net = ab.Network(g.n, g.table)
    for mu2, w in result.witnesses.items():
        if _replay_omega(g, mu2, w) != want:
            return f"witness from {_bits(mu2, g.n)} has the wrong omega-limit set"
        if not ab.flows_eventually_equal(net, mu2, w, mu, rho)[0]:
            return f"witness from {_bits(mu2, g.n)} is not eventually equal"
    return None


def _basin_query(qid, g, net, target, with_witnesses) -> Query:
    def check(res):
        err = _expect("basin_p members", res.members, g.basin_p(target))
        if err or not with_witnesses:
            return err or (_expect("witnesses", len(res.witnesses), 0))
        return _check_p_witnesses(g, res, target)

    return Query(qid, "basins", "basin_p", (net, target, with_witnesses), check,
                 lambda res: _states(res.members))


def _basin_sweep_queries(ab, qid: str, g: ref.Graph, menu, rng) -> list[Query]:
    n = g.n
    net = ab.Network(n, g.table)
    fair = g.fair_sccs()
    big = _largest(fair)
    union = frozenset().union(*fair)
    fixed = frozenset({min(g.fixed_points())})
    half = _half(n, rng)
    mu0 = rng.randrange(1 << n)
    sync = ab.synchronous(n)
    sync_omega = ref.simulate(g.table, n, mu0, *_schedule_fields(sync))[1]

    def orbit_check(res):
        err = _expect("orbit_basin_p members", res.members, g.backward(sync_omega))
        return err or _check_orbit_witnesses(ab, g, res, mu0, sync)

    menu_items = {
        "bp_w_big": lambda: _basin_query(f"{qid}.bp_w_big", g, net, big, True),
        "bp_w_fixed": lambda: _basin_query(f"{qid}.bp_w_fixed", g, net, fixed, True),
        "bp_union": lambda: _basin_query(f"{qid}.bp_union", g, net, union, False),
        "bn_big": lambda: Query(
            f"{qid}.bn_big", "basins", "basin_n", (net, big),
            lambda res: _expect("basin_n members", res.members, g.basin_n(big)),
            lambda res: _states(res.members)),
        "attr_half": lambda: Query(
            f"{qid}.attr_half", "basins", "attractivity_class", (net, half),
            lambda res: _expect("class", (res.p_class, res.n_class), g.attractivity(half)),
            lambda res: [res.p_class, res.n_class]),
        "pinv_half": lambda: Query(
            f"{qid}.pinv_half", "graph", "is_p_invariant", (net, half),
            lambda res: _expect("p-invariance", res, g.is_p_invariant(half)),
            bool),
        "ninv_union": lambda: Query(
            f"{qid}.ninv_union", "graph", "is_n_invariant", (net, union),
            lambda res: _expect("n-invariance", res, g.is_n_invariant(union)),
            bool),
        "orbit_bp_w": lambda: Query(
            f"{qid}.orbit_bp_w", "basins", "orbit_basin_p", (net, mu0, sync, True),
            orbit_check, lambda res: _states(res.members)),
        "omega_bp": lambda: Query(
            f"{qid}.omega_bp", "basins", "omega_basin_p", (net, mu0, sync, False),
            lambda res: _expect("omega_basin_p members", res.members, g.basin_p(sync_omega)),
            lambda res: _states(res.members)),
    }
    return [menu_items[name]() for name in menu]


FULL_MENU = ("bp_w_big", "bp_w_fixed", "bp_union", "bn_big", "attr_half",
             "pinv_half", "ninv_union", "orbit_bp_w", "omega_bp")
# (count, n, generator, menu).  Closure queries cost about 6x more per
# added coordinate, so the larger nets get fewer of them; many small nets
# keep the round's cost, and so the metrics, steady from seed to seed.
BASIN_SWEEP_NETS = (
    (20, 5, dense_table, FULL_MENU),
    (3, 6, dense_table, ("bp_w_fixed", "bn_big", "pinv_half", "ninv_union",
                         "orbit_bp_w", "omega_bp")),
    (1, 7, dense_table, ("bp_union", "omega_bp", "pinv_half", "ninv_union")),
    (1, 8, dense_table, ("pinv_half", "ninv_union")),
    (16, 10, sparse_table, ("bp_w_fixed", "bp_union", "pinv_half", "ninv_union")),
)


def basin_sweep(ab, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"basin-sweep:{seed}")
    queries, graphs = [], []
    for count, n, make, menu in BASIN_SWEEP_NETS:
        for i in range(count):
            g = ref.Graph(n, make(n, rng))
            graphs.append(g)
            queries += _basin_sweep_queries(ab, f"{make.__name__[0]}{n}.{i}", g, menu, rng)
    rng.shuffle(queries)
    return Workload(queries, graphs)


# --- oracle-verify --------------------------------------------------------

ORACLE_NETS = 6  # per dimension, n = 2 and n = 3


def two_coordinate_classes() -> list[list[tuple[int, ...]]]:
    """The 256 two-coordinate tables grouped into their 43 classes under
    relabelling the states by a coordinate swap and bit flips.  Members of
    a class are the same network up to naming, so verify_theorems costs
    about the same on each; drawing members per class keeps the round's
    cost steady across seeds."""
    classes: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for code in range(256):
        table = tuple((code >> (2 * k)) & 3 for k in range(4))
        images = set()
        for swap in (False, True):
            for flip in range(4):
                def phi(x, swap=swap, flip=flip):
                    return (((x & 1) << 1 | x >> 1) if swap else x) ^ flip
                inverse = {phi(x): x for x in range(4)}
                images.add(tuple(phi(table[inverse[y]]) for y in range(4)))
        classes.setdefault(min(images), images)
    return [sorted(members) for _, members in sorted(classes.items())]


def _verify_query(ab, qid: str, g: ref.Graph) -> Query:
    net = ab.Network(g.n, g.table)

    def check(report):
        if not report.ok:
            return f"verify_theorems failed: {report.counterexamples[:1]}"
        return None if report.checks else "verify_theorems recorded no checks"

    return Query(qid, "oracle", "verify_theorems", (net, ab.OracleBounds(4, 4)), check,
                 lambda report: report.ok)


def _oracle_queries(ab, qid: str, g: ref.Graph, rng) -> list[Query]:
    n = g.n
    net = ab.Network(n, g.table)
    bounds = ab.default_bounds(n)
    big = _largest(g.fair_sccs())
    half = _half(n, rng)

    def omegas_check(res):
        omegas, stabilized = res
        want = {mu: g.achievable_omegas(mu) for mu in range(1 << n)}
        return _expect("achievable omegas", omegas, want) or _expect(
            "stabilized", all(stabilized.values()), True)

    def omegas_answer(res):
        return {_bits(mu, n): sorted(_states(s) for s in sets) for mu, sets in sorted(res[0].items())}

    return [
        Query(f"{qid}.omegas_all", "oracle", "oracle_achievable_omegas_all", (net, bounds),
              omegas_check, omegas_answer),
        Query(f"{qid}.oracle_bp_big", "oracle", "oracle_basin", (net, big, "p", bounds),
              lambda res: _expect("oracle p-basin", res, g.basin_p(big)), _states),
        Query(f"{qid}.oracle_bn_half", "oracle", "oracle_basin", (net, half, "n", bounds),
              lambda res: _expect("oracle n-basin", res, g.basin_n(half)), _states),
    ]


def oracle_verify(ab, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"oracle-verify:{seed}")
    queries, graphs = [], []
    for c, members in enumerate(two_coordinate_classes()):
        for k in range(2):  # two draws per class, with replacement
            g = ref.Graph(2, rng.choice(members))
            graphs.append(g)
            queries.append(_verify_query(ab, f"v2.{c}.{k}", g))
    for n in (2, 3):
        for i in range(ORACLE_NETS):
            g = ref.Graph(n, dense_table(n, rng) if n == 3 else
                          tuple(rng.randrange(4) for _ in range(4)))
            graphs.append(g)
            queries += _oracle_queries(ab, f"o{n}.{i}", g, rng)
    rng.shuffle(queries)
    return Workload(queries, graphs)


# --- cli-session ----------------------------------------------------------


def _random_expr(n: int, rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return ("var", rng.randint(1, n)) if rng.random() < 0.9 else ("const", rng.randint(0, 1))
    if rng.random() < 0.2:
        return ("not", _random_expr(n, rng, depth - 1))
    op = rng.choice(("and", "or", "xor"))
    return (op, _random_expr(n, rng, depth - 1), _random_expr(n, rng, depth - 1))


def _render_expr(node) -> str:
    kind = node[0]
    if kind == "var":
        return f"x{node[1]}"
    if kind == "const":
        return str(node[1])
    if kind == "not":
        return "!" + _render_expr(node[1])
    sym = {"and": "&", "or": "|", "xor": "^"}[kind]
    return f"({_render_expr(node[1])} {sym} {_render_expr(node[2])})"


def _eval_expr(node, mu: int, n: int) -> int:
    kind = node[0]
    if kind == "var":
        return (mu >> (n - node[1])) & 1
    if kind == "const":
        return node[1]
    if kind == "not":
        return 1 - _eval_expr(node[1], mu, n)
    a, b = _eval_expr(node[1], mu, n), _eval_expr(node[2], mu, n)
    return {"and": a & b, "or": a | b, "xor": a ^ b}[kind]


def _expr_net(n: int, rng: random.Random) -> tuple[str, tuple[int, ...]]:
    exprs = [_random_expr(n, rng, 3) for _ in range(n)]
    text = "".join(f"y{i + 1} = {_render_expr(e)}\n" for i, e in enumerate(exprs))
    table = tuple(
        sum(_eval_expr(e, mu, n) << (n - 1 - i) for i, e in enumerate(exprs))
        for mu in range(1 << n)
    )
    return text, table


def _table_text(n: int, table) -> str:
    return f"n={n}\n" + "".join(f"{_bits(mu, n)} -> {_bits(img, n)}\n" for mu, img in enumerate(table))


def _random_schedule(n: int, rng: random.Random):
    """A multi-event rational schedule: (prefix, cycle, period, start)."""
    denom = rng.choice((2, 3, 4, 6))
    prefix = [(Fraction(k, denom), rng.randrange(1, 1 << n)) for k in range(rng.randint(1, 3))]
    q = rng.randint(2, 4)
    slots = rng.randint(q, 2 * q)
    cycle = [(Fraction(o, denom), rng.randrange(1 << n)) for o in sorted(rng.sample(range(slots), q))]
    k = rng.randrange(q)
    cycle[k] = (cycle[k][0], (1 << n) - 1)  # makes the schedule progressive
    return prefix, cycle, Fraction(slots, denom), prefix[-1][0] + Fraction(1, denom)


def _render_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _schedule_text(n: int, prefix, cycle, period, start) -> str:
    def events(evs):
        return " ".join(f"{_render_fraction(t)}:{_bits(f, n)}" for t, f in evs)

    return (f"prefix {events(prefix)} ; cycle {events(cycle)} ; "
            f"period {_render_fraction(period)} ; start {_render_fraction(start)}")


def parse_schedule_text(text: str, n: int):
    """(prefix, cycle, period, start) of a rendered schedule literal."""
    parts = {"prefix": [], "cycle": []}
    for section in text.split(";"):
        key, _, body = section.strip().partition(" ")
        if key in ("prefix", "cycle"):
            for item in body.split():
                t, _, bits = item.partition(":")
                if len(bits) != n:
                    raise ValueError(f"fire set {bits!r} is not {n} bits")
                parts[key].append((Fraction(t), int(bits, 2)))
        else:
            parts[key] = Fraction(body)
    return parts["prefix"], parts["cycle"], parts["period"], parts["start"]


def _records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def _cli_query(qid, argv, check, answer, expect_code=0) -> Query:
    def full_check(res):
        code, out, err = res
        if code != expect_code:
            return f"exit {code}, want {expect_code}: {err.strip()[:200]}"
        try:
            return check(out)
        except (ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"

    return Query(qid, "cli", "main", tuple(argv), full_check,
                 lambda res: [res[0], answer(res[1])])


def _error_query(qid: str, argv) -> Query:
    """A malformed input whose contract is exit 2 and a one-line message."""
    def check(res):
        code, out, err = res
        if code != 2 or out or len(err.splitlines()) != 1 or not err.startswith("error:"):
            return f"want exit 2 with one 'error:' line, got exit {code}: {err[-200:]!r}"
        return None

    return Query(qid, "cli", "main", tuple(argv), check, lambda res: res[0])


# (n, table or expr file, generator), each twice per round.  Random
# expressions give nets whose graph structure, and so whose command costs,
# vary widely with the seed once n passes 5; the larger nets are sparse
# tables, whose costs do not.
CLI_NETS = 2 * (
    tuple((n, "table", dense_table) for n in (2, 3, 4, 5, 6))
    + tuple((n, "table", sparse_table) for n in (7, 8, 9, 10))
    + tuple((n, "expr", None) for n in (2, 3, 4, 5))
)


def _cli_net_queries(ab, qid: str, path: str, fmt: str, g: ref.Graph, rng, workdir: Path):
    n = g.n
    base = ["--net", path, "--format", fmt]
    mu = rng.randrange(1 << n)
    prefix, cycle, period, start = _random_schedule(n, rng)
    literal = _schedule_text(n, prefix, cycle, period, start)
    sched_file = workdir / f"{qid}.sched"
    sched_file.write_text(literal + "\n")
    orbit, omega = ref.simulate(g.table, n, mu, prefix, cycle, period, start)
    fair = g.fair_sccs()
    qs = []

    def states_of(out, kind):
        return [frozenset(int(s, 2) for s in r["states"]) for r in _records(out) if r["record"] == kind]

    fixed = g.fixed_points()
    qs.append(_cli_query(f"{qid}.fixed-points", ["fixed-points", *base, "--json"],
                         lambda out: _expect("fixed points", states_of(out, "fixed-points"), [fixed]),
                         lambda out: [_states(s) for s in states_of(out, "fixed-points")]))
    qs.append(_cli_query(f"{qid}.attractors", ["attractors", *base, "--json"],
                         lambda out: _expect("attractors", set(states_of(out, "attractor")), set(fair)),
                         lambda out: sorted(_states(s) for s in states_of(out, "attractor"))))
    if n <= 3:
        ach = g.achievable_omegas(mu)
        qs.append(_cli_query(f"{qid}.attractors-from", ["attractors", *base, "--from", _bits(mu, n), "--json"],
                             lambda out: _expect("attractors --from", set(states_of(out, "attractor")), set(ach)),
                             lambda out: sorted(_states(s) for s in states_of(out, "attractor"))))
    qs.append(_cli_query(f"{qid}.omega", ["omega", *base, "--from", _bits(mu, n), "--schedule", literal, "--json"],
                         lambda out: _expect("omega", states_of(out, "omega"), [omega]),
                         lambda out: [_states(s) for s in states_of(out, "omega")]))

    def orbit_check(out):
        recs = _records(out)
        loop = {int(seg["state"], 2) for r in recs if r["record"] == "orbit-loop" for seg in r["loop"]}
        return _expect("orbit", states_of(out, "orbit-set"), [orbit]) or _expect("orbit loop", loop, set(omega))

    qs.append(_cli_query(f"{qid}.orbit", ["orbit", *base, "--from", _bits(mu, n), "--schedule", str(sched_file), "--json"],
                         orbit_check, lambda out: [_states(s) for s in states_of(out, "orbit-set")]))

    # unaligned witness into a fair SCC reachable from a random state
    start_state = rng.randrange(1 << n)
    reach = g.forward({start_state})
    target = _largest([c for c in fair if c & reach])

    def witness_check(out):
        (rec,) = _records(out)
        if not rec["found"]:
            return "no witness found"
        p, c, per, st = parse_schedule_text(rec["schedule"], n)
        if not ref.is_progressive(n, c):
            return "witness is not progressive"
        return _expect("witness omega", ref.simulate(g.table, n, start_state, p, c, per, st)[1], target)

    qs.append(_cli_query(f"{qid}.search-witness",
                         ["search-witness", *base, "--from", _bits(start_state, n), "--set",
                          ",".join(_bits(s, n) for s in sorted(target)), "--json"],
                         witness_check, lambda out: [r["found"] for r in _records(out)]))

    # aligned witness: splice onto the schedule's flow from mu
    aligned_from = rng.choice(sorted(g.backward(omega)))

    def aligned_check(out):
        (rec,) = _records(out)
        if not rec["found"]:
            return "no witness found"
        p, c, per, st = parse_schedule_text(rec["schedule"], n)
        net = ab.Network(n, g.table)
        w = ab.Schedule(n, tuple(p), tuple(c), per, st)
        rho = ab.Schedule(n, tuple(prefix), tuple(cycle), period, start)
        ok, _ = ab.flows_eventually_equal(net, aligned_from, w, mu, rho)
        return None if ok else "aligned witness is not eventually equal to the reference flow"

    qs.append(_cli_query(f"{qid}.search-witness-aligned",
                         ["search-witness", *base, "--from", _bits(aligned_from, n), "--set",
                          ",".join(_bits(s, n) for s in sorted(omega)), "--align-from", _bits(mu, n),
                          "--schedule", literal, "--json"],
                         aligned_check, lambda out: [r["found"] for r in _records(out)]))

    for mode in ("p", "n"):
        subset = _half(n, rng) if mode == "p" else g.forward({rng.randrange(1 << n)})
        holds = g.is_p_invariant(subset) if mode == "p" else g.is_n_invariant(subset)
        qs.append(_cli_query(f"{qid}.invariant-{mode}",
                             ["invariant", *base, "--set", ",".join(_bits(s, n) for s in sorted(subset)),
                              "--mode", mode, "--json"],
                             lambda out, holds=holds: _expect("invariant", [r["holds"] for r in _records(out)], [holds]),
                             lambda out: [r["holds"] for r in _records(out)], 0 if holds else 1))
    if n <= 8:
        edges = {(mu2, t) for mu2 in range(1 << n) for t in g.succ[mu2]}

        def portrait_check(out):
            got = set()
            for line in out.splitlines():
                if "->" in line:
                    src, _, rest = line.strip().partition(" -> ")
                    got.add((int(src[1:], 2), int(rest.split()[0][1:], 2)))
            return None if got == edges else f"portrait edges differ: {len(got)} drawn, {len(edges)} expected"

        qs.append(_cli_query(f"{qid}.portrait", ["portrait", *base], portrait_check,
                             lambda out: len([line for line in out.splitlines() if "->" in line])))
    if n <= 5:
        basin_target = _largest(fair) if rng.random() < 0.5 else _half(n, rng)
        want = g.basin_n(basin_target)
        query = _cli_query(f"{qid}.basin-n",
                           ["basin", *base, "--set", ",".join(_bits(s, n) for s in sorted(basin_target)),
                            "--mode", "n", "--json"],
                           lambda out: _expect("basin n", {int(r["state"], 2) for r in _records(out)}, set(want)),
                           lambda out: sorted(r["state"] for r in _records(out)))
        if n <= 3:
            query.crosscheck = lambda ab: _expect(
                "oracle n-basin",
                ab.oracle_basin(ab.Network(n, g.table), basin_target, "n", ab.default_bounds(n)), want)
        qs.append(query)
    return qs


def _malformed_queries(workdir: Path, good_net: str) -> list[Query]:
    files = {
        "bad-header": "n=two\n00 -> 01\n",
        "short-row": "n=2\n00 -> 1\n01 -> 11\n10 -> 10\n11 -> 01\n",
        "duplicate-row": "n=2\n00 -> 11\n00 -> 11\n10 -> 10\n11 -> 01\n",
        "missing-row": "n=2\n00 -> 11\n01 -> 11\n10 -> 10\n",
        "expr-range": "y1 = x1 & x9\ny2 = x2\n",
        "expr-syntax": "y1 = (x1 & x2\ny2 = x1\n",
    }
    qs = []
    for name, text in files.items():
        path = workdir / f"bad-{name}.txt"
        path.write_text(text)
        fmt = "expr" if name.startswith("expr") else "table"
        qs.append(_error_query(f"bad.{name}", ["fixed-points", "--net", str(path), "--format", fmt]))
    qs.append(_error_query("bad.not-progressive", ["omega", "--net", good_net, "--from", "00",
                                                   "--schedule", "cycle 0:10 ; period 1 ; start 0"]))
    qs.append(_error_query("bad.state-bits", ["omega", "--net", good_net, "--from", "012",
                                              "--schedule", "cycle 0:11 ; period 1 ; start 0"]))
    qs.append(_error_query("bad.no-file", ["attractors", "--net", str(workdir / "absent.tbl")]))
    return qs


def crasher_probes(workdir: Path) -> list[Query]:
    """Malformed inputs that the package is known to crash on, so that a
    fix shows as a drop in the crash count."""
    huge = workdir / "crash-huge-dimension.tbl"
    huge.write_text("n=99999\n")
    deep = workdir / "crash-deep-not.expr"
    deep.write_text("y1 = " + "!" * 3000 + "x1\n")
    return [
        _error_query("crash.huge-dimension", ["fixed-points", "--net", str(huge)]),
        _error_query("crash.deep-not", ["fixed-points", "--net", str(deep), "--format", "expr"]),
    ]


def cli_session(ab, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"cli-session:{seed}")
    queries, graphs = [], []
    two_coord_net = None
    for i, (n, fmt, make) in enumerate(CLI_NETS):
        if fmt == "expr":
            text, table = _expr_net(n, rng)
        else:
            table = make(n, rng)
            text = _table_text(n, table)
        path = workdir / f"net{i}-n{n}.{'expr' if fmt == 'expr' else 'tbl'}"
        path.write_text(text)
        if n == 2 and fmt == "table":
            two_coord_net = str(path)
        g = ref.Graph(n, table)
        graphs.append(g)
        queries += _cli_net_queries(ab, f"{fmt[0]}{n}.{i}", str(path), fmt, g, rng, workdir)
    queries += _malformed_queries(workdir, two_coord_net)
    rng.shuffle(queries)
    return Workload(queries, graphs, crasher_probes(workdir))


MAKE_WORKLOAD = {"basin-sweep": basin_sweep, "oracle-verify": oracle_verify, "cli-session": cli_session}
