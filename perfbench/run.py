"""asyncbool benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload basin-sweep --seed 1 --seconds 30 --trace 0

Builds the inputs of one workload from --seed, then runs its round of
queries again and again (each query starts when the previous one has
returned) for about --seconds, checks every answer, and prints one JSON
object as the last line of stdout.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
rounds and reports the per-layer metrics (see perfbench/README.md).

The package is imported from src/ of the checkout this file sits in, and
nothing else: without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ANSWERS = HERE / "answers.json"
SETUP_RUNS = 9  # fresh processes timed for setup_s; the median is reported
MIN_QUERIES = 100  # per round, so that >= 10 samples lie beyond p90
MIN_ROUNDS = 3  # each query's latency is its median over the rounds
CAL_REF = 0.0005  # s; latencies are scaled to the speed at which calibrate() takes this

END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "answered_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "graph.self_s": "s",
    "graph.proper_successors.calls": "count",
    "graph.reachable_set.calls": "count",
    "graph.fair_sccs.calls": "count",
    "graph.successor_recompute_ratio": "1",
    "basins.self_s": "s",
    "basins.basin_p.s": "s",
    "basins.basin_n.s": "s",
    "basins.witness_schedule.calls": "count",
    "basins.witness_schedule.s": "s",
    "oracle.self_s": "s",
    "oracle.simulate_word_schedule.calls": "count",
    "oracle.verify_theorems.s": "s",
    "oracle.checks_recorded": "count",
    "schedule.self_s": "s",
    "schedule.orbit_trace.calls": "count",
    "schedule.flow_at.calls": "count",
    "formats.self_s": "s",
    "formats.parse_s": "s",
    "formats.render_s": "s",
    "cli.self_s": "s",
    "core.self_s": "s",
    "core.apply_fire_set.calls": "count",
    "core.check_state.calls": "count",
    "cli.malformed_crashes": "count",
    "trace.overhead_ratio": "1",
    "input.queries": "count",
    "input.nets": "count",
    "input.states": "count",
    "input.edges": "count",
    "input.sccs": "count",
    "input.largest_fair_scc": "count",
}


class SetupError(Exception):
    pass


def import_package():
    """Import asyncbool from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "asyncbool" / "__init__.py").is_file():
        raise SetupError(f"no asyncbool package under {src}")
    sys.path.insert(0, str(src))
    import asyncbool

    if Path(asyncbool.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"asyncbool was imported from {asyncbool.__file__}, not {src}")
    return asyncbool


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


CAL_TABLE = workloads.dense_table(6, random.Random("calibration"))


def calibrate() -> float:
    """Time one fixed graph computation of the benchmark's own reference
    code: pure-Python work of the same kind as the package's, whose time
    tracks how fast the shared machine runs at this moment."""
    start = time.perf_counter()
    reference.Graph(6, CAL_TABLE).sccs()
    return time.perf_counter() - start


class Raised:
    """A query that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {str(exc)[:200]}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def run_round(queries, mods, latencies=None) -> list:
    """Run every query once, in order.

    With `latencies`, each query is bracketed by calibrations and
    latencies[i] gets query i's time scaled by CAL_REF over the mean of
    the two calibration times around it."""
    clock = time.perf_counter
    results = []
    cal = calibrate() if latencies is not None else None
    for i, q in enumerate(queries):
        start = clock()
        try:
            res = q.run(mods)
        except Exception as exc:  # a failing query is counted, the loop goes on
            res = Raised(exc)
        if latencies is not None:
            elapsed = clock() - start
            cal_after = calibrate()
            latencies[i].append(elapsed * 2 * CAL_REF / (cal + cal_after))
            cal = cal_after
        results.append(res)
    return results


def verdict(q, res, expected_digest=None) -> str | None:
    """Why one result is wrong, or None."""
    if isinstance(res, Raised):
        return f"raised {res.text}"
    try:
        err = q.check(res)
        if err is None and expected_digest is not None and digest(q.answer(res)) != expected_digest:
            err = "answer digest differs from the committed answer file"
    except Exception as exc:  # a malformed result must count, not crash the run
        err = f"result could not be checked: {type(exc).__name__}: {exc}"
    return err


class Rounds:
    """The first round's results and which later results differ from them.

    Only the first round is kept, so that memory use does not grow with
    the number of rounds that fit into the run."""

    def __init__(self):
        self.first: list | None = None
        self.count = 0
        self.changed: list[int] = []  # query index, once per differing result

    def add(self, results: list) -> None:
        if self.first is None:
            self.first = results
        else:
            self.changed += [i for i, (a, b) in enumerate(zip(self.first, results)) if a != b]
        self.count += 1


def check_rounds(workload, rounds: Rounds, expected):
    """(attempted, failed, failure messages) over every execution.

    The first round is checked against the reference and the committed
    digests; later rounds must return what the first one did."""
    errors = []
    first_ok = []
    for i, (q, res) in enumerate(zip(workload.queries, rounds.first)):
        err = verdict(q, res, expected[i] if expected is not None else None)
        first_ok.append(err is None)
        if err:
            errors.append(f"{q.qid}: {err}")
    changed = [i for i in rounds.changed if first_ok[i]]
    errors += [f"{workload.queries[i].qid}: answer changed between rounds" for i in changed]
    failed = first_ok.count(False) * rounds.count + len(changed)
    return rounds.count * len(workload.queries), failed, errors


def descriptors(workload, graph_cap: int) -> dict:
    ns = [g.n for g in workload.graphs]
    if len(workload.queries) < MIN_QUERIES:
        raise SetupError(f"a round has {len(workload.queries)} queries, fewer than {MIN_QUERIES}")
    if max(ns) > graph_cap:
        raise SetupError(f"a net with n={max(ns)} exceeds GRAPH_CAP={graph_cap}")
    return {
        "input.queries": len(workload.queries),
        "input.nets": len(ns),
        "n_histogram": {str(n): ns.count(n) for n in sorted(set(ns))},
        "input.states": sum(1 << n for n in ns),
        "input.edges": sum(g.edges for g in workload.graphs),
        "input.sccs": sum(len(g.sccs()) for g in workload.graphs),
        "input.largest_fair_scc": max(len(c) for g in workload.graphs for c in g.fair_sccs()),
    }


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that import asyncbool and build
    the workload's inputs, up to the point where the first query would run,
    each scaled like the query latencies by calibrations around it."""
    times = []
    for _ in range(SETUP_RUNS):
        cal = statistics.median(calibrate() for _ in range(9))
        start = time.perf_counter()
        # no timeout: waiting with one polls the child every 50 ms, which
        # would quantize the measured time
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
        )
        elapsed = time.perf_counter() - start
        cal += statistics.median(calibrate() for _ in range(9))
        times.append(elapsed * 2 * CAL_REF / cal)
    return statistics.median(times)


def layer_metrics(tracer, workload, results) -> dict:
    checks = sum(
        sum(p + f for p, f in res.checks.values())
        for q, res in zip(workload.queries, results)
        if q.func == "verify_theorems" and not isinstance(res, Raised)
    )
    calls = tracer.calls("graph.proper_successors")
    out = {f"{layer}.self_s": tracer.self_s(layer)
           for layer in ("graph", "basins", "oracle", "schedule", "formats", "cli", "core")}
    out.update({
        "graph.proper_successors.calls": calls,
        "graph.reachable_set.calls": tracer.calls("graph.reachable_set"),
        "graph.fair_sccs.calls": tracer.calls("graph.fair_sccs"),
        "graph.successor_recompute_ratio": calls / len(tracer.pairs) if tracer.pairs else 0.0,
        "basins.basin_p.s": tracer.total_s("basins.basin_p"),
        "basins.basin_n.s": tracer.total_s("basins.basin_n"),
        "basins.witness_schedule.calls": tracer.calls("basins.witness_schedule"),
        "basins.witness_schedule.s": tracer.total_s("basins.witness_schedule"),
        "oracle.simulate_word_schedule.calls": tracer.calls("oracle.simulate_word_schedule"),
        "oracle.verify_theorems.s": tracer.total_s("oracle.verify_theorems"),
        "oracle.checks_recorded": checks,
        "schedule.orbit_trace.calls": tracer.calls("schedule.orbit_trace"),
        "schedule.flow_at.calls": tracer.calls("schedule.flow_at"),
        "formats.parse_s": tracer.total_s(*tracer.keys("formats", ("parse_",))),
        "formats.render_s": tracer.total_s(*tracer.keys("formats", ("render_", "export_"))),
        "core.apply_fire_set.calls": tracer.calls("core.apply_fire_set"),
        "core.check_state.calls": tracer.calls("core.check_state"),
    })
    return out


def measure(args, workload, tracer):
    """Run rounds for about args.seconds; returns (rounds, metrics)."""
    mods = tracer.modules
    clock = time.perf_counter
    rounds = Rounds()
    if not args.trace:
        # Other tenants of a shared machine change its speed by up to 2x,
        # for milliseconds to minutes.  Scaling each query by calibrations
        # taken next to it, then taking the median over rounds, removes
        # most of that from the figures.
        latencies: list[list[float]] = [[] for _ in workload.queries]
        begin = clock()
        while True:
            start = clock()
            results = run_round(workload.queries, mods, latencies)
            last = clock() - start
            rounds.add(results)
            elapsed = clock() - begin
            if rounds.count >= MIN_ROUNDS and elapsed + last > args.seconds:
                break
        typical = [statistics.median(samples) for samples in latencies]
        deciles = statistics.quantiles(typical, n=10)
        print(f"{rounds.count} rounds of {len(typical)} queries in {elapsed:.2f} s; "
              f"{sum(x > deciles[8] for x in typical)} of the {len(typical)} per-query "
              f"latencies lie beyond p90", file=sys.stderr)
        return rounds, {
            "queries_per_s": len(typical) / sum(typical),
            "query_p50_ms": statistics.median(typical) * 1e3,
            "query_p90_ms": deciles[8] * 1e3,
        }
    plain, traced, snapshots = [], [], []
    begin = clock()
    while True:
        start = clock()
        rounds.add(run_round(workload.queries, mods))
        plain.append(clock() - start)
        tracer.reset()
        tracer.install()
        try:
            start = clock()
            results = run_round(workload.queries, mods)
            traced.append(clock() - start)
        finally:
            tracer.uninstall()
        rounds.add(results)
        snapshots.append(layer_metrics(tracer, workload, results))
        elapsed = clock() - begin
        if elapsed + plain[-1] + traced[-1] > args.seconds:
            break
    metrics = {k: statistics.median(s[k] for s in snapshots) for k in snapshots[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    print(f"{len(plain)} untraced and {len(traced)} traced rounds in {elapsed:.2f} s", file=sys.stderr)
    print("per-function (calls, inclusive s, self s) of the last traced round:", file=sys.stderr)
    for key, (calls, total, own, _) in sorted(tracer.records.items()):
        if calls:
            print(f"  {key:45s} {calls:10d} {total:10.4f} {own:10.4f}", file=sys.stderr)
    return rounds, metrics


def load_expected(workload: str, seed: int) -> list[str] | None:
    """The committed answer digests of this seed, one per query, if any."""
    if not ANSWERS.is_file():
        return None
    digests = json.loads(ANSWERS.read_text()).get(workload, {}).get(str(seed))
    return digests.split() if digests else None


def write_answers(args, ab, workload, mods) -> int:
    """Record the answer digests of one round at this seed, after checking
    every answer against the reference and every n <= 3 basin against
    the bounded oracle."""
    results = run_round(workload.queries, mods)
    rounds = Rounds()
    rounds.add(results)
    _, failed, errors = check_rounds(workload, rounds, None)
    for q in workload.queries:
        if q.crosscheck is not None:
            err = q.crosscheck(ab)
            if err:
                failed += 1
                errors.append(f"{q.qid}: oracle cross-check: {err}")
    if failed:
        print("\n".join(errors[:20]), file=sys.stderr)
        return 1
    data = json.loads(ANSWERS.read_text()) if ANSWERS.is_file() else {}
    data.setdefault(args.workload, {})[str(args.seed)] = " ".join(
        digest(q.answer(res)) for q, res in zip(workload.queries, results))
    ANSWERS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} digests for {args.workload} seed {args.seed}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-answers", action="store_true",
                        help="record answer digests for this seed in answers.json")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one returned answer (self-test of the gate)")
    args = parser.parse_args(argv)

    try:
        ab = import_package()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        workload = workloads.MAKE_WORKLOAD[args.workload](ab, args.seed, workdir)
        if args.setup_only:
            return 0
        tracer = Tracer("asyncbool")
        if args.write_answers:
            return write_answers(args, ab, workload, tracer.modules)
        desc = descriptors(workload, ab.GRAPH_CAP)
        print("inputs: " + json.dumps(desc, sort_keys=True), file=sys.stderr)
        expected = load_expected(args.workload, args.seed)
        if expected is not None and len(expected) != len(workload.queries):
            raise SetupError(f"{ANSWERS.name} has {len(expected)} answers for this seed, "
                             f"the round has {len(workload.queries)} queries")
        crashes = 0
        for probe in workload.probes:
            err = verdict(probe, run_round([probe], tracer.modules)[0])
            if err:
                crashes += 1
                print(f"known crasher {probe.qid}: {err}", file=sys.stderr)
        setup = setup_seconds(args) if not args.trace else None
        rounds, metrics = measure(args, workload, tracer)
        if args.inject_wrong:
            rounds.first[0] = Raised(RuntimeError("injected wrong answer"))
        attempted, failed, errors = check_rounds(workload, rounds, expected)
        for line in errors[:10]:
            print(f"FAILED {line}", file=sys.stderr)
        if args.trace:
            metrics.update({k: v for k, v in desc.items() if k in PER_LAYER})
            metrics["cli.malformed_crashes"] = crashes
            units = PER_LAYER
        else:
            metrics["answered_ratio"] = (attempted - failed) / attempted
            metrics["setup_s"] = setup
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
