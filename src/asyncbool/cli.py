"""Command line front end.

Exit codes: 0 on success, 1 when an analysis answers in the negative
(check failed, set not invariant, witness not found), 2 on usage or parse
errors.  With --json every result line is a standalone JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import basins, graph, oracle
from .core import Network, fixed_points, format_bits, parse_bits
from .formats import (
    _MAX_EXPONENT,
    ParseError,
    _sorted_names,
    _too_long,
    export_dot,
    parse_network_exprs,
    parse_network_table,
    parse_schedule,
    parse_state_set,
    render_schedule,
    render_state_set,
)
from .schedule import omega_limit, orbit_trace


class _Output:
    def __init__(self, path: str | None, as_json: bool):
        self.stream = open(path, "w") if path else sys.stdout
        self.owned = path is not None
        self.as_json = as_json

    def record(self, kind: str, human: str, **fields) -> None:
        if self.as_json:
            print(json.dumps({"record": kind, **fields}, sort_keys=True), file=self.stream)
        else:
            print(human, file=self.stream)

    def raw(self, text: str) -> None:
        self.stream.write(text)

    def close(self) -> None:
        if self.owned:
            self.stream.close()
        else:
            self.stream.flush()


def _load_network(args) -> Network:
    with open(args.net) as handle:
        text = handle.read()
    if args.format == "expr":
        return parse_network_exprs(text)
    return parse_network_table(text)


def _load_schedule(args, n: int):
    literal = args.schedule
    if literal is None:
        raise ParseError("this command needs --schedule")
    if os.path.exists(literal):
        with open(literal) as handle:
            literal = handle.read()
    return parse_schedule(literal, n)


def _state_arg(args, net: Network) -> int:
    if getattr(args, "from_state", None) is None:
        raise ParseError("this command needs --from <bits>")
    return parse_bits(args.from_state, net.n)


def _set_arg(args, net: Network) -> frozenset[int]:
    if args.set is None:
        raise ParseError("this command needs --set <literal>")
    return parse_state_set(args.set, net.n)


def _bounds_arg(args, n: int) -> oracle.OracleBounds:
    if args.bounds:
        try:
            p, q = (int(part) for part in args.bounds.split(","))
        except ValueError as exc:
            raise ParseError("--bounds must be '<prefix>,<cycle>'") from exc
        return oracle.OracleBounds(p, q)
    return oracle.OracleBounds(min(1 << n, 4), min(n << n, 4))


def _refuse_long_times(args, what: str, times) -> None:
    """Times derived from parsed ones, such as an orbit's loop entry or a
    witness spliced onto the reference flow, can pass the digits str()
    writes out: refuse before the first line is written."""
    if any(map(_too_long, times)):
        raise ParseError(f"schedule {args.schedule!r} gives {what} times of more than "
                         f"{_MAX_EXPONENT} digits")


def _witness_times(witnesses):
    for rho in witnesses:
        yield from (t for t, _ in rho.prefix)
        yield from (t for t, _ in rho.cycle)
        yield rho.period
        yield rho.cycle_start


def _emit_set(out: _Output, kind: str, states: frozenset[int], n: int, **fields):
    names = _sorted_names(states, n)
    out.record(kind, ",".join(names) if names else "(empty)", states=names, **fields)


def _emit_basin(out: _Output, kind: str, result: basins.BasinResult, net: Network) -> None:
    n = net.n
    if out.as_json:
        for mu in sorted(result.members):
            fields = {"state": format_bits(mu, n)}
            if mu in result.witnesses:
                fields["witness"] = render_schedule(result.witnesses[mu])
            out.record(kind, "", **fields)
    else:
        out.record(kind, render_state_set(result.members, n) if result.members else "(empty)")
        for mu in sorted(result.witnesses):
            out.record(kind, f"  {format_bits(mu, n)} via {render_schedule(result.witnesses[mu])}")


def _cmd_portrait(args, net, out) -> int:
    out.raw(export_dot(net))
    return 0


def _cmd_fixed_points(args, net, out) -> int:
    _emit_set(out, "fixed-points", fixed_points(net), net.n)
    return 0


def _cmd_attractors(args, net, out) -> int:
    if args.from_state is not None:
        mu = _state_arg(args, net)
        sets = sorted(graph.achievable_omegas_from(net, mu), key=lambda s: (len(s), sorted(s)))
    else:
        sets = graph.fair_sccs(net)
    for states in sets:
        _emit_set(out, "attractor", states, net.n)
    return 0


def _cmd_omega(args, net, out) -> int:
    mu = _state_arg(args, net)
    rho = _load_schedule(args, net.n)
    _emit_set(out, "omega", omega_limit(net, mu, rho), net.n)
    return 0


def _cmd_orbit(args, net, out) -> int:
    mu = _state_arg(args, net)
    rho = _load_schedule(args, net.n)
    trace, orbit = orbit_trace(net, mu, rho)
    _refuse_long_times(args, "orbit", [t for t, _ in trace.changes] + [trace.loop_entry]
                       + [d for _, d in trace.loop])
    n = net.n
    out.record("orbit-initial", f"t<{trace.changes[0][0] if trace.changes else trace.loop_entry}"
               f": {format_bits(trace.initial, n)}", state=format_bits(trace.initial, n))
    for time, state in trace.changes:
        out.record("orbit-change", f"t={time}: {format_bits(state, n)}",
                   time=str(time), state=format_bits(state, n))
    out.record("orbit-loop", f"loop from t={trace.loop_entry}: "
               + " -> ".join(f"{format_bits(s, n)}({d})" for s, d in trace.loop),
               entry=str(trace.loop_entry),
               loop=[{"state": format_bits(s, n), "dwell": str(d)} for s, d in trace.loop])
    _emit_set(out, "orbit-set", orbit, n)
    return 0


def _cmd_basin(args, net, out) -> int:
    basin = basins.basin_p if args.mode == "p" else basins.basin_n
    _emit_basin(out, f"basin-{args.mode}", basin(net, _set_arg(args, net)), net)
    return 0


def _cmd_orbit_basin(args, net, out) -> int:
    mu = _state_arg(args, net)
    rho = _load_schedule(args, net.n)
    basin = basins.orbit_basin_p if args.mode == "p" else basins.orbit_basin_n
    result = basin(net, mu, rho)
    _refuse_long_times(args, "witness", _witness_times(result.witnesses.values()))
    _emit_basin(out, f"orbit-basin-{args.mode}", result, net)
    return 0


def _cmd_omega_basin(args, net, out) -> int:
    mu = _state_arg(args, net)
    rho = _load_schedule(args, net.n)
    basin = basins.omega_basin_p if args.mode == "p" else basins.omega_basin_n
    _emit_basin(out, f"omega-basin-{args.mode}", basin(net, mu, rho), net)
    return 0


def _cmd_invariant(args, net, out) -> int:
    invariant = graph.is_p_invariant if args.mode == "p" else graph.is_n_invariant
    holds = invariant(net, _set_arg(args, net))
    out.record("invariant", f"{args.mode}-invariant: {'yes' if holds else 'no'}",
               mode=args.mode, holds=holds)
    return 0 if holds else 1


def _cmd_verify(args, net, out) -> int:
    bounds = _bounds_arg(args, net.n)
    # there are 2**(2**n) - 1 nonempty state sets: every one up to n = 3,
    # a fixed sample beyond
    max_sets = None
    if net.n > 3:
        max_sets = 64
        out.record("verify-sampling", f"set basins sampled with max_sets={max_sets}",
                   max_sets=max_sets)
    report = oracle.verify_theorems(net, bounds, max_sets=max_sets)
    for name in sorted(report.checks):
        passed, failed = report.checks[name]
        out.record("verify-check", f"{name}: {passed} pass, {failed} fail",
                   check=name, passed=passed, failed=failed)
    for example in report.counterexamples:
        out.record("verify-counterexample", f"counterexample: {example}", **example)
    out.record("verify-summary",
               f"{'OK' if report.ok else 'FAILED'} ({report.total_failures} failures)",
               ok=report.ok, failures=report.total_failures)
    return 0 if report.ok else 1


def _cmd_oracle(args, net, out) -> int:
    bounds = _bounds_arg(args, net.n)
    if args.set is not None:
        target = _set_arg(args, net)
        members = oracle.oracle_basin(net, target, args.mode, bounds)
        _emit_set(out, f"oracle-basin-{args.mode}", members, net.n)
        return 0
    mu = _state_arg(args, net)
    omegas, stabilized = oracle.oracle_achievable_omegas(net, mu, bounds)
    for states in sorted(omegas, key=lambda s: (len(s), sorted(s))):
        _emit_set(out, "oracle-omega", states, net.n)
    out.record("oracle-stabilized", f"stabilized: {'yes' if stabilized else 'no'}",
               stabilized=stabilized)
    return 0


def _cmd_search_witness(args, net, out) -> int:
    mu = _state_arg(args, net)
    target = _set_arg(args, net)
    align = None
    if args.align_from is not None:
        align = (parse_bits(args.align_from, net.n), _load_schedule(args, net.n))
    try:
        witness = basins.witness_schedule(net, mu, target, align_to=align)
    except basins.NotAchievableError:
        out.record("witness", "no witness: target not achievable", found=False)
        return 1
    _refuse_long_times(args, "witness", _witness_times([witness]))
    out.record("witness", render_schedule(witness), found=True,
               schedule=render_schedule(witness))
    return 0


_COMMANDS = {
    "portrait": _cmd_portrait,
    "fixed-points": _cmd_fixed_points,
    "attractors": _cmd_attractors,
    "omega": _cmd_omega,
    "orbit": _cmd_orbit,
    "basin": _cmd_basin,
    "orbit-basin": _cmd_orbit_basin,
    "omega-basin": _cmd_omega_basin,
    "invariant": _cmd_invariant,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "search-witness": _cmd_search_witness,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors end like every other malformed input: exit 2 and one
        # "error:" line, not a usage block
        raise ParseError(message)


# built on the first main call, not at import; parse_args keeps no state
# between calls, so one parser serves every call in the process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="asyncbool",
        description="Exact analysis of asynchronous Boolean networks.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS), metavar="command",
                        help=", ".join(_COMMANDS))
    parser.add_argument("--net", required=True, help="network file")
    parser.add_argument("--format", choices=("table", "expr"), default="table")
    parser.add_argument("--schedule", help="schedule literal or file")
    parser.add_argument("--from", dest="from_state", help="initial state bits")
    parser.add_argument("--set", help="state set literal, e.g. 00,10")
    parser.add_argument("--mode", choices=("p", "n"), default="p")
    parser.add_argument("--bounds", help="oracle bounds '<prefix>,<cycle>'")
    parser.add_argument("--align-from", help="splice target state for search-witness")
    parser.add_argument("--out", help="write results to a file")
    parser.add_argument("--json", action="store_true", help="line-delimited JSON records")
    return parser


def _drop_stdout() -> None:
    """Point stdout's descriptor, if it has one, at the null device, so that
    the flush at exit does not fail again on a pipe whose reader has gone."""
    with contextlib.suppress(OSError, ValueError):
        fd = sys.stdout.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def main(argv=None) -> int:
    out = None
    try:
        args = _build_parser().parse_args(argv)
        net = _load_network(args)
        out = _Output(args.out, args.json)
        try:
            return _COMMANDS[args.command](args, net, out)
        finally:
            out.close()
    except (OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError) and out is not None and not out.owned:
            # the reader of stdout stopped reading (`| head`): not an error
            _drop_stdout()
            return 0
        # ValueError covers ParseError, DimensionError, NotProgressiveError
        # and CapExceededError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
