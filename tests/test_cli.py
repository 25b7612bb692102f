import argparse
import io
import json
import random
import re
import sys
import time

import pytest

from asyncbool import Network, basins, cli, covering_walk, oracle, render_network_table
from asyncbool.cli import _COMMANDS, _build_parser, main
from tests.conftest import NET1_TABLE_TEXT


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net1.tbl"
    path.write_text(NET1_TABLE_TEXT)
    return str(path)


SYNC = "cycle 0:11 ; period 1 ; start 0"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixed_points(net_file, capsys):
    code, out, _ = run(capsys, "fixed-points", "--net", net_file)
    assert code == 0
    assert out.strip() == "10"


def test_fixed_points_json(net_file, capsys):
    code, out, _ = run(capsys, "fixed-points", "--net", net_file, "--json")
    assert code == 0
    record = json.loads(out)
    assert record == {"record": "fixed-points", "states": ["10"]}


def test_attractors(net_file, capsys):
    code, out, _ = run(capsys, "attractors", "--net", net_file)
    assert code == 0
    assert out.splitlines() == ["01,11", "10"]


def test_attractors_from_state(net_file, capsys):
    code, out, _ = run(capsys, "attractors", "--net", net_file, "--from", "11")
    assert code == 0
    assert out.splitlines() == ["01,11"]


def test_omega(net_file, capsys):
    code, out, _ = run(
        capsys, "omega", "--net", net_file, "--from", "00", "--schedule", SYNC
    )
    assert code == 0
    assert out.strip() == "01,11"


def test_orbit(net_file, capsys):
    code, out, _ = run(
        capsys, "orbit", "--net", net_file, "--from", "00", "--schedule", SYNC
    )
    assert code == 0
    assert "00,01,11" in out


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_orbit_time_past_the_digit_limit_exits_2_before_writing(net_file, capsys, json_flag):
    # both times parse at 4 300 digits, but the loop entry 2 * 9e4299 has
    # 4 301: the t< and t= lines used to be written before str() refused it
    flow = "cycle 0:11 ; period 9e4299 ; start 9e4299"
    code, out, err = run(capsys, "orbit", "--net", net_file, "--from", "00",
                         "--schedule", flow, *json_flag)
    assert code == 2
    assert out == ""
    assert err == f"error: schedule {flow!r} gives orbit times of more than 4300 digits\n"
    # a loop entry of 4 300 digits is still written out
    code, out, _ = run(capsys, "orbit", "--net", net_file, "--from", "00",
                       "--schedule", "cycle 0:11 ; period 1 ; start 1e4299")
    assert code == 0
    assert out.splitlines()[2] == f"loop from t={10**4299 + 1}: 01(1) -> 11(1)"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("command", [
    ["orbit-basin", "--mode", "p", "--from", "00"],
    ["search-witness", "--from", "00", "--set", "01,11", "--align-from", "00"],
])
def test_witness_time_past_the_digit_limit_exits_2_before_writing(net_file, capsys, command,
                                                                   json_flag):
    # the witnesses are spliced onto the flow whose loop entry 2 * 9e4299
    # has 4 301 digits: orbit-basin used to write its members first, and
    # both ended in Python's own digit-limit message
    flow = "cycle 0:11 ; period 9e4299 ; start 9e4299"
    code, out, err = run(capsys, *command, "--net", net_file, "--schedule", flow, *json_flag)
    assert code == 2
    assert out == ""
    assert err == f"error: schedule {flow!r} gives witness times of more than 4300 digits\n"
    # witness times of 4 299 digits are written out
    code, out, _ = run(capsys, *command, "--net", net_file,
                       "--schedule", "cycle 0:11 ; period 1 ; start 1e4298")
    assert code == 0
    assert max(map(len, re.findall(r"\d+", out))) == 4299


def test_basin_modes(net_file, capsys):
    code, out, _ = run(capsys, "basin", "--net", net_file, "--set", "10", "--mode", "p")
    assert code == 0
    assert out.splitlines()[0] == "00,10"
    assert "via" in out  # witnesses are listed
    code, out, _ = run(capsys, "basin", "--net", net_file, "--set", "10", "--mode", "n")
    assert code == 0
    assert out.strip() == "10"


def test_invariant_exit_codes(net_file, capsys):
    code, out, _ = run(
        capsys, "invariant", "--net", net_file, "--set", "01,11", "--mode", "n"
    )
    assert code == 0 and "yes" in out
    code, out, _ = run(
        capsys, "invariant", "--net", net_file, "--set", "00", "--mode", "p"
    )
    assert code == 1 and "no" in out


def test_verify(net_file, capsys):
    code, out, _ = run(capsys, "verify", "--net", net_file, "--bounds", "2,3")
    assert code == 0
    assert "OK (0 failures)" in out


def test_verify_failure_writes_counterexamples_and_exits_1(net_file, monkeypatch, capsys):
    # an n-basin with one state too many fails the checks that read it
    real = basins.basin_n
    monkeypatch.setattr(basins, "basin_n", lambda net, attractor: basins.BasinResult(
        real(net, attractor).members | {0b00}))
    code, out, err = run(capsys, "verify", "--net", net_file, "--bounds", "1,2", "--json")
    assert code == 1 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    failures = sum(r["failed"] for r in records if r["record"] == "verify-check")
    examples = [r for r in records if r["record"] == "verify-counterexample"]
    assert failures > 0 and len(examples) == failures
    assert all(r["table"] == ["11", "11", "10", "01"] and "check" in r for r in examples)
    assert records[-1] == {"record": "verify-summary", "ok": False, "failures": failures}


def test_verify_past_the_word_action_cap_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_ACTION_CAP", 100)
    path = tmp_path / "dense3.tbl"
    path.write_text(render_network_table(Network(3, (1, 6, 2, 1, 7, 0, 4, 7))))
    code, out, err = run(capsys, "verify", "--net", str(path), "--bounds", "1,3")
    assert code == 2
    assert out == ""
    assert err == ("error: word actions are capped at 100, but cycle words of 3 letters"
                   " may make 449: lower the cycle bound\n")


def test_oracle_past_the_walk_budget_exits_2_with_one_line(tmp_path, capsys):
    # a dense permuted-mask n = 6 table (seed 1): the anchored walks from
    # 000000 at the default bounds (4, 4) used to run for 30 s in 343 MB
    masks = list(range(64))
    random.Random(1).shuffle(masks)
    path = tmp_path / "dense6.tbl"
    path.write_text(render_network_table(Network(6, tuple(s ^ m for s, m in enumerate(masks)))))
    t0 = time.monotonic()
    code, out, err = run(capsys, "oracle", "--net", str(path), "--from", "000000")
    assert time.monotonic() - t0 < 10.0
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: anchored walks are capped at 1048576 nodes, but walks of \d+"
                        r" steps may make \d+: lower the bounds\n", err)


def test_huge_oracle_bounds_stop_where_the_search_meets_nothing_new(net_file, capsys):
    # bounds of 10**8 used to run one empty search layer per unit of bound
    # and hang; the layered searches stop at the first layer that meets
    # nothing new, so oracle answers as with the bounds it can fill
    _, want, _ = run(capsys, "oracle", "--net", net_file, "--from", "00", "--bounds", "4,4")
    t0 = time.monotonic()
    code, out, _ = run(capsys, "oracle", "--net", net_file, "--from", "00",
                       "--bounds", "100000000,4")
    assert (code, out) == (0, want)
    code, out, _ = run(capsys, "verify", "--net", net_file, "--bounds", "4,100000000")
    assert code == 0 and out.splitlines()[-1] == "OK (0 failures)"
    assert time.monotonic() - t0 < 10.0


def test_verify_samples_state_sets_above_n3(tmp_path, capsys):
    # every nonempty state set of n=4 is 65535 sets: the CLI used to try
    # them all; it now samples a fixed number and says so
    path = tmp_path / "net4.tbl"
    rows = [f"{i:04b} -> {(7 * i + 3) % 16:04b}" for i in range(16)]
    path.write_text("\n".join(["n=4", *rows]) + "\n")
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify", "--net", str(path), "--json")
    assert time.monotonic() - t0 < 10.0
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0] == {"record": "verify-sampling", "max_sets": 64}
    assert records[-1]["record"] == "verify-summary" and records[-1]["ok"]


def test_oracle_subcommand(net_file, capsys):
    code, out, _ = run(capsys, "oracle", "--net", net_file, "--from", "00")
    assert code == 0
    assert "stabilized: yes" in out
    code, out, _ = run(
        capsys, "oracle", "--net", net_file, "--set", "10", "--mode", "p"
    )
    assert code == 0
    assert out.strip() == "00,10"


def test_search_witness(net_file, capsys):
    code, out, _ = run(
        capsys, "search-witness", "--net", net_file, "--from", "00", "--set", "10"
    )
    assert code == 0
    assert "cycle" in out
    # not achievable: 11 cannot reach 10, {00} is not fair, and nothing
    # leads from 10 back to 00
    for start, literal in (("11", "10"), ("00", "00"), ("00", "00,10")):
        code, out, err = run(capsys, "search-witness", "--net", net_file, "--json",
                             "--from", start, "--set", literal)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"found": False, "record": "witness"}
    # usage errors exit 2 whether or not the target is achievable: a
    # missing --schedule, a reference flow whose omega is not the target,
    # a bad bit string
    for extra in (
        ("--from", "11", "--set", "10", "--align-from", "00"),
        ("--from", "11", "--set", "10", "--align-from", "00", "--schedule", SYNC),
        ("--from", "0x", "--set", "10"),
    ):
        code, out, err = run(capsys, "search-witness", "--net", net_file, *extra)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")


# a fair SCC {0110, 0111, 1110, 1111} whose members 14 and 15 collide in a
# frozenset's hash table, so the set iterates in insertion order there
COVER4 = (10, 8, 1, 2, 4, 13, 11, 14, 3, 9, 9, 0, 8, 1, 2, 4)


def test_covering_cycle_depends_on_the_set_not_its_insertion_order(tmp_path, capsys):
    net = Network(4, COVER4)
    built = [frozenset((6, 7, 14, 15)), frozenset((6, 7, 15, 14))]
    assert list(built[0]) != list(built[1])
    assert covering_walk(net, built[0], 6) == covering_walk(net, built[1], 6)
    path = tmp_path / "cover4.tbl"
    path.write_text(render_network_table(net))
    outs = []
    for literal in ("0110,0111,1110,1111", "0110,0111,1111,1110"):
        code, out, _ = run(
            capsys, "search-witness", "--net", str(path), "--from", "0110", "--set", literal
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == "cycle 0:1011 1:1100 2:1111 3:1011 ; period 4 ; start 0\n"


def test_portrait(net_file, capsys):
    code, out, _ = run(capsys, "portrait", "--net", net_file)
    assert code == 0
    assert out.startswith("digraph portrait {")


def test_orbit_and_omega_basins(net_file, capsys):
    code, out, _ = run(
        capsys, "orbit-basin", "--net", net_file, "--from", "11",
        "--schedule", SYNC, "--mode", "p",
    )
    assert code == 0
    assert out.splitlines()[0] == "00,01,11"
    code, out, _ = run(
        capsys, "omega-basin", "--net", net_file, "--from", "11",
        "--schedule", SYNC, "--mode", "n",
    )
    assert code == 0
    assert out.strip() == "01,11"


def test_expr_format(tmp_path, capsys):
    path = tmp_path / "net.expr"
    path.write_text("y1 = !(x1 & x2)\ny2 = !x1 | x2\n")
    code, out, _ = run(
        capsys, "fixed-points", "--net", str(path), "--format", "expr"
    )
    assert code == 0
    assert out.strip() == "10"


def test_expr_file_over_the_cap_exits_2_before_compiling(tmp_path, capsys):
    # 21 coordinates would compile a 2**21-row table before any dimension check
    path = tmp_path / "net21.expr"
    path.write_text("".join(f"y{i} = x{i}\n" for i in range(1, 22)))
    t0 = time.monotonic()
    code, out, err = run(capsys, "fixed-points", "--net", str(path), "--format", "expr")
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_out_file(net_file, tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run(
        capsys, "fixed-points", "--net", net_file, "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "10"


class _ClosedPipe(io.StringIO):
    """A stream whose reader has gone, as stdout is under `| head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_quietly(net_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["verify", "--net", net_file, "--bounds", "2,3"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_failing_out_file_still_exits_2(net_file, tmp_path, monkeypatch, capsys):
    def opener(path, mode="r", *args, **kwargs):
        return _ClosedPipe() if "w" in mode else open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", opener, raising=False)
    code, out, err = run(capsys, "verify", "--net", net_file, "--out", str(tmp_path / "r.txt"))
    assert code == 2
    assert out == ""
    assert err == "error: [Errno 32] Broken pipe\n"


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.tbl"
    path.write_text("n=2\n00 -> 11\n")
    code, _, err = run(capsys, "fixed-points", "--net", str(path))
    assert code == 2
    assert "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "fixed-points", "--net", "/nonexistent.tbl")
    assert code == 2


def test_schedule_from_file(net_file, tmp_path, capsys):
    sched = tmp_path / "rho.sched"
    sched.write_text(SYNC + "\n")
    code, out, _ = run(
        capsys, "omega", "--net", net_file, "--from", "00", "--schedule", str(sched)
    )
    assert code == 0
    assert out.strip() == "01,11"


def test_json_basin_carries_witnesses(net_file, capsys):
    code, out, _ = run(
        capsys, "basin", "--net", net_file, "--set", "10", "--json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    states = {r["state"] for r in records}
    assert states == {"00", "10"}
    assert all("witness" in r for r in records)


# the ten options with a sample value each (None for a flag)
OPTIONS = {
    "--net": "net.tbl",
    "--format": "expr",
    "--schedule": SYNC,
    "--from": "01",
    "--set": "00,10",
    "--mode": "n",
    "--bounds": "2,3",
    "--align-from": "11",
    "--out": "result.txt",
    "--json": None,
}


def _subparser_layout():
    """The parser as it was before it went flat: one subparser per
    command, each declaring every option again."""
    parser = argparse.ArgumentParser(prog="asyncbool")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--net", required=True)
        p.add_argument("--format", choices=("table", "expr"), default="table")
        p.add_argument("--schedule")
        p.add_argument("--from", dest="from_state")
        p.add_argument("--set")
        p.add_argument("--mode", choices=("p", "n"), default="p")
        p.add_argument("--bounds")
        p.add_argument("--align-from")
        p.add_argument("--out")
        p.add_argument("--json", action="store_true")
    return parser


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_flat_parser_matches_subparser_layout(command):
    old = _subparser_layout()
    for option, value in OPTIONS.items():
        given = [option] if value is None else [option, value]
        if option != "--net":
            given += ["--net", OPTIONS["--net"]]
        want = vars(old.parse_args([command, *given]))
        assert vars(_build_parser().parse_args([command, *given])) == want
        # options may also come before the command
        assert vars(_build_parser().parse_args([*given, command])) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus", "--net", "net.tbl"],
        ["basin", "--set", "10"],
        ["basin", "--net", "net.tbl", "--mode", "q"],
        ["fixed-points", "--net", "net.tbl", "--format", "xml"],
        ["fixed-points", "--net", "net.tbl", "--colour"],
        [],
    ],
    ids=["unknown-command", "missing-net", "bad-mode", "bad-format", "unknown-option",
         "nothing"],
)
def test_usage_errors_are_one_line(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["omega", "--schedule", SYNC], "this command needs --from <bits>"),
        (["basin"], "this command needs --set <literal>"),
        (["verify", "--bounds", "1"], "--bounds must be '<prefix>,<cycle>'"),
    ],
    ids=["no-from", "no-set", "one-bound"],
)
def test_missing_or_malformed_argument_exits_2_in_one_line(net_file, capsys, argv, message):
    code, out, err = run(capsys, *argv, "--net", net_file)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "fixed-points" in capsys.readouterr().out


def _session(capsys, calls):
    """(exit code, stdout, stderr) of each call, in one process."""
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # -h
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_one_parser_serves_every_call_as_a_fresh_one_would(net_file, monkeypatch, capsys):
    assert _build_parser() is _build_parser()
    calls = [
        ["basin", "--net", net_file, "--mode", "q"],
        ["-h"],
        ["fixed-points", "--net", net_file, "--json"],
        ["fixed-points", "--net", net_file],
        ["omega", "--net", net_file, "--from", "00", "--schedule", SYNC, "--mode", "n"],
        ["basin", "--net", net_file, "--set", "10"],
        ["fixed-points"],
    ]
    shared = _session(capsys, calls)
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 2]
    assert shared[3][1] == "10\n"
    monkeypatch.setattr(cli, "_build_parser", _build_parser.__wrapped__)
    assert _session(capsys, calls) == shared


@pytest.mark.parametrize("line, message", [
    ("y\u00b2 = x1", "line 1: expected 'y<i> = <expr>', got 'y\u00b2 = x1'"),
    ("y\u0663 = x1", "line 1: expected 'y<i> = <expr>', got 'y\u0663 = x1'"),
    ("y1 = x\u00b9", "line 1: column 3: expected variable index after 'x'"),
    ("y1 = x1\u00b9", "line 1: column 4: unexpected '\u00b9'"),
])
def test_expr_indices_take_only_ascii_digits(tmp_path, capsys, line, message):
    # '²', '¹' and '٣' pass str.isdigit: int() refused the first two with
    # its own message, naming no line, and read '٣' as 3
    path = tmp_path / "sup.expr"
    path.write_text(line + "\n", encoding="utf-8")
    assert run(capsys, "fixed-points", "--net", str(path), "--format", "expr") == (
        2, "", f"error: {message}\n")


def test_deep_parentheses_exit_2_in_one_line(tmp_path, capsys):
    path = tmp_path / "deep.expr"
    path.write_text("y1 = " + "(" * 100 + "x1" + ")" * 100 + "\n")
    assert run(capsys, "fixed-points", "--net", str(path), "--format", "expr") == (0, "0,1\n", "")
    # five frames of recursion per parenthesis: 200 used to end in a
    # RecursionError traceback
    path.write_text("y1 = " + "(" * 200 + "x1" + ")" * 200 + "\n")
    code, out, err = run(capsys, "fixed-points", "--net", str(path), "--format", "expr")
    assert (code, out) == (2, "")
    assert err == "error: line 1: column 102: parentheses nested deeper than 100\n"
