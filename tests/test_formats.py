import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncbool
from asyncbool import (
    Network,
    ParseError,
    export_dot,
    parse_network_exprs,
    parse_network_table,
    parse_schedule,
    parse_state_set,
    render_network_table,
    render_schedule,
    render_state_set,
    synchronous,
)
from asyncbool import formats
from asyncbool.core import GRAPH_CAP, STEP_CAP, DimensionError, format_bits, parse_bits, unstable_set
from asyncbool.formats import _NAME_TABLES, _content_lines, _state_names
from asyncbool.graph import _check_graph_cap, proper_successors
from tests.conftest import NET1_TABLE_TEXT


def test_table_roundtrip(net1):
    assert parse_network_table(NET1_TABLE_TEXT) == net1
    assert parse_network_table(render_network_table(net1)) == net1
    assert render_network_table(net1) == NET1_TABLE_TEXT


def test_table_comments_and_blank_lines(net1):
    text = "# comment\n\nn=2\n00 -> 11\n# more\n01 -> 11\n10 -> 10\n11 -> 01\n"
    assert parse_network_table(text) == net1


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "n=0\n",
        "n=2\n00 -> 11\n",  # missing rows
        "n=2\n00 -> 11\n00 -> 10\n01 -> 11\n10 -> 10\n11 -> 01\n",  # duplicate
        "n=2\n00 = 11\n01 -> 11\n10 -> 10\n11 -> 01\n",  # bad separator
        "n=2\n000 -> 11\n01 -> 11\n10 -> 10\n11 -> 01\n",  # wrong width
        # the rendered length and cells, with one row end and one arrow
        # swapped
        "n=2\n00\n11 -> 01 -> 11\n10 -> 10\n11 -> 01\n",
    ],
)
def test_table_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_network_table(bad)


@pytest.mark.parametrize("count", ["two", "²", "٣", "2²", "-2"])
def test_table_header_takes_only_ascii_digits(count):
    # '²' and '٣' pass str.isdigit; int() refused the first with its own
    # message and read the second as 3
    header = f"n={count}"
    with pytest.raises(ParseError) as exc:
        parse_network_table(f"{header}\n00 -> 11\n")
    assert str(exc.value) == f"line 1: expected 'n=<int>', got {header!r}"


@pytest.mark.parametrize("prefix", ["", "# a comment\n"])
def test_table_header_past_the_digit_limit_names_its_line(prefix):
    # int() refuses more than 4300 digits with a message naming no line;
    # both readers see the header, the one-split reader declines it
    with pytest.raises(ParseError) as exc:
        parse_network_table(f"{prefix}n={'9' * 5000}\n00 -> 11\n")
    line = prefix.count("\n") + 1
    assert str(exc.value) == f"line {line}: dimension has more than 4300 digits"
    # 4300 digits, leading zeros included, are still read as a dimension
    with pytest.raises(ParseError, match="^missing state 01$"):
        parse_network_table(f"n={'0' * 4299}2\n00 -> 11\n")


def test_rendered_layout_with_a_cell_that_names_no_state_takes_the_line_parser():
    # every row is rendered length and ends in LF, so only the image cell
    # 0x makes the one-split reader decline; the line parser names its line
    text = "n=2\n00 -> 0x\n01 -> 11\n10 -> 10\n11 -> 01\n"
    assert formats._read_rendered_table(text) is None
    with pytest.raises(ParseError) as exc:
        parse_network_table(text)
    assert str(exc.value) == "line 2: expected 2 bits, got '0x'"


def test_expr_network_compiles_to_table(net1):
    # NET1 as expressions: y1 = !x2 | (x1 & x2) ... derive from the table
    text = "y1 = !(x1) | (x1 & !x2)\ny2 = !x1 | x2\n"
    net = parse_network_exprs(text)
    # 00 -> 11, 01 -> 11, 10 -> 10, 11 -> 01
    assert net == net1


def test_expr_operator_precedence():
    # ! binds tighter than &, & tighter than ^, ^ tighter than |
    net = parse_network_exprs("y1 = !x1 & x1 | x1\n")
    assert net.table == (0, 1)
    net = parse_network_exprs("y1 = x1 ^ x1 | 1\n")
    assert net.table == (1, 1)


def test_expr_constants_and_parens():
    net = parse_network_exprs("y1 = (0 | 1) & x1\ny2 = 0\n")
    assert net.table == (0b00, 0b00, 0b10, 0b10)


@pytest.mark.parametrize(
    "bad",
    [
        "y1 = x2\n",  # variable out of range for n=1
        "y1 = x1 &\n",
        "y1 = (x1\n",
        "y2 = x1\n",  # y2 defined but n=1 means y1 missing
        "y1 = x1\ny1 = x1\n",
    ],
)
def test_expr_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_network_exprs(bad)


@pytest.mark.parametrize("text", ["", "\n \n", "# y1 = x1\n"])
def test_empty_expression_file_is_refused(text):
    with pytest.raises(ParseError, match="^empty expression file$"):
        parse_network_exprs(text)


# --- a per-row reference for the expression compiler ----------------------
#
# The same grammar parsed into a tuple tree, then evaluated once per state
# and coordinate.  The compiler builds each subexpression's truth column
# instead; both must give the same table and the same ParseError text.


class _TreeParser:
    def __init__(self, text, n):
        self.text = text
        self.pos = 0
        self.n = n

    def error(self, message):
        raise ParseError(message, column=self.pos + 1)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        node = self.expr()
        if self.peek():
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def binary(self, symbol, kind, operand):
        node = operand()
        while self.peek() == symbol:
            self.pos += 1
            node = (kind, node, operand())
        return node

    def expr(self):
        return self.binary("|", "or", self.xor)

    def xor(self):
        return self.binary("^", "xor", self.and_)

    def and_(self):
        return self.binary("&", "and", self.unary)

    def unary(self):
        if self.peek() == "!":
            self.pos += 1
            return ("not", self.unary())
        return self.atom()

    def atom(self):
        c = self.peek()
        if not c:
            self.error("syntax error at end of input")
        if c == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if c in "01":
            self.pos += 1
            return ("const", int(c))
        if c == "x":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
                self.pos += 1
            if start == self.pos:
                self.error("expected variable index after 'x'")
            idx = int(self.text[start : self.pos])
            if not 1 <= idx <= self.n:
                self.error(f"variable x{idx} outside 1..{self.n}")
            return ("var", idx)
        self.error(f"unexpected {c!r}")


def _eval_tree(node, mu, n):
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "var":
        return (mu >> (n - node[1])) & 1
    if kind == "not":
        return 1 - _eval_tree(node[1], mu, n)
    a, b = _eval_tree(node[1], mu, n), _eval_tree(node[2], mu, n)
    return {"and": a & b, "or": a | b, "xor": a ^ b}[kind]


def reference_exprs(text):
    """parse_network_exprs by tree walks: 2**n * n of them."""
    defs = {}
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty expression file")
    n = len(lines)
    if n > STEP_CAP:
        raise ParseError(f"dimension must be in 1..{STEP_CAP}, got {n} coordinates")
    for lineno, line in lines:
        lhs, sep, rhs = line.partition("=")
        lhs = lhs.strip()
        if not sep or not lhs.startswith("y") or not (lhs[1:].isascii() and lhs[1:].isdigit()):
            raise ParseError(f"expected 'y<i> = <expr>', got {line!r}", lineno)
        idx = int(lhs[1:])
        if not 1 <= idx <= n:
            raise ParseError(f"coordinate y{idx} outside 1..{n}", lineno)
        if idx in defs:
            raise ParseError(f"coordinate y{idx} defined twice", lineno)
        try:
            defs[idx] = _TreeParser(rhs, n).parse()
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from exc
    missing = [i for i in range(1, n + 1) if i not in defs]
    if missing:
        raise ParseError(f"coordinate y{missing[0]} undefined")
    return Network(n, tuple(
        sum(_eval_tree(defs[i], mu, n) << (n - i) for i in range(1, n + 1))
        for mu in range(1 << n)
    ))


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


spaces = st.sampled_from(["", " ", "  ", "\t"])


constants = st.sampled_from(["0", "1"])
operators = st.sampled_from("&^|")


def draw_expression(draw, n, depth):
    """A random expression over x1..xn, nested at most `depth` deep."""
    kind = draw(st.integers(0, 4 if depth else 1))
    if kind == 0:
        return draw(constants)
    if kind == 1:
        return f"x{draw(st.integers(1, n))}"
    if kind == 2:
        return "!" + draw(spaces) + draw_expression(draw, n, depth - 1)
    if kind == 3:
        return "(" + draw(spaces) + draw_expression(draw, n, depth - 1) + draw(spaces) + ")"
    left, right = draw_expression(draw, n, depth - 1), draw_expression(draw, n, depth - 1)
    return left + draw(spaces) + draw(operators) + draw(spaces) + right


@st.composite
def expression_files(draw):
    """A valid file with n <= 6: one line per coordinate in random order,
    with random spacing, comments and blank lines."""
    n = draw(st.integers(1, 6))
    lines = [
        f"{draw(spaces)}y{i}{draw(spaces)}={draw(spaces)}{draw_expression(draw, n, 3)}"
        for i in range(1, n + 1)
    ]
    lines = draw(st.permutations(lines))
    for extra in draw(st.lists(st.sampled_from(["", "  ", "# note"]), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def malformed_files(draw):
    """A valid file with one to three characters deleted, inserted or
    replaced: mostly malformed, sometimes still valid."""
    chars = list(draw(expression_files()))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(chars)))
        if chars and draw(st.booleans()):
            del chars[min(pos, len(chars) - 1)]
        else:
            chars.insert(pos, draw(st.sampled_from("!&^|()01x9yz= \n#")))
    return "".join(chars)


@settings(max_examples=300, deadline=None)
@given(expression_files())
def test_expr_columns_match_per_row_reference(text):
    net = parse_network_exprs(text)
    assert net == reference_exprs(text)


@settings(max_examples=400, deadline=None)
@given(malformed_files())
def test_expr_parse_errors_match_per_row_reference(text):
    assert outcome(parse_network_exprs, text) == outcome(reference_exprs, text)


# --- the per-row reference for the table reader ---------------------------
#
# The reader before it matched each row with one pattern: split on "->",
# strip both parts and parse each as bits.  Both must give the same network
# and the same ParseError text.


def reference_table(text):
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty network file")
    lineno, header = lines[0]
    if not header.startswith("n=") or not header[2:].strip().isdigit():
        raise ParseError(f"expected 'n=<int>', got {header!r}", lineno)
    n = int(header[2:])
    if n < 1:
        raise ParseError("dimension must be positive", lineno)
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split("->")
        if len(parts) != 2:
            raise ParseError(f"expected '<bits> -> <bits>', got {line!r}", lineno)
        try:
            mu = parse_bits(parts[0].strip(), n)
            image = parse_bits(parts[1].strip(), n)
        except DimensionError as exc:
            raise ParseError(str(exc), lineno) from exc
        rows.append((mu, image))
    try:
        return Network.from_rows(n, rows)
    except DimensionError as exc:
        raise ParseError(str(exc)) from exc


row_spaces = st.sampled_from(["", " ", "\t", " \t ", "\t\t", "   "])


@st.composite
def table_files(draw):
    """A valid table with n <= 6: either as render_network_table writes it,
    plain or with CRLF line ends, no final LF or a leading comment; or with
    rows in random order with random spacing around "->", comments, blank
    lines, and LF or CRLF line ends."""
    n = draw(st.integers(1, 6))
    images = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    if draw(st.booleans()):
        # the layout render_network_table writes, which takes the one-split
        # reader, and variants of it that take the line parser
        text = render_network_table(Network(n, tuple(images)))
        return draw(st.sampled_from([text, text.replace("\n", "\r\n"), text[:-1],
                                     "# note\n" + text]))
    lines = [
        f"{draw(row_spaces)}{mu:0{n}b}{draw(row_spaces)}->{draw(row_spaces)}"
        f"{image:0{n}b}{draw(row_spaces)}"
        for mu, image in enumerate(images)
    ]
    lines = [f"n={draw(row_spaces)}{n}", *draw(st.permutations(lines))]
    for extra in draw(st.lists(st.sampled_from(["", " \t", "# note", "  # 00 -> 11"]),
                               max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def malformed_tables(draw):
    """A valid table with one to three characters deleted or inserted:
    mostly malformed, sometimes still valid.  No digit but 0 and 1 is
    inserted, so a header cannot grow to a dimension that allocates."""
    chars = list(draw(table_files()))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(chars)))
        if chars and draw(st.booleans()):
            del chars[min(pos, len(chars) - 1)]
        else:
            chars.insert(pos, draw(st.sampled_from(list("01->< \t\r\n#n=x") + ["\u00a0", "\u2003"])))
    return "".join(chars)


@settings(max_examples=300, deadline=None)
@given(table_files())
def test_table_rows_match_per_row_reference(text):
    net = parse_network_table(text)
    assert net == reference_table(text)


@settings(max_examples=500, deadline=None)
@given(malformed_tables())
def test_table_parse_errors_match_per_row_reference(text):
    assert outcome(parse_network_table, text) == outcome(reference_table, text)


def test_line_parser_builds_no_names_for_a_short_file(monkeypatch):
    # an n = 20 header over one row: 2**20 names would cost more than the file
    built = []
    monkeypatch.setattr(formats, "_state_names", lambda n: built.append(n))
    with pytest.raises(ParseError, match="missing state"):
        parse_network_table("n=20\n" + "0" * 20 + " -> " + "1" * 20 + "\n")
    assert built == []


def test_schedule_roundtrip():
    text = "prefix -1:01 0:10 ; cycle 0:11 1/2:01 ; period 3/2 ; start 2"
    rho = parse_schedule(text, 2)
    assert rho.prefix == ((Fraction(-1), 0b01), (Fraction(0), 0b10))
    assert rho.cycle == ((Fraction(0), 0b11), (Fraction(1, 2), 0b01))
    assert rho.period == Fraction(3, 2)
    assert rho.cycle_start == Fraction(2)
    assert render_schedule(rho) == text
    assert parse_schedule(render_schedule(rho), 2) == rho


def test_schedule_roundtrip_without_prefix():
    rho = synchronous(2)
    assert parse_schedule(render_schedule(rho), 2) == rho


def test_schedule_rejects_non_progressive():
    with pytest.raises(ParseError, match="never fires"):
        parse_schedule("cycle 0:10 ; period 1 ; start 0", 2)


@pytest.mark.parametrize(
    "bad",
    [
        "period 1 ; start 0",  # no cycle
        "cycle 0:11 ; start 0",  # no period
        "cycle 0:11 ; period 1",  # no start
        "cycle 2:11 ; period 1 ; start 0",  # offset outside period
        "cycle 0:11 ; period 1 ; start 0 ; bogus 3",
        "cycle 0-11 ; period 1 ; start 0",
        # Fraction would compute 10**99999999 before anything else
        "cycle 0:11 ; period 1 ; start 1e99999999",
        # within the exponent limit, but 4 301 digits cannot be rendered back
        "cycle 0:11 ; period 1 ; start 1e4300",
        "cycle 0:11 ; period 1 ; start 1e-4300",
        # a section given twice, which used to keep the last one
        "cycle 0:11 ; period 1 ; start 0 ; start 1",
        "cycle 0:11 ; cycle 0:01 ; period 1 ; start 0",
        "cycle 0:11 ; period 1 ; period 2 ; start 0",
        "prefix 0:01 ; prefix 0:10 ; cycle 0:11 ; period 1 ; start 1",
    ],
)
def test_schedule_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_schedule(bad, 2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("cycle 0:11 ; period 1 ; start abc", "bad time value 'abc'"),
        ("cycle 0:1x ; period 1 ; start 0", "expected 2 bits, got '1x'"),
    ],
)
def test_schedule_value_errors_name_the_value(text, message):
    with pytest.raises(ParseError) as exc:
        parse_schedule(text, 2)
    assert str(exc.value) == message


def test_schedule_trailing_separator_is_ignored():
    text = "prefix 0:01 ; cycle 0:11 ; period 1 ; start 1"
    assert parse_schedule(text + " ;", 2) == parse_schedule(text + ";", 2) == parse_schedule(text, 2)


@pytest.mark.parametrize("section", ["prefix", "cycle", "period", "start"])
def test_schedule_section_given_twice_is_named(section):
    bodies = {"prefix": "0:01", "cycle": "0:11", "period": "1", "start": "1"}
    text = " ; ".join(f"{key} {body}" for key, body in bodies.items())
    with pytest.raises(ParseError, match=f"^schedule section '{section}' given twice$"):
        parse_schedule(f"{text} ; {section} {bodies[section]}", 2)


def test_state_set_roundtrip():
    states = frozenset({0b00, 0b10})
    assert render_state_set(states, 2) == "00,10"
    assert parse_state_set("10, 00", 2) == states
    with pytest.raises(ParseError):
        parse_state_set("", 2)
    with pytest.raises(ParseError):
        parse_state_set("0", 2)


def test_name_tables_match_format_bits_and_parse_bits():
    for n in range(1, GRAPH_CAP + 1):
        names, index = _state_names(n)
        assert names == tuple(format_bits(mu, n) for mu in range(1 << n))
        assert index == {format_bits(mu, n): mu for mu in range(1 << n)}
        assert all(parse_bits(name, n) == mu for name, mu in index.items())
        # built once per process
        assert _state_names(n)[0] is names and _state_names(n)[1] is index
        assert n in _NAME_TABLES
        states = frozenset(range(0, 1 << n, 3))
        assert render_state_set(states, n) == ",".join(sorted(format_bits(s, n) for s in states))
    # a member with no name is written as format_bits writes it
    assert render_state_set(frozenset({-1, 2, 9}), 3) == "-01,010,1001"


def test_importing_the_package_builds_no_name_table():
    src = str(Path(asyncbool.__file__).resolve().parents[1])
    code = ("import asyncbool, asyncbool.cli; from asyncbool import formats; "
            "assert formats._NAME_TABLES == {}, formats._NAME_TABLES")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("n", [GRAPH_CAP + 1, GRAPH_CAP + 2])
def test_rendered_table_above_the_cap_keeps_no_names(n):
    rng = random.Random(n)
    net = Network(n, tuple(mu ^ (1 << rng.randrange(n)) for mu in range(1 << n)))
    text = render_network_table(net)
    kept = dict(_NAME_TABLES)
    assert parse_network_table(text) == net
    assert _NAME_TABLES == kept
    # the line parser reads the same text behind a comment
    assert parse_network_table("# comment\n" + text) == net


@pytest.mark.parametrize("n", [3, GRAPH_CAP, GRAPH_CAP + 2])
def test_state_set_errors_read_as_before(n):
    ones, zeros = "1" * n, "0" * n
    assert parse_state_set(f" {ones} ,{zeros},{ones}", n) == {0, (1 << n) - 1}
    for literal, message in [
        ("", "empty state set literal"),
        (" , ,", "empty state set literal"),
        (zeros + "0", f"expected {n} bits, got {zeros + '0'!r}"),
        (ones[1:], f"expected {n} bits, got {ones[1:]!r}"),
        (zeros[1:] + "2", f"expected {n} bits, got {zeros[1:] + '2'!r}"),
        (f"{zeros}, {ones[1:]}x ,{ones},0", f"expected {n} bits, got {ones[1:] + 'x'!r}"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_state_set(literal, n)
        assert str(exc.value) == message


def reference_dot(net):
    """export_dot as it read before naming each state once."""
    _check_graph_cap(net)
    lines = ["digraph portrait {", "  rankdir=LR;", '  node [shape=ellipse, fontname="monospace"];']
    for mu in net.states():
        unstable = unstable_set(net, mu)
        label = "".join(
            f"<u>{bit}</u>" if unstable & (1 << (net.n - 1 - i)) else bit
            for i, bit in enumerate(format_bits(mu, net.n))
        )
        lines.append(f'  s{format_bits(mu, net.n)} [label=<{label}>];')
    for mu in net.states():
        for fire, target in sorted(proper_successors(net, mu)):
            lines.append(
                f'  s{format_bits(mu, net.n)} -> s{format_bits(target, net.n)}'
                f' [label="{format_bits(fire, net.n)}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def networks(draw):
    n = draw(st.integers(1, 5))
    return Network(n, tuple(draw(st.lists(st.integers(0, (1 << n) - 1),
                                          min_size=1 << n, max_size=1 << n))))


@settings(max_examples=200, deadline=None)
@given(networks())
def test_export_dot_matches_reference(net):
    assert export_dot(net) == reference_dot(net)


def test_export_dot_matches_reference_on_a_sparse_table():
    # n = 8, one flipped bit per state and the fixed point 00000000
    net = Network(8, tuple(s if s == 0 else s ^ (1 << (s * 5 % 8)) for s in range(256)))
    assert export_dot(net) == reference_dot(net)


def test_export_dot_is_byte_stable(net1):
    assert export_dot(net1) == export_dot(net1)


def test_export_dot_contents(net1):
    dot = export_dot(net1)
    # node 00: both coordinates unstable, hence both underlined
    assert "s00 [label=<<u>0</u><u>0</u>>]" in dot
    assert dot.count("s00 -> ") == 3
    # the fixed point has no outgoing edges and no underlines
    assert "s10 [label=<10>]" in dot
    assert "s10 -> " not in dot
