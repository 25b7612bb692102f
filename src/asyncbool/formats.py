"""Text formats: networks (truth table or Boolean expressions), schedules,
state-set literals, and the DOT state portrait exporter.

The truth table is the ground-truth network format; the expression DSL is
sugar that compiles down to a table.  All renderers round-trip bit-exactly
through their parsers and produce byte-stable output.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction

from .core import GRAPH_CAP, STEP_CAP, DimensionError, Network, format_bits, parse_bits
from .graph import _check_graph_cap, _successors
from .schedule import Schedule, ScheduleError, _require_progressive


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}: "
        elif column is not None:
            where = f"column {column}: "
        super().__init__(where + message)
        self.line = line
        self.column = column


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of every line not blank or a # comment."""
    return [
        (i, line)
        for i, raw in enumerate(text.splitlines(), 1)
        if (line := raw.strip()) and line[0] != "#"
    ]


# --- networks: truth table ------------------------------------------------


def parse_network_table(text: str) -> Network:
    # the layout render_network_table writes takes one split; any other
    # text, and every error, takes the line parser below
    net = _read_rendered_table(text)
    if net is not None:
        return net
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty network file")
    lineno, header = lines[0]
    count = header[2:].strip()
    # isdigit alone takes digits that int does not, such as '²'
    if not header.startswith("n=") or not (count.isascii() and count.isdigit()):
        raise ParseError(f"expected 'n=<int>', got {header!r}", lineno)
    # int refuses more digits than that, in a message naming no line
    if len(count) > _MAX_EXPONENT:
        raise ParseError(f"dimension has more than {_MAX_EXPONENT} digits", lineno)
    n = int(count)
    if n < 1:
        raise ParseError("dimension must be positive", lineno)
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split("->")
        if len(parts) != 2:
            raise ParseError(f"expected '<bits> -> <bits>', got {line!r}", lineno)
        try:
            rows.append((parse_bits(parts[0].strip(), n), parse_bits(parts[1].strip(), n)))
        except DimensionError as exc:
            raise ParseError(str(exc), lineno) from exc
    try:
        return Network.from_rows(n, rows)
    except DimensionError as exc:
        raise ParseError(str(exc)) from exc


def render_network_table(net: Network) -> str:
    out = [f"n={net.n}"]
    for mu in net.states():
        out.append(f"{format_bits(mu, net.n)} -> {format_bits(net.table[mu], net.n)}")
    return "\n".join(out) + "\n"


# the names of each dimension up to GRAPH_CAP, built on its first use:
# about 2 000 strings in all.  Every caller only reads them; the index
# stays a plain dict, since a read-only proxy doubles the cost of a lookup
_NAME_TABLES: dict[int, tuple[tuple[str, ...], dict[str, int]]] = {}


def _state_names(n: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """format_bits(mu, n) of every state mu, in state order, and the map
    from each name back to its state.  Kept for the process up to
    GRAPH_CAP; above it, built again on every call."""
    tables = _NAME_TABLES.get(n)
    if tables is None:
        # n rounds of appending a bit cost less than one format call per state
        names = [""]
        for _ in range(n):
            names = [name + bit for name in names for bit in "01"]
        tables = tuple(names), dict(zip(names, range(len(names))))
        if 1 <= n <= GRAPH_CAP:
            _NAME_TABLES[n] = tables
    return tables


def _read_rendered_table(text: str) -> Network | None:
    """The network of a text laid out exactly as render_network_table
    writes it: `n=<k>`, then the 2**k rows `<bits> -> <bits>` in state
    order, each ended by LF.  None for any other text."""
    header, _, body = text.partition("\n")
    count = header[2:]
    if not (header.startswith("n=") and count.isascii() and count.isdigit()
            and len(count) <= len(str(STEP_CAP))):
        return None
    n = int(count)
    # n is checked against the cap before any size is computed from it
    if not 1 <= n <= STEP_CAP:
        return None
    size, width = 1 << n, 2 * n + 5
    # with every row `width` long and ended by LF, the split below gives
    # 2 * size cells of n bits only if each row is one arrow between two
    if len(body) != size * width or body[width - 1 :: width] != "\n" * size:
        return None
    cells = body.replace(" -> ", "\n").split("\n")
    names, index = _state_names(n)
    if len(cells) != 2 * size + 1 or tuple(cells[:-1:2]) != names:
        return None
    try:
        return Network(n, tuple(map(index.__getitem__, cells[1::2])))
    except KeyError:
        return None


# --- networks: expression DSL ---------------------------------------------
#
# grammar (loosest binding first):
#   expr   := xor ('|' xor)*
#   xor    := and ('^' and)*
#   and    := unary ('&' unary)*
#   unary  := '!' unary | atom
#   atom   := '0' | '1' | x<i> | '(' expr ')'
#
# Every rule returns the truth column of what it parsed: an int of 2**n
# bits whose bit mu is the subexpression's value at state mu.  Each
# operator then evaluates at every state in one bitwise operation.


def _columns(n: int) -> list[int]:
    """Truth columns of the constant 1 (index 0) and of x1..xn (index i)."""
    ones = (1 << (1 << n)) - 1
    columns, low = [ones], ones
    for i in range(1, n + 1):
        # bit mu of `low` is set iff bit n - i of mu is clear
        low = (low ^ low << (1 << (n - i))) & ones
        columns.append(ones ^ low)
    return columns


# each open parenthesis costs five Python frames of recursion
_MAX_PARENS = 100


class _ExprParser:
    def __init__(self, text: str, n: int, columns: list[int]):
        self.text = text
        self.pos = 0
        self.n = n
        self.columns = columns
        self.parens = 0

    def error(self, message: str):
        raise ParseError(message, column=self.pos + 1)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> int:
        column = self.expr()
        if self.peek():
            self.error(f"unexpected {self.text[self.pos]!r}")
        return column

    def expr(self) -> int:
        column = self.xor()
        while self.peek() == "|":
            self.pos += 1
            column |= self.xor()
        return column

    def xor(self) -> int:
        column = self.and_()
        while self.peek() == "^":
            self.pos += 1
            column ^= self.and_()
        return column

    def and_(self) -> int:
        column = self.unary()
        while self.peek() == "&":
            self.pos += 1
            column &= self.unary()
        return column

    def unary(self) -> int:
        if self.peek() == "!":
            self.pos += 1
            return self.columns[0] ^ self.unary()
        return self.atom()

    def atom(self) -> int:
        c = self.peek()
        if not c:
            self.error("syntax error at end of input")
        if c == "(":
            if self.parens == _MAX_PARENS:
                self.error(f"parentheses nested deeper than {_MAX_PARENS}")
            self.parens += 1
            self.pos += 1
            column = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.parens -= 1
            return column
        if c in "01":
            self.pos += 1
            return self.columns[0] if c == "1" else 0
        if c == "x":
            self.pos += 1
            start = self.pos
            # isdigit alone takes digits that int does not, such as '¹'
            while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
                self.pos += 1
            if start == self.pos:
                self.error("expected variable index after 'x'")
            idx = int(self.text[start : self.pos])
            if not 1 <= idx <= self.n:
                self.error(f"variable x{idx} outside 1..{self.n}")
            return self.columns[idx]
        self.error(f"unexpected {c!r}")


def parse_network_exprs(text: str) -> Network:
    """Lines `y<i> = <expr>`, one per coordinate, compiled to a truth table."""
    defs: dict[int, int] = {}
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty expression file")
    n = len(lines)
    # the table has 2**n rows; refuse before parsing or compiling anything
    if n > STEP_CAP:
        raise ParseError(f"dimension must be in 1..{STEP_CAP}, got {n} coordinates")
    columns = _columns(n)
    for lineno, line in lines:
        lhs, sep, rhs = line.partition("=")
        lhs = lhs.strip()
        index = lhs[1:]
        if not sep or not lhs.startswith("y") or not (index.isascii() and index.isdigit()):
            raise ParseError(f"expected 'y<i> = <expr>', got {line!r}", lineno)
        idx = int(index)
        if not 1 <= idx <= n:
            raise ParseError(f"coordinate y{idx} outside 1..{n}", lineno)
        if idx in defs:
            raise ParseError(f"coordinate y{idx} defined twice", lineno)
        try:
            defs[idx] = _ExprParser(rhs, n, columns).parse()
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from exc
    # n lines with distinct indices in 1..n have defined every coordinate.
    # Row mu of the table is bit mu of y1..yn, y1 the most significant.
    # Columns are read back as bit strings, 2**16 states at a time; format
    # writes the highest state first, so each string is reversed
    ys = [defs[i] for i in range(1, n + 1)]
    size = min(1 << n, 1 << 16)
    table: list[int] = []
    for lo in range(0, 1 << n, size):
        bits = [format(y >> lo & (1 << size) - 1, f"0{size}b")[::-1] for y in ys]
        table.extend(int("".join(row), 2) for row in zip(*bits))
    return Network(n, tuple(table))


# --- schedules and state sets ---------------------------------------------


# the most digits Python converts in an integer string
_MAX_EXPONENT = 4300
# the least int with more digits than that
_DIGIT_LIMIT = 10**_MAX_EXPONENT


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    # Fraction computes 10**|e| before anything else looks at the value, so
    # a larger exponent is refused first, without converting it
    exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) > _MAX_EXPONENT):
        raise ParseError(f"time value {text!r} has an exponent beyond {_MAX_EXPONENT}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad time value {text!r}") from exc
    # a value within the exponent limit may still have too many digits to
    # be rendered back
    if _too_long(value):
        raise ParseError(f"time value {text!r} has more than {_MAX_EXPONENT} digits")
    return value


def _too_long(value: Fraction | int) -> bool:
    """Whether str() refuses to write the time out: comparing with the
    bound converts nothing."""
    return abs(value.numerator) >= _DIGIT_LIMIT or value.denominator >= _DIGIT_LIMIT


def _parse_timed_events(body: str, n: int) -> list[tuple[Fraction, int]]:
    events = []
    for item in body.split():
        time_text, sep, bits = item.partition(":")
        if not sep:
            raise ParseError(f"expected '<time>:<bits>', got {item!r}")
        try:
            fire = parse_bits(bits, n)
        except DimensionError as exc:
            raise ParseError(str(exc)) from exc
        events.append((_parse_rational(time_text), fire))
    return events


def parse_schedule(text: str, n: int) -> Schedule:
    """`prefix <t>:<bits> ... ; cycle <o>:<bits> ... ; period <P> ; start <s>`

    The prefix section is optional and no section may be given twice;
    times are decimals or `a/b` rationals.  Non-progressive schedules are
    rejected with the missing coordinates."""
    sections: dict = {}  # keyword -> its parsed events or time
    for section in text.split(";"):
        keyword, _, body = section.strip().partition(" ")
        if not keyword:
            continue
        if keyword not in ("prefix", "cycle", "period", "start"):
            raise ParseError(f"unknown schedule section {keyword!r}")
        if keyword in sections:
            raise ParseError(f"schedule section {keyword!r} given twice")
        timed = keyword in ("prefix", "cycle")
        sections[keyword] = _parse_timed_events(body, n) if timed else _parse_rational(body)
    if not sections.get("cycle"):
        raise ParseError("schedule needs a nonempty cycle section")
    for keyword in ("period", "start"):
        if keyword not in sections:
            raise ParseError(f"schedule needs a {keyword}")
    try:
        rho = Schedule(n, tuple(sections.get("prefix", ())), tuple(sections["cycle"]),
                       sections["period"], sections["start"])
        _require_progressive(rho, n)
    except ScheduleError as exc:  # NotProgressiveError included
        raise ParseError(str(exc)) from exc
    return rho


def _render_rational(value: Fraction | int) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def render_schedule(rho: Schedule) -> str:
    parts = []
    if rho.prefix:
        parts.append(
            "prefix "
            + " ".join(f"{_render_rational(t)}:{format_bits(f, rho.n)}" for t, f in rho.prefix)
        )
    parts.append(
        "cycle "
        + " ".join(f"{_render_rational(t)}:{format_bits(f, rho.n)}" for t, f in rho.cycle)
    )
    parts.append(f"period {_render_rational(rho.period)}")
    parts.append(f"start {_render_rational(rho.cycle_start)}")
    return " ; ".join(parts)


def parse_state_set(text: str, n: int) -> frozenset[int]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ParseError("empty state set literal")
    if n <= GRAPH_CAP:
        # the names are exactly the texts parse_bits takes; an item that is
        # none of them takes parse_bits below, which names its error
        with contextlib.suppress(KeyError):
            return frozenset(map(_state_names(n)[1].__getitem__, items))
    try:
        return frozenset(parse_bits(item, n) for item in items)
    except DimensionError as exc:
        raise ParseError(str(exc)) from exc


def _sorted_names(states: frozenset[int], n: int) -> list[str]:
    """format_bits of every member, in increasing order."""
    if n <= GRAPH_CAP:
        ordered = sorted(states)
        # a member out of range has no name, and a negative one would
        # index the table from its end
        if ordered and 0 <= ordered[0] and ordered[-1] < 1 << n:
            return list(map(_state_names(n)[0].__getitem__, ordered))
    return sorted(format_bits(s, n) for s in states)


def render_state_set(states: frozenset[int], n: int) -> str:
    return ",".join(_sorted_names(states, n))


# --- DOT export -----------------------------------------------------------


def export_dot(net: Network) -> str:
    """Deterministic DOT state portrait.

    Node labels underline the unstable coordinates; one edge per nonempty
    fire subset of the unstable coordinates, labeled by the fire set.  The
    empty-fire self-loops are not drawn, so fixed points have no outgoing
    edges, matching hand-drawn portraits.
    """
    _check_graph_cap(net)
    n, table = net.n, net.table
    # one name per state, which also names each fire set
    names = _state_names(n)[0]
    lines = ["digraph portrait {", "  rankdir=LR;", '  node [shape=ellipse, fontname="monospace"];']
    for mu, name in enumerate(names):
        unstable = names[mu ^ table[mu]]
        label = "".join(f"<u>{bit}</u>" if flag == "1" else bit for bit, flag in zip(name, unstable))
        lines.append(f"  s{name} [label=<{label}>];")
    step = _successors(net)
    for mu, name in enumerate(names):
        # successors come in decreasing fire-set order; edges go increasing
        for target in reversed(step(mu)):
            lines.append(f'  s{name} -> s{names[target]} [label="{names[mu ^ target]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
