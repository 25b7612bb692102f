"""Boolean networks and the single-step asynchronous iteration.

States and fire sets are plain ints holding n bits; coordinate 1 is the
most significant bit, so the textual form "10" for n=2 means coordinate 1
is set and coordinate 2 is clear.  A network is its dimension plus a total
truth table, one successor per state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

# 2**n state enumeration (graphs, basins, oracle) stays desk-scale up to
# here; pure step evaluation is allowed a bit more room.
GRAPH_CAP = 10
STEP_CAP = 20
# Enumerating fair strongly-connected *subsets* of an SCC is exponential
# in its size (2**16 masks already take seconds), so only SCCs of at most
# 2**SUBSET_CAP states are enumerated, whatever n is.
SUBSET_CAP = 4


class DimensionError(ValueError):
    """A state, fire set or set literal does not fit the network dimension."""


def parse_bits(text: str, n: int) -> int:
    """Parse an n-character 0/1 string, coordinate 1 leftmost."""
    # int() alone would also take "_", "+" and surrounding whitespace
    if len(text) != n or text.strip("01"):
        raise DimensionError(f"expected {n} bits, got {text!r}")
    return int(text, 2)


def format_bits(value: int, n: int) -> str:
    return format(value, f"0{n}b")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def check_state(value: int, n: int, what: str = "state") -> None:
    """The one rule for a state, fire set or table entry: an int in 0..2**n - 1."""
    if not isinstance(value, int):
        raise DimensionError(f"{what} {value!r} is not an int")
    if not 0 <= value < (1 << n):
        raise DimensionError(f"{what} {value} out of range for n={n}")


def _check_dimension(n: int) -> None:
    """The one rule for a dimension, shared by Network, Schedule and
    synchronous: an int, by check_state's rule, in 1..STEP_CAP."""
    if not isinstance(n, int):
        raise DimensionError(f"dimension {n!r} is not an int")
    if not 1 <= n <= STEP_CAP:
        raise DimensionError(f"dimension must be in 1..{STEP_CAP}, got {n}")


@dataclass(frozen=True)
class Network:
    """A total map from all 2**n states to states.

    The truth table is the canonical form; expression inputs are compiled
    down to it before anything else looks at the network.
    """

    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        _check_dimension(self.n)
        if len(self.table) != 1 << self.n:
            raise DimensionError(
                f"truth table must have {1 << self.n} rows, got {len(self.table)}"
            )
        # one bounds pass and one sum, an int only if every entry is; a
        # failure names the first entry that check_state refuses
        table = self.table
        try:
            valid = 0 <= min(table) and max(table) < len(table) and isinstance(sum(table), int)
        except TypeError:  # an entry such as "1" or None, which compares with no int
            valid = False
        if not valid:
            for entry in table:
                check_state(entry, self.n, "table entry")

    def __getstate__(self):
        # the fields only: graph.py keeps its transition graph and fair
        # subsets on the instance, and a pickle need not carry them
        return {"n": self.n, "table": self.table}

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[tuple[int, int]]) -> "Network":
        """Build from (state, image) pairs; every state must appear once."""
        table: list[int | None] = [None] * (1 << n)
        for mu, image in rows:
            check_state(mu, n)
            if table[mu] is not None:
                raise DimensionError(f"duplicate row for state {format_bits(mu, n)}")
            table[mu] = image
        missing = [i for i, row in enumerate(table) if row is None]
        if missing:
            raise DimensionError(f"missing state {format_bits(missing[0], n)}")
        return cls(n, tuple(table))  # type: ignore[arg-type]

    def states(self) -> range:
        return range(1 << self.n)


def apply_fire_set(net: Network, mu: int, nu: int) -> int:
    """One asynchronous step: compute coordinate i iff bit i of nu is set."""
    check_state(mu, net.n)
    check_state(nu, net.n, "fire set")
    return (mu & ~nu) | (net.table[mu] & nu)


def unstable_set(net: Network, mu: int) -> int:
    """Fire set of the coordinates that would change value at mu."""
    check_state(mu, net.n)
    return mu ^ net.table[mu]


def stable_set(net: Network, mu: int) -> int:
    return full_mask(net.n) & ~unstable_set(net, mu)


def fixed_points(net: Network) -> frozenset[int]:
    return frozenset(mu for mu in net.states() if net.table[mu] == mu)


def all_states(n: int) -> frozenset[int]:
    return frozenset(range(1 << n))
