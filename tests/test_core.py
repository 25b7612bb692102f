import pytest
from hypothesis import given
from hypothesis import strategies as st

from asyncbool import (
    DimensionError,
    Network,
    all_states,
    apply_fire_set,
    fixed_points,
    format_bits,
    full_mask,
    parse_bits,
    stable_set,
    unstable_set,
)


def test_parse_and_format_bits_roundtrip():
    for n in (1, 2, 3, 5):
        for value in range(1 << n):
            assert parse_bits(format_bits(value, n), n) == value


@given(st.text(alphabet="01 _+-2x", max_size=6), st.integers(1, 5))
def test_parse_bits_accepts_exactly_n_binary_digits(text, n):
    # int(text, 2) alone would also accept "_", "+" and whitespace
    if len(text) == n and set(text) <= {"0", "1"}:
        assert parse_bits(text, n) == int(text, 2)
    else:
        with pytest.raises(DimensionError):
            parse_bits(text, n)


def test_parse_bits_msb_is_coordinate_one():
    # "10" means coordinate 1 set, coordinate 2 clear
    assert parse_bits("10", 2) == 2
    assert parse_bits("01", 2) == 1


@pytest.mark.parametrize("bad", ["", "2", "0", "012", "1x"])
def test_parse_bits_rejects_wrong_width_or_alphabet(bad):
    with pytest.raises(DimensionError):
        parse_bits(bad, 3)


def test_network_validates_table_length():
    with pytest.raises(DimensionError):
        Network(2, (0, 1, 2))
    with pytest.raises(DimensionError):
        Network(2, (0, 1, 2, 4))  # entry out of range


@pytest.mark.parametrize(
    "table, first",
    [((0, -1, 2, 3), -1), ((3, 2, -5, 9), -5), ((0, 4, 2, 3), 4), ((3, 9, -2, 0), 9)],
    ids=["negative", "first-of-two-negative", "oversize", "first-of-two-oversize"],
)
def test_network_names_the_first_out_of_range_entry(table, first):
    # a table built directly through the API is fully validated, in one pass
    with pytest.raises(DimensionError) as exc:
        Network(2, table)
    assert str(exc.value) == f"table entry {first} out of range for n=2"


def test_network_from_rows_rejects_duplicates_and_gaps():
    with pytest.raises(DimensionError, match="duplicate"):
        Network.from_rows(1, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(DimensionError, match="missing"):
        Network.from_rows(1, [(1, 1)])


def test_apply_fire_set_updates_only_selected_coordinates(net1):
    # at 00 both coordinates want to flip to 1
    assert apply_fire_set(net1, 0b00, 0b10) == 0b10
    assert apply_fire_set(net1, 0b00, 0b01) == 0b01
    assert apply_fire_set(net1, 0b00, 0b11) == 0b11
    assert apply_fire_set(net1, 0b00, 0b00) == 0b00


def test_firing_stable_coordinate_is_noop(net1):
    # coordinate 2 of 01 is already at its image value? no: 01 -> 11, so
    # coordinate 2 stays 1; firing it changes nothing
    assert apply_fire_set(net1, 0b01, 0b01) == 0b01


def test_unstable_and_stable_partition(net1):
    for mu in net1.states():
        u, s = unstable_set(net1, mu), stable_set(net1, mu)
        assert u & s == 0
        assert u | s == full_mask(net1.n)


def test_net1_unstable_sets(net1):
    assert unstable_set(net1, 0b00) == 0b11
    assert unstable_set(net1, 0b10) == 0b00
    assert unstable_set(net1, 0b11) == 0b10


def test_fixed_points(net1, id2):
    assert fixed_points(net1) == {0b10}
    assert fixed_points(id2) == all_states(2)


def test_state_range_checked(net1):
    with pytest.raises(DimensionError):
        apply_fire_set(net1, 4, 0)
    with pytest.raises(DimensionError):
        apply_fire_set(net1, 0, 5)


@pytest.mark.parametrize("n", [2.0, "2"])
def test_dimension_that_is_not_an_int_refused(n):
    # 2.0 used to end in a TypeError from 1 << 2.0, and "2" in one from 1 <= "2"
    with pytest.raises(DimensionError, match=f"^dimension {n!r} is not an int$"):
        Network(n, (0, 1, 2, 3))
