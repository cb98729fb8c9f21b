"""Text codec: grammar examples, error positions and round trips."""
from __future__ import annotations

import enum
import pickle
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import codec_payloads, shaped_trees
from subtab import (
    Bin,
    ParseError,
    ShapeError,
    SizeLimit,
    TipS,
    TipZ,
    UNIT,
    choose,
    decode,
    encode,
    flatten,
    is_tree,
    map_tree,
    render_ascii,
    retabulate,
    size,
    validate_shape,
)
from subtab.bintree import MAX_DEPTH

# the most digits int() converts from a string; 0 where there is no limit
MAX_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
DIGIT_LIMIT = pytest.mark.skipif(not MAX_INT_DIGITS, reason="no limit on int() digits")
# one digit more than int() and str() convert
LONG_DIGITS = "9" * (MAX_INT_DIGITS + 1)


def _table_of_tables(*sequences: tuple) -> TipZ:
    """A one-tip table whose payload is a table with these tips, left to
    right: the codec reads and writes it with its integer-sequence memo."""
    inner = TipS(sequences[0])
    for sequence in sequences[1:]:
        inner = Bin(inner, TipZ(sequence))
    return TipZ(inner)


# A sequence repeated before a faulty one, in a table of tables, and the
# text of one whose third sequence holds an over-long integer at offset 30.
SHARED = (1, 2)
SHARED_LONG_TEXT = "Z(B(B(S([1,2]),Z([1,2])),Z([1," + LONG_DIGITS + "])))"


def test_encode_examples():
    assert encode(Bin(TipS("b"), TipZ("a"))) == 'B(S("b"),Z("a"))'
    assert encode(TipZ(UNIT)) == "Z(*)"
    assert encode(TipS(-12)) == "S(-12)"
    assert encode(TipZ(())) == "Z([])"
    assert encode(TipZ((1, "a", UNIT))) == 'Z([1,"a",*])'
    assert encode(TipS(TipZ(0))) == "S(Z(0))"


def test_encode_escapes_quotes_and_backslashes():
    assert encode(TipZ('a"b\\c')) == 'Z("a\\"b\\\\c")'


def test_encode_escapes_line_breaks():
    assert encode(TipZ("a\nb\r")) == 'Z("a\\nb\\r")'
    assert encode(TipZ("a\\nb")) == 'Z("a\\\\nb")'  # a backslash, then n


@pytest.mark.parametrize("s", ["a\nb", "x\r", "a\\nb", "\\r", '\r\n\\"'])
def test_strings_with_line_breaks_round_trip_on_one_line(s):
    text = encode(TipZ(s))
    assert "\n" not in text and "\r" not in text
    assert decode(text) == TipZ(s)


def test_decode_still_reads_raw_line_breaks():
    assert decode('Z("a\nb\r")') == TipZ("a\nb\r")


def test_render_ascii_prints_a_string_with_a_line_break_in_the_codec_form():
    t = choose(1, "a\nb")
    assert render_ascii(t) == '. . b\n    "\\n"\n  a'
    assert render_ascii(Bin(TipS("x\r"), TipZ("y"))) == '. "x\\r"\n  y'


@given(shaped_trees(max_n=6, payloads=codec_payloads | st.text('\n\r\\"a', max_size=6)))
def test_encode_writes_one_line_and_render_ascii_one_line_per_tip(case):
    _, _, t = case
    assert "\n" not in encode(t) and "\r" not in encode(t)
    picture = render_ascii(t)
    assert "\r" not in picture
    assert picture.count("\n") == len(flatten(t)) - 1


def test_encode_table_golden():
    assert (
        encode(choose(2, "abcd"))
        == 'B(B(S("cd"),B(S("bd"),Z("bc"))),B(B(S("ad"),Z("ac")),Z("ab")))'
    )


def test_encode_rejects_unsupported_payloads():
    for payload in [3.5, [1, 2], True, {"a": 1}, None, (1, True)]:
        with pytest.raises(TypeError):
            encode(TipZ(payload))


def test_decode_examples():
    assert decode("Z(*)") == TipZ(UNIT)
    assert decode('B(S("b"),Z("a"))') == Bin(TipS("b"), TipZ("a"))
    assert decode("S(-12)") == TipS(-12)
    assert decode("Z([])") == TipZ(())
    assert decode('Z([1,"a",*])') == TipZ((1, "a", UNIT))
    assert decode("S(Z(0))") == TipS(TipZ(0))
    assert decode('Z("")') == TipZ("")
    assert decode('Z("\\"\\\\")') == TipZ('"\\')


def test_decode_accepts_noncanonical_integers():
    assert decode("Z(007)") == TipZ(7)
    assert decode("Z(-0)") == TipZ(0)


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("X", 0),
        ("Z", 1),
        ("Z()", 2),
        ("Z(1", 3),
        ("Z(1)x", 4),
        ("Z(1) ", 4),
        ("B(Z(1)", 6),
        ("B(Z(1),Z(2)", 11),
        ("B(Z(1), Z(2))", 7),
        ("Z(--1)", 3),
        ('Z("ab)', 6),
        ('Z("a\\x")', 4),
        ("Z([1,])", 5),
        ("Z([)", 3),
        ("Z(\u00b2)", 2),
        ("Z(-\u00b2)", 3),
        ("Z(1\u00b2)", 3),
        ("Z(\uff11)", 2),
        ("Z(-)", 3),
        ('Z("a\\', 4),
        ("Z(*1)", 3),
        pytest.param(
            "Z(" + "9" * (MAX_INT_DIGITS + 1) + ")",
            2,
            marks=pytest.mark.skipif(not MAX_INT_DIGITS, reason="no limit on int() digits"),
            id="over-long-integer",
        ),
        ("Z([1,2)", 6),
        ("Z([1,2]", 7),
        ("Z([1,-])", 6),
        ("S([1,2]x", 7),
        ("Z([1,,2])", 5),
        pytest.param(
            "Z([1," + "9" * (MAX_INT_DIGITS + 1) + "])",
            5,
            marks=pytest.mark.skipif(not MAX_INT_DIGITS, reason="no limit on int() digits"),
            id="over-long-integer-in-a-sequence",
        ),
        pytest.param(SHARED_LONG_TEXT, 30, marks=DIGIT_LIMIT,
                     id="over-long-integer-after-shared-sequences"),
        # bodies the integer-tip match takes and int() refuses
        ("Z([1-2])", 4),
        ("Z([-])", 4),
        ("Z([1,2-])", 6),
        ("B(S([1,2]),Z([1--2]))", 15),
    ],
)
def test_decode_reports_the_offending_position(text, position):
    with pytest.raises(ParseError) as err:
        decode(text)
    assert err.value.position == position


def _tipz_chain(depth: int, leaf: object) -> TipZ:
    for _ in range(depth):
        leaf = TipZ(leaf)
    return leaf


def _branches_over(depth: int, left: object, right: object) -> Bin:
    """Bin(left, right) as the last of depth branches down a left spine,
    so its children stand depth levels deep."""
    t = Bin(left, right)
    for _ in range(depth - 1):
        t = Bin(t, TipZ(1))
    return t


# Each fault decode names, and which fault each reader and writer reports
# first where there are two.  At a tree position the depth bound wins over
# the character; at a payload position only an opener checks it.  The
# writers write the left side of a branch first.
FIRST_FAULTS = [
    pytest.param(decode, text, ParseError, f"{message} at position {position}", id=message)
    for text, message, position in [
        ("", "expected a tree", 0),
        ("x", "expected 'Z', 'S' or 'B'", 0),
        ("Z", "expected '('", 1),
        ("Z(1", "expected ')'", 3),
        ("B(Z(1)Z(2))", "expected ','", 6),
        ("Z([1,2)", "expected ']'", 6),
        ("Z(-)", "expected a digit", 3),
        ("Z(x)", "expected a payload", 2),
        ('Z("a', "unterminated string", 4),
        ('Z("a\\', "bad escape", 4),
        ("Z(1)x", "trailing input", 4),
        ("Z(" * 301 + "*" + ")" * 301, "nesting deeper than 300", 600),
    ]
] + [
    pytest.param(
        decode, "Z(" + "9" * (MAX_INT_DIGITS + 1) + ")", ParseError, "integer too long at position 2",
        marks=pytest.mark.skipif(not MAX_INT_DIGITS, reason="no limit on int() digits"),
        id="integer too long",
    ),
    pytest.param(decode, "B(" * 300 + "x", ParseError, "nesting deeper than 300 at position 600",
                 id="bound before a tree"),
    pytest.param(decode, "Z(" + "[" * 299 + "x", ParseError, "expected a payload at position 301",
                 id="payload before the bound"),
    pytest.param(decode, SHARED_LONG_TEXT, ParseError, "integer too long at position 30",
                 marks=DIGIT_LIMIT, id="integer too long after shared sequences"),
] + [
    pytest.param(write, tree, error, message, id=f"{write.__name__}-{name}")
    for write in (encode, render_ascii)
    for name, tree, error, message in [
        ("left first", Bin(TipZ(3.5), 5), TypeError, "no encoding for payload of type float"),
        ("non-node left", Bin(5, TipZ(3.5)), ShapeError, "not a tree"),
        ("non-node right", Bin(TipZ(1), 5), ShapeError, "not a tree"),
        ("int root", 5, ShapeError, "not a tree"),
        ("tuple root", (1, 2), ShapeError, "not a tree"),
        ("None root", None, ShapeError, "not a tree"),
        # a child one level short of the bound is checked for its class,
        # one at the bound is past it: the bound wins
        ("non-node left under 299 branches", _branches_over(299, 5, TipZ(1)),
         ShapeError, "not a tree"),
        ("non-node left under 300 branches", _branches_over(300, 5, TipZ(1)),
         SizeLimit, "nesting deeper than 300"),
        ("non-node right under 299 branches", _branches_over(299, TipZ(1), 5),
         ShapeError, "not a tree"),
        ("non-node right under 300 branches", _branches_over(300, TipZ(1), 5),
         SizeLimit, "nesting deeper than 300"),
        ("bound before payload", _tipz_chain(301, 3.5), SizeLimit, "nesting deeper than 300"),
        # (1, True) == (1, 1), which is written before it
        ("bool after shared sequences", _table_of_tables((1, 1), SHARED, (1, 1), SHARED, (1, True)),
         TypeError, "bool payloads have no default encoding"),
    ]
] + [
    pytest.param(write, _table_of_tables(SHARED, SHARED, (1, 10**MAX_INT_DIGITS)), SizeLimit,
                 "integer too long", marks=DIGIT_LIMIT,
                 id=f"{write.__name__}-integer too long after shared sequences")
    for write in (encode, render_ascii)
]


@pytest.mark.parametrize("call, subject, error, message", FIRST_FAULTS)
def test_each_fault_has_one_class_and_message(call, subject, error, message):
    with pytest.raises(error) as err:
        call(subject)
    assert err.type is error
    assert str(err.value) == message


# Text nesting d levels of one kind, and the offset of its level-d opener.
DEEP_TEXTS = {
    "tips": lambda d: ("Z(" * d + "*" + ")" * d, 2 * (d - 1)),
    "branches": lambda d: ("B(" * (d - 1) + "Z(*)" + ",Z(*))" * (d - 1), 2 * (d - 1)),
    "sequences": lambda d: ("Z(" + "[" * (d - 1) + "]" * (d - 1) + ")", d),
    "int-tips": lambda d: ("Z(" * (d - 1) + "[1,2]" + ")" * (d - 1), 2 * (d - 1)),
    # a table of tables whose sequence is read and written near the root
    # first, then again d levels down: the memo does not lift the bound
    "shared-int-tips": lambda d: (
        "Z(B(S([1,2])," + "Z(" * (d - 4) + "Z([1,2])" + ")" * (d - 4) + "))", 2 * d + 7
    ),
    # the same tip text again d levels down: a memo hit does not lift the bound
    "repeated-int-tip": lambda d: (
        "Z(B(Z([1,2])," + "Z(" * (d - 4) + "Z([1,2])" + ")" * (d - 4) + "))", 2 * d + 7
    ),
}
# One more level of the same kind around a tree, built by hand since
# decode returns nothing that deep.
DEEPER = {
    "tips": TipZ,
    "branches": lambda t: Bin(t, TipZ(UNIT)),
    "sequences": lambda t: TipZ((t.payload,)),
    "int-tips": TipZ,
    "shared-int-tips": lambda t: TipZ(Bin(t.payload.left, TipZ(t.payload.right))),
    "repeated-int-tip": lambda t: TipZ(Bin(t.payload.left, TipZ(t.payload.right))),
}


@pytest.mark.parametrize("kind", sorted(DEEP_TEXTS))
def test_decode_bounds_the_nesting_depth(kind):
    text, _ = DEEP_TEXTS[kind](MAX_DEPTH)
    at_bound = decode(text)
    assert encode(at_bound) == text
    render_ascii(at_bound)
    _, offset = DEEP_TEXTS[kind](MAX_DEPTH + 1)
    for depth in [MAX_DEPTH + 1, 5000]:
        with pytest.raises(ParseError) as err:
            decode(DEEP_TEXTS[kind](depth)[0])
        assert err.value.position == offset
    past_bound = deepest = DEEPER[kind](at_bound)
    for _ in range(5000 - MAX_DEPTH - 1):
        deepest = DEEPER[kind](deepest)
    for tree in (past_bound, deepest):
        for write in (encode, render_ascii):
            with pytest.raises(SizeLimit):
                write(tree)


@pytest.mark.skipif(not MAX_INT_DIGITS, reason="no limit on int() digits")
@pytest.mark.parametrize("shape", ["scalar", "int-sequence", "mixed-sequence"])
def test_encode_and_render_reject_over_long_integers(shape):
    big = 10**MAX_INT_DIGITS  # one digit more than str() converts
    payload = {"scalar": big, "int-sequence": (1, big), "mixed-sequence": ("a", big)}[shape]
    for write in (encode, render_ascii):
        with pytest.raises(SizeLimit):
            write(TipZ(payload))


class Eye(int):
    """An int whose str() is no integer text."""

    def __str__(self) -> str:
        return "eye"


class Colour(enum.IntEnum):
    A = 1
    B = 2


@pytest.mark.parametrize("number", [Eye(3), Colour.B], ids=["int-subclass", "IntEnum"])
@pytest.mark.parametrize("shape", ["scalar", "mixed-sequence", "table-of-tables"])
def test_int_subclasses_are_written_as_their_digits(number, shape):
    digits = f"{int(number)}"
    held = (1, number)  # after a shared sequence, and repeated
    payload, picture = {
        "scalar": (number, digits),
        "mixed-sequence": ((number, "x"), f'[{digits},"x"]'),
        "table-of-tables": (
            _table_of_tables(SHARED, SHARED, held, held).payload,
            f"B(B(B(S([1,2]),Z([1,2])),Z([1,{digits}])),Z([1,{digits}]))",
        ),
    }[shape]
    t = TipZ(payload)
    assert encode(t) == f"Z({picture})"
    assert decode(encode(t)) == t
    assert render_ascii(t) == picture


# choose(k, xs) with 0 < k < n nests n levels on its deepest path, n - 1
# branches and a tip, and one more for a tuple key's '['
@pytest.mark.parametrize("keys, largest", [("tuple", 299), ("str", 300)])
def test_sublist_tables_are_written_up_to_a_size_set_by_max_depth(keys, largest):
    assert largest == MAX_DEPTH - (keys == "tuple")
    source = (lambda n: tuple(range(n))) if keys == "tuple" else (lambda n: "a" * n)
    for k in (1, largest - 1):
        t = choose(k, source(largest))
        assert decode(encode(t)) == t
        render_ascii(t)
    for k in (1, largest):
        t = choose(k, source(largest + 1))
        for write in (encode, render_ascii):
            with pytest.raises(SizeLimit):
                write(t)


GRAMMAR_PIECES = ["Z(", "S(", "B(", ")", ",", "*", "-", "[", "]", '"', "\\", "0", "7", "\u00b2", "\uff11"]


@settings(max_examples=300)
@given(
    st.text(max_size=200)
    | st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=100).map("".join)
)
def test_decode_returns_a_tree_or_raises_parse_error(text):
    try:
        t = decode(text)
    except ParseError:
        return
    assert is_tree(t)


@given(shaped_trees(max_n=6, payloads=codec_payloads))
def test_round_trip(case):
    _, _, t = case
    assert decode(encode(t)) == t


def _sequence_tips(t):
    return [w for inner in flatten(t) for w in flatten(inner)]


def _tip_nodes(t):
    return _tip_nodes(t.left) + _tip_nodes(t.right) if isinstance(t, Bin) else [t]


def test_a_raised_table_decodes_to_shared_sequences():
    # each of the 1716 6-sublists of 13 elements is in 7 of the raised
    # table's entries, as retabulate shares it
    t = retabulate(13, 6, choose(6, tuple(range(13))))
    decoded = decode(encode(t))
    assert decoded == t
    tips = _sequence_tips(decoded)
    assert len(tips) == 12012
    assert len({id(w) for w in tips}) == 1716
    # equal tip texts decode to one node, and a Z and an S tip over one
    # sequence to two nodes that share its tuple
    nodes = [tip for inner in flatten(decoded) for tip in _tip_nodes(inner)]
    assert len(nodes) == 12012
    assert len({id(tip) for tip in nodes}) == 2639
    assert size(decoded) == size(t)
    assert hash(decoded) == hash(t)
    assert validate_shape(decoded, 13, 7)
    copied = pickle.loads(pickle.dumps(decoded))
    assert copied == t
    assert len({id(tip) for inner in flatten(copied) for tip in _tip_nodes(inner)}) == 2639
    # flat texts take no memo: each tip decodes to its own node, equal or not
    flat = decode(encode(choose(6, tuple(range(13)))))
    assert len({id(tip) for tip in _tip_nodes(flat)}) == 1716
    firsts = decode(encode(map_tree(lambda w: w[:1], choose(6, tuple(range(13))))))
    assert len({id(tip) for tip in _tip_nodes(firsts)}) == 1716


def test_shared_and_distinct_sequences_are_written_alike():
    t = retabulate(13, 6, choose(6, tuple(range(13))))
    unshared = map_tree(lambda inner: map_tree(lambda w: tuple(list(w)), inner), t)
    assert unshared == t
    assert len({id(w) for w in _sequence_tips(t)}) == 1716
    assert len({id(w) for w in _sequence_tips(unshared)}) == 12012
    assert encode(unshared) == encode(t)
    assert render_ascii(unshared) == render_ascii(t)


def test_round_trip_of_sublist_tables():
    for xs in ["abcd", (1, 2, 3, 4, 5)]:
        for k in range(len(xs) + 1):
            t = choose(k, xs)
            assert decode(encode(t)) == t


# flat tables of C(20, 10) and C(18, 9) tips, which the codec's memo skips
@pytest.mark.slow
@pytest.mark.parametrize("k, xs", [(10, "abcdefghijklmnopqrst"), (9, tuple(range(18)))],
                         ids=["str-20", "tuple-18"])
def test_round_trip_of_large_flat_tables(k, xs):
    t = choose(k, xs)
    assert decode(encode(t)) == t
    assert render_ascii(t).count("\n") == comb(len(xs), k) - 1  # a line per tip


def test_distinct_trees_encode_distinctly():
    trees = [
        TipZ(1),
        TipS(1),
        TipZ("1"),
        TipZ((1,)),
        TipZ(TipZ(1)),
        Bin(TipS(1), TipZ(1)),
    ]
    texts = {encode(t) for t in trees}
    assert len(texts) == len(trees)
