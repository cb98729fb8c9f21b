"""Binomial-shaped binary trees.

A tree of shape (n, k) holds one payload for each k-element sublist of an
n-element source, so a valid tree has exactly C(n, k) payloads.  The shape
rules force the constructor skeleton:

    k = 0          TipZ(p)        the single empty sublist
    k = n, k >= 1  TipS(p)        the single full sublist
    0 < k < n      Bin(t, u)      t valid at (n-1, k), u valid at (n-1, k-1)

Nothing validates at k > n.  Trees are immutable and compare structurally.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import FrozenInstanceError
from typing import Callable, Generic, TypeVar, Union

P = TypeVar("P")
Q = TypeVar("Q")
R = TypeVar("R")


class ShapeError(ValueError):
    """Not a tree of the shape needed: a non-tree, a tree invalid at the
    stated (n, k), skeletons that differ, or a branch where a tip must be."""


class ParseError(ValueError):
    """Malformed tree text.  `position` is a 0-based offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class SizeLimit(ValueError):
    """Input is larger than the operation's documented bound."""


class UnknownName(ValueError):
    """A problem, driver or cost kind looked up by a name that has none."""


class InvalidLevel(ValueError):
    """A level or size argument that is not an integer in its range: levels
    run over 0..n (0..n-1 where a level above must exist), sizes over the
    naturals; floats, strings and None never pass, bools do."""


def _level(value: object, top: float) -> int:
    """value as an int in 0..top, else InvalidLevel: every level and size check."""
    try:
        k = operator.index(value)
    except TypeError:
        raise InvalidLevel(f"not an integer: {value!r}") from None
    if not 0 <= k <= top:
        raise InvalidLevel(f"{_digits(k)} is outside 0..{_digits(top)}")
    return k


def _guard(n: object, bound: int, what: str, unit: str = "elements") -> int:
    """n as a size argument, or SizeLimit past bound: every size and work limit."""
    n = _level(n, math.inf)
    if n > bound:
        raise SizeLimit(f"{what} is limited to {bound} {unit}, got {_digits(n)}")
    return n


def _digits(k: float) -> str:
    """str(k) for a message, or k's bit length where str() refuses its digits."""
    try:
        return str(k)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"a {'negative ' * (k < 0)}{k.bit_length()}-bit integer"


class _Unit:
    """Type of UNIT, the placeholder payload of blank tables; the codec spells it '*'."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "unit"

    def __reduce__(self) -> str:
        return "UNIT"  # pickle and copy give back the module's one instance


UNIT = _Unit()


class _Node:
    """Base of the three node classes: final, frozen, slotted, and compared,
    hashed and printed by class and fields, payload trees included, without
    recursion; hashing and pickling take each distinct node once (_fold)."""

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def __init_subclass__(cls, **kwargs: object) -> None:
        # TipZ, TipS and Bin are final: the tree walks test exact classes
        if any(base is not _Node and issubclass(base, _Node) for base in cls.__bases__):
            raise TypeError(f"tree node classes cannot be subclassed: {cls.__name__}")
        super().__init_subclass__(**kwargs)
        names = cls.__match_args__  # _labels: what __repr__ prints before each field, last first
        cls._labels = (*(f", {name}=" for name in reversed(names[1:])), f"{names[0]}=")

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[Callable, tuple]:
        # pickle, copy and deepcopy take one (class, *fields) per distinct
        # node, children first, so sharing survives; a field is (p,) for a
        # payload p that is no tree, or the index of a node listed before
        ops: list[tuple] = []

        def build(x: _Node, *fields: object) -> int:
            ops.append((x.__class__, *fields))
            return len(ops) - 1

        _fold(self, lambda p: (p,), build)
        return _from_post_order, (ops,)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        expanded, walked = set(), 0  # id(a) << 64 | id(b) for pairs of nodes expanded
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            if isinstance(a, _Node) and a.__class__ is b.__class__:
                walked += 1
                if walked > 1 << 16:  # shorter walks record none; self and other keep ids alive
                    if id(a) << 64 | id(b) in expanded:
                        continue
                    expanded.add(id(a) << 64 | id(b))
                pending.extend(zip(reversed(a._fields()), reversed(b._fields())))
            elif not a == b:
                return False
        return True

    def __hash__(self) -> int:
        return _fold(self, hash, lambda x, *hashes: hash((x.__class__, *hashes)))

    def __repr__(self) -> str:
        parts: list[str] = []
        labels: list[list[str]] = []  # for each open node, the labels still to print
        pending: list = [self]  # the full expansion, payload trees included, in preorder
        while pending:
            x = pending.pop()
            if labels:
                parts.append(labels[-1].pop())
            if isinstance(x, _Node):
                parts.append(f"{x.__class__.__qualname__}(")
                labels.append(list(x._labels))
                pending.extend(reversed(x._fields()))
                continue
            parts.append(repr(x))
            while labels and not labels[-1]:  # the node's last field is printed
                labels.pop()
                parts.append(")")
        return "".join(parts)


class TipZ(_Node, Generic[P]):
    """Tip of a (n, 0) tree: payload for the empty sublist."""

    __slots__ = ("payload",)
    __match_args__ = ("payload",)
    payload: P

    def __init__(self, payload: P) -> None:
        _set_tipz(self, payload)


class TipS(_Node, Generic[P]):
    """Tip of a (n, n) tree with n >= 1: payload for the full sublist."""

    __slots__ = ("payload",)
    __match_args__ = ("payload",)
    payload: P

    def __init__(self, payload: P) -> None:
        _set_tips(self, payload)


class Bin(_Node, Generic[P]):
    """Branch of a (n, k) tree with 0 < k < n."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    left: "Tree[P]"
    right: "Tree[P]"

    def __init__(self, left: "Tree[P]", right: "Tree[P]") -> None:
        _set_left(self, left)
        _set_right(self, right)


# __init__ stores through the slot descriptors, bypassing the frozen __setattr__
_set_tipz = TipZ.payload.__set__
_set_tips = TipS.payload.__set__
_set_left = Bin.left.__set__
_set_right = Bin.right.__set__

Tree = Union[TipZ[P], TipS[P], Bin[P]]


_NODES = (Bin, TipZ, TipS)
_FOLDED = object()  # on _fold's stack, above a node whose trees are all folded


def _fold(root: _Node, leaf: Callable[[object], R], node: Callable[..., R]) -> R | None:
    """node(x, *results) for each distinct node x under root, payload trees
    included, children first, where a field of x gives its tree's result or,
    if it is no tree, leaf(field); root's result, None if root is no tree.
    Results are keyed by id, as root keeps every node alive."""
    done: dict[int, R] = {}
    pending: list = [root]
    while pending:
        x = pending.pop()
        if x is _FOLDED:
            x = pending.pop()
            if x.__class__ is not Bin:  # a tip whose payload is a tree
                done[id(x)] = node(x, done[id(x.payload)])
                continue
            left, right = x.left, x.right
            done[id(x)] = node(x, done[id(left)] if left.__class__ in _NODES else leaf(left),
                               done[id(right)] if right.__class__ in _NODES else leaf(right))
        elif id(x) in done:
            continue
        elif x.__class__ is Bin:
            pending += (x, _FOLDED, x.right, x.left)
        elif x.__class__ is not TipZ and x.__class__ is not TipS:
            continue  # no tree: its parent passes it to leaf
        elif x.payload.__class__ in _NODES:
            pending += (x, _FOLDED, x.payload)
        else:
            done[id(x)] = node(x, leaf(x.payload))
    return done.get(id(root))


def _from_post_order(ops: list[tuple]) -> _Node:
    """The tree whose nodes __reduce__ listed."""
    nodes: list[_Node] = []
    for cls, *fields in ops:
        nodes.append(cls(*[nodes[v] if v.__class__ is int else v[0] for v in fields]))
    return nodes[-1]


def is_tree(x: object) -> bool:
    return x.__class__ in _NODES


def validate_shape(t: Tree[P], n: int, k: int) -> bool:
    """Total check that t is well-formed for shape (n, k); False for
    non-integer n or k.  Each distinct node is checked once."""
    try:
        n = _level(n, math.inf)
        k = _level(k, n)
    except InvalidLevel:  # not an integer, or out of range however long
        return False
    shape = _fold(t, lambda p: None, _shape)
    return shape == ((n, k) if 0 < k < n else "Z" if k == 0 else "S")


def _shape(x: Tree, left: object, right: object = None) -> object:
    """The one (n, k) at which x is valid, given its children's shapes: "Z"
    for TipZ, valid at every (m, 0), "S" for TipS, at every (m, m) with
    m >= 1, and None where x is valid nowhere."""
    if x.__class__ is not Bin:
        return "Z" if x.__class__ is TipZ else "S"
    if left.__class__ is tuple:  # (n + 1, k), with right valid at (n, k - 1)
        n, k = left
        return (n + 1, k) if right == ("Z" if k == 1 else (n, k - 1)) else None
    if left == "S" and right == "Z":  # (m + 1, m), with right valid at (m, m - 1)
        return 2, 1
    if left == "S" and right.__class__ is tuple and right[0] == right[1] + 1:
        return right[0] + 1, right[0]
    return None


def size(t: Tree[P]) -> int:
    """Number of payloads; C(n, k) for a tree valid at (n, k).  Each distinct
    node is counted once, so a shared table costs its nodes, not its payloads."""
    count = _fold(t, lambda p: None, lambda x, left, right=0: 1 if x.__class__ is not Bin
                  else None if None in (left, right) else left + right)
    if count is None:
        raise ShapeError("not a tree")
    return count


def map_tree(f: Callable[[P], Q], t: Tree[P]) -> Tree[Q]:
    """Apply f to every payload, preserving the skeleton."""
    return zip_with(lambda p, _: f(p), t, t)


def zip_with(f: Callable[[P, Q], R], t: Tree[P], u: Tree[Q]) -> Tree[R]:
    """Combine two trees with identical skeletons payload by payload, in
    flatten order, looping down each left spine: no recursion."""
    done, todo = [], [(t, u)]
    while todo:
        item = todo.pop()
        if item is None:  # the last two built are the subtrees of a Bin
            done.append(Bin(done.pop(-2), done.pop()))
            continue
        t, u = item
        while t.__class__ is Bin and u.__class__ is Bin:
            todo += (None, (t.right, u.right))
            t, u = t.left, u.left
        if t.__class__ is not u.__class__ or not (t.__class__ is TipZ or t.__class__ is TipS):
            raise ShapeError(f"not a tree: {type(t).__name__}" if t is u  # as under map_tree
                             else f"cannot zip {type(t).__name__} with {type(u).__name__}")
        done.append(t.__class__(f(t.payload, u.payload)))
    return done[0]


def un_tip(t: Tree[P]) -> P:
    """Payload of a tip; the inverse of TipZ/TipS construction."""
    if isinstance(t, (TipZ, TipS)):
        return t.payload
    raise ShapeError(f"not a tip: {type(t).__name__}")


def flatten(t: Tree[P]) -> tuple[P, ...]:
    """All payloads in left-to-right order."""
    acc: list[P] = []
    pending = [t]
    while pending:
        t = pending.pop()
        while t.__class__ is Bin:
            pending.append(t.right)
            t = t.left
        if t.__class__ is not TipZ and t.__class__ is not TipS:
            raise ShapeError("not a tree")
        acc.append(t.payload)
    return tuple(acc)


# --- text codec ------------------------------------------------------------
#
# tree    ::= 'Z(' payload ')' | 'S(' payload ')' | 'B(' tree ',' tree ')'
# payload ::= '*' | '-'? digit+ | '"' chars '"' | '[' [payload (',' payload)*] ']'
#           | tree
#
# No whitespace is emitted and none is accepted.  Inside strings only '"',
# '\', and the line breaks LF and CR, written '\n' and '\r', are escaped,
# with a backslash, so the text is one line; a raw line break still reads.
# Sequence payloads decode to tuples; '[]' is the empty sequence.
#
# A tip holding a flat integer sequence, as every table over a numeric
# source does, is read with one match and written with one join.  In a
# table of tables, as retabulate builds, the n - k tables above an entry
# share its sequence: there one call writes each tuple of exact ints once,
# keyed by id (the tree keeps it alive; (True, 2) equals (1, 2)), and reads
# each tip text once, so equal tips decode to one node, and a Z and an S tip
# with one body share its tuple.  Flat tables take no memo.
#
# Each 'Z(', 'S(', 'B(' and '[' opens one nesting level.  The reader and the
# writer take depth, the levels open around the call, and whether a tree must
# stand there; an opener or a tree position at depth >= MAX_DEPTH raises (decode
# ParseError, encode and render_ascii SizeLimit) before the class is checked.

MAX_DEPTH = 300
_TOO_DEEP = f"nesting deeper than {MAX_DEPTH}"

# A scalar payload: '*', an ASCII integer, or a string with its body in
# group 1, and group 2 empty when it stops short of its closing quote.
_SCALAR = re.compile(r'\*|-?[0-9]+|"([^"\\]*(?:\\["\\nr][^"\\]*)*)("?)')
_ESCAPE = re.compile(r'\\(["\\nr])')
_UNESCAPED = {'"': '"', "\\": "\\", "n": "\n", "r": "\r"}  # by the character after '\'
# A tip that may hold a flat integer sequence, its items in group 1; int()
# refuses a malformed body, which the general path then reads and places.
_INT_TIP = re.compile(r"[ZS]\(\[([-0-9,]+)\]\)")
# Text whose first tip holds a tree: a table of tables.
_NESTED = re.compile(r"(?:B\()*[ZS]\([BZS]\(")


def _memo(t: object) -> dict | None:
    """A memo for one writer call where t's first tip holds a tree, else
    None; looks no deeper than the writers do, and never raises."""
    for _ in range(MAX_DEPTH):
        if t.__class__ is not Bin:
            break
        t = getattr(t, "left", None)
    tip = t.__class__ is TipZ or t.__class__ is TipS
    return {} if tip and getattr(t, "payload", None).__class__ in _NODES else None


def encode(t: Tree[P]) -> str:
    """Render t in the single-line text form; payloads may be unit, int,
    str, tuple or nested trees."""
    parts: list[str] = []
    _write(t, parts, 0, True, _memo(t))
    return "".join(parts)


def _write(p: object, parts: list[str], depth: int, tree: bool, memo: dict | None) -> None:
    """Append payload p, which must be a tree where tree is set; depth counts
    the levels open around it, and memo, if any, maps id(tuple) to its text."""
    cls = p.__class__
    if depth >= MAX_DEPTH and (tree or cls in _NODES or isinstance(p, tuple)):
        raise SizeLimit(_TOO_DEEP)
    if tree and cls not in _NODES:
        raise ShapeError("not a tree")
    if cls is Bin:
        parts.append("B(")
        _write(p.left, parts, depth + 1, True, memo)
        parts.append(",")
        _write(p.right, parts, depth + 1, True, memo)
        parts.append(")")
    elif cls is TipZ or cls is TipS:
        parts.append("Z(" if cls is TipZ else "S(")
        _write(p.payload, parts, depth + 1, False, memo)
        parts.append(")")
    elif isinstance(p, tuple):
        if memo and (text := memo.get(id(p))):  # a memo holds no empty text
            parts.append(text)
            return
        if {int}.issuperset(map(type, p)):  # exact ints: no bool, no subclass
            try:
                text = "[" + ",".join(map(str, p)) + "]"
            except ValueError:  # more digits than the interpreter converts
                raise SizeLimit("integer too long") from None
            if memo is not None and cls is tuple:
                memo[id(p)] = text
            parts.append(text)
            return
        parts.append("[")
        for i, item in enumerate(p):
            if i:
                parts.append(",")
            _write(item, parts, depth + 1, False, memo)
        parts.append("]")
    elif p is UNIT:
        parts.append("*")
    elif isinstance(p, bool):
        raise TypeError("bool payloads have no default encoding")
    elif isinstance(p, int):
        try:
            parts.append(int.__repr__(p))  # an int subclass's str() may not be digits
        except ValueError:  # more digits than the interpreter converts
            raise SizeLimit("integer too long") from None
    elif isinstance(p, str):
        p = p.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")
        parts.append('"' + p + '"')
    else:
        raise TypeError(f"no encoding for payload of type {type(p).__name__}")


def decode(text: str) -> Tree:
    """Parse the text form back into a tree; ParseError with the offending
    offset on malformed input, trailing characters included.  In a table of
    tables, equal integer tips decode to one shared node."""
    t, pos = _read(text, 0, 0, True, {} if _NESTED.match(text) else None)
    if pos != len(text):
        raise ParseError("trailing input", pos)
    return t


def _read(s: str, i: int, depth: int, tree: bool, memo: dict | None) -> tuple[object, int]:
    """Read the payload at s[i], a tree where tree is set, and the offset
    past it; depth counts the levels open around it, and memo, if any,
    maps an integer tip's text, such as 'S([1,2])', to its node."""
    c = s[i : i + 1]
    if tree or c in ("Z", "S", "B", "["):
        if not c:
            raise ParseError("expected a tree", i)
        if depth >= MAX_DEPTH:
            raise ParseError(_TOO_DEEP, i)
        if c == "Z" or c == "S":
            if depth + 1 < MAX_DEPTH and (tip := _INT_TIP.match(s, i)):
                key = tip[0]
                if memo and (node := memo.get(key)):
                    return node, tip.end()
                # the other letter's twin, if read, holds the same tuple
                twin = memo and memo.get(("S" if c == "Z" else "Z") + key[1:])
                try:
                    items = twin.payload if twin else tuple(map(int, tip[1].split(",")))
                except ValueError:  # a malformed or over-long integer: the general path places it
                    pass
                else:
                    node = (TipZ if c == "Z" else TipS)(items)
                    if memo is not None:
                        memo[key] = node
                    return node, tip.end()
            payload, i = _read(s, _expect(s, i + 1, "("), depth + 1, False, memo)
            return (TipZ(payload) if c == "Z" else TipS(payload)), _expect(s, i, ")")
        if c == "B":
            left, i = _read(s, _expect(s, i + 1, "("), depth + 1, True, memo)
            right, i = _read(s, _expect(s, i, ","), depth + 1, True, memo)
            return Bin(left, right), _expect(s, i, ")")
        if tree:
            raise ParseError("expected 'Z', 'S' or 'B'", i)
        items = []
        while True:
            i += 1  # past '[' or ','
            if not items and s[i : i + 1] == "]":
                return (), i + 1
            item, i = _read(s, i, depth + 1, False, memo)
            items.append(item)
            if s[i : i + 1] != ",":
                return tuple(items), _expect(s, i, "]")
    scalar = _SCALAR.match(s, i)
    if scalar is None:
        if c == "-":
            raise ParseError("expected a digit", i + 1)
        raise ParseError("expected a payload", i)
    token, end = scalar.group(), scalar.end()
    if token == "*":
        return UNIT, end
    if token[0] != '"':
        try:
            return int(token), end
        except ValueError:  # more digits than the interpreter converts
            raise ParseError("integer too long", i) from None
    if not scalar.group(2):
        raise ParseError("unterminated string" if end == len(s) else "bad escape", end)
    return _ESCAPE.sub(lambda escape: _UNESCAPED[escape[1]], scalar.group(1)), end


def _expect(s: str, i: int, ch: str) -> int:
    if i >= len(s) or s[i] != ch:
        raise ParseError(f"expected {ch!r}", i)
    return i + 1


# --- ascii rendering --------------------------------------------------------


def render_ascii(t: Tree[P]) -> str:
    """Indented multi-line picture of a tree: a branch prints '. ' and its
    left subtree, with the right subtree below it, both indented two
    columns; a tip prints its payload on one line, a string with no line
    break bare and others in the codec form."""
    lines: list[str] = []
    _ascii_into(t, "", "", lines, 0, _memo(t))
    return "\n".join(lines)


def _ascii_into(t: Tree, first: str, rest: str, lines: list[str], depth: int,
                memo: dict | None) -> None:
    """Append t's lines, the first prefixed with first, the others with rest;
    depth counts the levels open around t; memo is _write's."""
    if depth >= MAX_DEPTH:
        raise SizeLimit(_TOO_DEEP)
    cls = t.__class__
    if cls is Bin:
        indent = rest + "  "
        _ascii_into(t.left, first + ". ", indent, lines, depth + 1, memo)
        _ascii_into(t.right, indent, indent, lines, depth + 1, memo)
    elif cls is not TipZ and cls is not TipS:
        raise ShapeError("not a tree")
    elif isinstance(t.payload, str) and "\n" not in t.payload and "\r" not in t.payload:
        lines.append(first + t.payload)
    else:
        parts = [first]
        _write(t.payload, parts, depth + 1, False, memo)
        lines.append("".join(parts))
