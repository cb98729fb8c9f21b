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
from typing import Callable, Generic, Iterator, TypeVar, Union

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
    """A level or size argument that is not an integer in its range.

    Levels run over 0..n (0..n-1 where a level above must exist), sizes
    over the naturals; floats, strings and None never pass, bools do.
    """


def _level(value: object, top: float) -> int:
    """value as an int in 0..top, else InvalidLevel: every level and size check."""
    try:
        k = operator.index(value)
    except TypeError:
        raise InvalidLevel(f"not an integer: {value!r}") from None
    if not 0 <= k <= top:
        raise InvalidLevel(f"{_digits(k)} is outside 0..{_digits(top)}")
    return k


def _guard(n: object, bound: int, what: str) -> int:
    """n as a size argument, or SizeLimit past bound: every element-count limit."""
    n = _level(n, math.inf)
    if n > bound:
        raise SizeLimit(f"{what} is limited to {bound} elements, got {_digits(n)}")
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
    hashed and printed by class and fields.

    Equality, hashing, repr and pickling walk an explicit stack, so they
    work on trees of any depth, payload trees included.
    """

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
        # pickle, copy and deepcopy take the flat post-order form, so they
        # do not recurse once per level
        return _from_post_order, (_post_order(self),)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            if isinstance(a, _Node) and a.__class__ is b.__class__:
                pending.extend(zip(reversed(a._fields()), reversed(b._fields())))
            elif not a == b:
                return False
        return True

    def __hash__(self) -> int:
        # each class has a fixed number of fields, so the preorder of
        # classes and payloads determines the tree
        return hash(tuple(x.__class__ if isinstance(x, _Node) else x for x in _preorder(self)))

    def __repr__(self) -> str:
        parts: list[str] = []
        labels: list[list[str]] = []  # for each open node, the labels still to print
        for x in _preorder(self):
            if labels:
                parts.append(labels[-1].pop())
            if isinstance(x, _Node):
                parts.append(f"{x.__class__.__qualname__}(")
                labels.append(list(x._labels))
                continue
            parts.append(repr(x))
            while labels and not labels[-1]:  # the node's last field is printed
                labels.pop()
                parts.append(")")
        return "".join(parts)


def _preorder(x: object) -> Iterator[object]:
    """x, then each node's fields in order below it, payload trees included."""
    pending = [x]
    while pending:
        x = pending.pop()
        yield x
        if isinstance(x, _Node):
            pending.extend(reversed(x._fields()))


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


def _post_order(root: _Node) -> list:
    """root's nodes, payload trees included, in post-order, as a list of ops.

    An op (p,) pushes p, a payload that is no node; a node class builds
    a node from the values last pushed; an int i pushes the i-th node
    built again, so a subtree shared within root is stored once.
    """
    ops: list = []
    built: dict[int, int] = {}  # id(node) -> its index among the nodes built
    pending: list[tuple[object, bool]] = [(root, False)]
    while pending:
        x, ready = pending.pop()
        if ready:
            built[id(x)] = len(built)
            ops.append(x.__class__)
        elif not isinstance(x, _Node):
            ops.append((x,))
        elif id(x) in built:
            ops.append(built[id(x)])
        else:
            pending.append((x, True))
            pending.extend((v, False) for v in reversed(x._fields()))
    return ops


def _from_post_order(ops: list) -> _Node:
    """The tree that _post_order took apart."""
    stack: list = []
    nodes: list[_Node] = []
    for op in ops:
        if op.__class__ is tuple:
            stack.append(op[0])
        elif op.__class__ is int:
            stack.append(nodes[op])
        else:
            arity = len(op.__match_args__)
            nodes.append(op(*stack[-arity:]))
            stack[-arity:] = nodes[-1:]
    return stack[0]


def is_tree(x: object) -> bool:
    return x.__class__ in _NODES


def validate_shape(t: Tree[P], n: int, k: int) -> bool:
    """Total check that t is well-formed for shape (n, k); False for non-integer n or k."""
    try:
        n = _level(n, math.inf)
        k = _level(k, n)
    except InvalidLevel:  # not an integer, or out of range however long
        return False
    # children of a valid branch keep 0 <= k <= n, so one check suffices
    pending = [(t, n, k)]
    while pending:
        t, n, k = pending.pop()
        if k == 0 or k == n:
            if not isinstance(t, TipS if k else TipZ):
                return False
        elif isinstance(t, Bin):
            pending.append((t.left, n - 1, k))
            pending.append((t.right, n - 1, k - 1))
        else:
            return False
    return True


def size(t: Tree[P]) -> int:
    """Number of payloads; C(n, k) for a tree valid at (n, k)."""
    return len(flatten(t))


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
# No whitespace is emitted and none is accepted.  Inside strings only '"'
# and '\' are escaped, with a backslash.  Sequence payloads decode to
# tuples; '[]' is the empty sequence.
#
# A tip holding a flat integer sequence, as every table over a numeric
# source does, is read with one match and written with one join.  In a
# table of tables, as retabulate builds, the n - k tables above an entry
# share its sequence: there one call writes each tuple of exact ints once,
# keyed by id (the tree keeps it alive; (True, 2) equals (1, 2)), and reads
# each digit body once, so equal tips share one tuple.  Flat tables take no memo.
#
# Each 'Z(', 'S(', 'B(' and '[' opens one nesting level.  The reader and
# the writer take depth, the number of levels open around the call, and
# each opener raises at depth >= MAX_DEPTH: decode a ParseError at it,
# encode and render_ascii SizeLimit, so deep input never exhausts the
# interpreter stack.  At a tree position, the root or a branch's child,
# the bound is checked before the node class.

MAX_DEPTH = 300
_NODES = (Bin, TipZ, TipS)
_TOO_DEEP = f"nesting deeper than {MAX_DEPTH}"

# A scalar payload: '*', an ASCII integer, or a string with its body in
# group 1, and group 2 empty when it stops short of its closing quote.
_SCALAR = re.compile(r'\*|-?[0-9]+|"([^"\\]*(?:\\["\\][^"\\]*)*)("?)')
_ESCAPE = re.compile(r'\\(["\\])')
# A tip with a flat integer sequence as its payload, the items in group 1.
_INT_TIP = re.compile(r"[ZS]\(\[(-?[0-9]+(?:,-?[0-9]+)*)\]\)")
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
    """Render t in the single-line text form.

    Payloads may be unit, int, str, tuple or nested trees.
    """
    if t.__class__ not in _NODES:
        raise ShapeError("not a tree")
    parts: list[str] = []
    _write(t, parts, 0, _memo(t))
    return "".join(parts)


def _write(p: object, parts: list[str], depth: int, memo: dict | None) -> None:
    """Append payload p, a node or a scalar or a sequence; depth counts the
    levels open around it, and memo, if any, maps id(tuple) to its text."""
    cls = p.__class__
    if cls is Bin:
        if depth >= MAX_DEPTH:
            raise SizeLimit(_TOO_DEEP)
        depth += 1
        parts.append("B(")
        # a branch's children are trees: past the bound, the bound wins
        child = p.left
        if child.__class__ not in _NODES:
            raise SizeLimit(_TOO_DEEP) if depth >= MAX_DEPTH else ShapeError("not a tree")
        _write(child, parts, depth, memo)
        parts.append(",")
        child = p.right
        if child.__class__ not in _NODES:
            raise SizeLimit(_TOO_DEEP) if depth >= MAX_DEPTH else ShapeError("not a tree")
        _write(child, parts, depth, memo)
        parts.append(")")
    elif cls is TipZ or cls is TipS:
        if depth >= MAX_DEPTH:
            raise SizeLimit(_TOO_DEEP)
        parts.append("Z(" if cls is TipZ else "S(")
        _write(p.payload, parts, depth + 1, memo)
        parts.append(")")
    elif isinstance(p, tuple):
        if depth >= MAX_DEPTH:
            raise SizeLimit(_TOO_DEEP)
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
            _write(item, parts, depth + 1, memo)
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
        parts.append('"' + p.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise TypeError(f"no encoding for payload of type {type(p).__name__}")


def decode(text: str) -> Tree:
    """Parse the text form back into a tree.

    Raises ParseError with the offending offset on malformed input,
    including trailing characters and nesting deeper than MAX_DEPTH.
    """
    t, pos = _read(text, 0, 0, True, {} if _NESTED.match(text) else None)
    if pos != len(text):
        raise ParseError("trailing input", pos)
    return t


def _read(s: str, i: int, depth: int, tree: bool, memo: dict | None) -> tuple[object, int]:
    """Read the payload at s[i], a tree where tree is set, and the offset
    past it; depth counts the levels open around it, and memo, if any,
    maps an integer tip's digit body to its tuple."""
    c = s[i : i + 1]
    if tree or c in ("Z", "S", "B", "["):
        if not c:
            raise ParseError("expected a tree", i)
        if depth >= MAX_DEPTH:
            raise ParseError(_TOO_DEEP, i)
        if c == "Z" or c == "S":
            if depth + 1 < MAX_DEPTH and (tip := _INT_TIP.match(s, i)):
                body = tip[1]
                try:  # a memo holds no empty tuple, so a hit is true
                    items = memo is not None and memo.get(body) or tuple(map(int, body.split(",")))
                except ValueError:  # an integer too long: the general path places it
                    pass
                else:
                    if memo is not None:
                        memo[body] = items
                    return (TipZ if c == "Z" else TipS)(items), tip.end()
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
    return _ESCAPE.sub(r"\1", scalar.group(1)), end


def _expect(s: str, i: int, ch: str) -> int:
    if i >= len(s) or s[i] != ch:
        raise ParseError(f"expected {ch!r}", i)
    return i + 1


# --- ascii rendering --------------------------------------------------------


def render_ascii(t: Tree[P]) -> str:
    """Indented multi-line picture of a tree.

    A branch prints '. ' followed by its left subtree, with the right
    subtree below it, both indented two columns.  Tips print just their
    payload, which is assumed to render on one line.  Strings render bare;
    other payloads fall back to the codec form.
    """
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
    elif isinstance(t.payload, str):
        lines.append(first + t.payload)
    else:
        parts = [first]
        _write(t.payload, parts, depth + 1, memo)
        lines.append("".join(parts))
