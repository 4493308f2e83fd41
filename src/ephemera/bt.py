"""Behavior trees: node types, the text grammar, tick semantics, and the
canonical agent-tree shape with graft/prune editing of skill subtrees.

graft and prune are the paper's representation of learning and forgetting.
A canonical tree is a pure function of its skill set, so the simulation
does not edit trees: an agent's tree is derived from its knowledge store.

Canonical grammar (serialize emits exactly this, parse also tolerates ASCII
spaces between tokens)::

    node   := "sel(" list ")" | "seq(" list ")" | "cond(" pred ")" | "act(" action ")"
    list   := node ("," node)*
    pred   := "SeeTarget:" color | "SeeUnknownTarget"
    action := "Collect:" color | "Query" | "Explore"
    color  := "Red" | "Green" | "Yellow" | "Blue"

serialize and parse read one table of the grammar's words (``_GRAMMAR``):
a leaf is spelled by its type name, and a color by its label, the member
name in title case.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from itertools import groupby
from typing import Any, Iterable, Union


class Color(IntEnum):
    """Target colors in canonical order: Red < Green < Yellow < Blue."""

    RED = 0
    GREEN = 1
    YELLOW = 2
    BLUE = 3

    @property
    def label(self) -> str:
        return self.name.title()


COLORS: tuple[Color, ...] = tuple(Color)

_COLOR_BY_LABEL = {color.label: color for color in COLORS}


def color_from_label(label: str) -> Color:
    try:
        return _COLOR_BY_LABEL[label]
    except KeyError:
        raise ValueError(f"unknown color name: {label!r}") from None


# --- node types -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SeeTarget:
    color: Color


@dataclass(frozen=True, slots=True)
class SeeUnknownTarget:
    pass


Predicate = Union[SeeTarget, SeeUnknownTarget]


@dataclass(frozen=True, slots=True)
class Collect:
    color: Color


@dataclass(frozen=True, slots=True)
class Query:
    pass


@dataclass(frozen=True, slots=True)
class Explore:
    pass


ActionKind = Union[Collect, Query, Explore]


@dataclass(frozen=True, slots=True)
class Condition:
    pred: Predicate


@dataclass(frozen=True, slots=True)
class Action:
    kind: ActionKind


@dataclass(frozen=True, slots=True)
class _Composite:
    children: tuple["BTNode", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("composite node needs at least one child")


@dataclass(frozen=True, slots=True)
class Selector(_Composite):
    """Prioritized fallback: succeeds at the first child that succeeds."""


@dataclass(frozen=True, slots=True)
class Sequence(_Composite):
    """Runs children in order: fails at the first child that fails."""


BTNode = Union[Selector, Sequence, Condition, Action]


class TickStatus(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


_SUCCESS = TickStatus.SUCCESS
_FAILURE = TickStatus.FAILURE


@dataclass(slots=True)
class Blackboard:
    """Per-tick scratch state.

    ``perception`` must expose ``sees(color) -> bool``; ``known_colors`` is the
    agent's current skill set. Actions post their kind to ``intent``; the
    first writer wins within a tick.
    """

    perception: Any
    known_colors: tuple[Color, ...]
    intent: ActionKind | None = None


def tick(node: BTNode, bb: Blackboard) -> TickStatus:
    """One memoryless root-to-leaf evaluation pass.

    There is no Running status: actions post an intent and report SUCCESS,
    so every iteration re-evaluates from the root.
    """
    kind = type(node)
    if kind is Selector:
        for child in node.children:
            if tick(child, bb) is _SUCCESS:
                return _SUCCESS
        return _FAILURE
    if kind is Sequence:
        for child in node.children:
            if tick(child, bb) is _FAILURE:
                return _FAILURE
        return _SUCCESS
    if kind is Condition:
        pred = node.pred
        if type(pred) is SeeTarget:
            return _SUCCESS if bb.perception.sees(pred.color) else _FAILURE
        known = bb.known_colors
        for color in COLORS:
            if color not in known and bb.perception.sees(color):
                return _SUCCESS
        return _FAILURE
    # Action leaf: first posted intent wins.
    if bb.intent is None:
        bb.intent = node.kind
    return _SUCCESS


# --- serialization ----------------------------------------------------------

# The grammar's words: each node word, its node type, and the leaf types a
# leaf node wraps, by type name. A leaf with a color field is written
# "Name:Color".
_GRAMMAR = {
    word: (node_type, {leaf.__name__: leaf for leaf in leaves})
    for word, node_type, *leaves in (
        ("sel", Selector),
        ("seq", Sequence),
        ("cond", Condition, SeeTarget, SeeUnknownTarget),
        ("act", Action, Collect, Query, Explore),
    )
}
_WORD_OF = {node_type: word for word, (node_type, _) in _GRAMMAR.items()}


def serialize(node: BTNode) -> str:
    """Canonical text form: no whitespace, children comma-separated."""
    word = _WORD_OF[type(node)]
    if isinstance(node, _Composite):
        return f"{word}({','.join(map(serialize, node.children))})"
    leaf = node.pred if type(node) is Condition else node.kind
    name = type(leaf).__name__
    return f"{word}({name}:{leaf.color.label})" if fields(leaf) else f"{word}({name})"


class ParseError(ValueError):
    """Grammar violation; ``offset`` locates the offending byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.reason = message
        self.offset = offset


def _tokens(text: str) -> list[tuple[str, int]]:
    """The (token, offset) pairs of ``text``: each maximal run of
    ``str.isalpha`` letters, and each other character but an ASCII space,
    then ``("", len(text))`` for the end."""
    tokens, offset = [], 0
    for letters, run in groupby(text, str.isalpha):
        run = "".join(run)
        for token in (run,) if letters else run:
            if token != " ":
                tokens.append((token, offset))
            offset += len(token)
    return tokens + [("", len(text))]


def parse(text: str) -> BTNode:
    """Parse the grammar above; raises ParseError with a byte offset."""
    tokens = _tokens(text)[::-1]  # pop() takes the next token

    def take(allowed, reason: str) -> str:
        token, offset = tokens.pop()
        if token not in allowed:
            raise ParseError(reason, offset)
        return token

    def node() -> BTNode:
        node_type, leaves = _GRAMMAR[take(_GRAMMAR, "unknown token")]
        take(("(",), "unbalanced parentheses")
        if issubclass(node_type, _Composite):
            if tokens[-1][0] == ")":
                raise ParseError("empty child list", tokens[-1][1])
            children = [node()]
            while take((",", ")"), "unbalanced parentheses") == ",":
                children.append(node())
            return node_type(tuple(children))
        name = take(leaves, "unknown token")
        leaf = leaves[name]
        if fields(leaf):
            take((":",), f"expected ':' after {name}")
            leaf = leaf(_COLOR_BY_LABEL[take(_COLOR_BY_LABEL, "unknown color name")])
        else:
            leaf = leaf()
        take((")",), "unbalanced parentheses")
        return node_type(leaf)

    root = node()
    token, offset = tokens.pop()
    if token:
        raise ParseError("trailing garbage", offset)
    return root


# --- canonical agent trees --------------------------------------------------

_QUERY_BRANCH = Sequence((Condition(SeeUnknownTarget()), Action(Query())))
_EXPLORE_LEAF = Action(Explore())


def make_knowledge_subtree(color: Color) -> Sequence:
    """The skill of handling one color: see it, collect it."""
    return Sequence((Condition(SeeTarget(color)), Action(Collect(color))))


def assemble_agent_tree(known: Iterable[Color]) -> Selector:
    """Canonical agent tree: skill subtrees in color order, then the query
    branch for unknown targets, then the explore fallback."""
    colors = sorted(set(known))
    children = tuple(make_knowledge_subtree(c) for c in colors)
    return Selector(children + (_QUERY_BRANCH, _EXPLORE_LEAF))


class CanonicalTreeError(ValueError):
    """The tree does not have the canonical agent-tree shape."""


def known_colors(root: BTNode) -> tuple[Color, ...]:
    """Colors of the skill subtrees of a canonical agent tree, in order.
    There is one canonical tree per color set, so ``root`` is canonical
    when it equals the tree of the colors whose skill subtrees it holds."""
    children = root.children if type(root) is Selector else ()
    colors = tuple(c for c in COLORS if make_knowledge_subtree(c) in children)
    if root != assemble_agent_tree(colors):
        raise CanonicalTreeError("not the canonical agent tree of its skill subtrees")
    return colors


def graft(root: BTNode, color: Color) -> Selector:
    """Insert the skill subtree for ``color`` in canonical position.

    Idempotent when the color is already present.
    """
    return assemble_agent_tree(known_colors(root) + (color,))


def prune(root: BTNode, color: Color) -> Selector:
    """Remove the skill subtree for ``color``; no-op when absent."""
    return assemble_agent_tree(c for c in known_colors(root) if c is not color)
