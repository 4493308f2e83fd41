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


class _Parser:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_spaces(self) -> None:
        text = self.text
        while self.pos < len(text) and text[self.pos] == " ":
            self.pos += 1

    def read_word(self) -> tuple[str, int]:
        self.skip_spaces()
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos].isalpha():
            self.pos += 1
        return text[start:self.pos], start

    def expect(self, char: str, reason: str) -> None:
        self.skip_spaces()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise ParseError(reason, self.pos)
        self.pos += 1

    def peek(self) -> str:
        self.skip_spaces()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_node(self) -> BTNode:
        word, start = self.read_word()
        if word not in _GRAMMAR:
            raise ParseError("unknown token", start)
        node_type, leaves = _GRAMMAR[word]
        self.expect("(", "unbalanced parentheses")
        if issubclass(node_type, _Composite):
            if self.peek() == ")":
                raise ParseError("empty child list", self.pos)
            children = [self.parse_node()]
            while self.peek() == ",":
                self.pos += 1
                children.append(self.parse_node())
            node = node_type(tuple(children))
        else:
            name, start = self.read_word()
            leaf = leaves.get(name)
            if leaf is None:
                raise ParseError("unknown token", start)
            if fields(leaf):
                self.expect(":", f"expected ':' after {name}")
                label, start = self.read_word()
                if label not in _COLOR_BY_LABEL:
                    raise ParseError("unknown color name", start)
                node = node_type(leaf(_COLOR_BY_LABEL[label]))
            else:
                node = node_type(leaf())
        self.expect(")", "unbalanced parentheses")
        return node


def parse(text: str) -> BTNode:
    """Parse the grammar above; raises ParseError with a byte offset."""
    parser = _Parser(text)
    node = parser.parse_node()
    parser.skip_spaces()
    if parser.pos != len(text):
        raise ParseError("trailing garbage", parser.pos)
    return node


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


def _skill_color(node: BTNode) -> Color | None:
    """The color ``c`` with ``node == make_knowledge_subtree(c)``, or None."""
    return next((c for c in COLORS if node == make_knowledge_subtree(c)), None)


def known_colors(root: BTNode) -> tuple[Color, ...]:
    """Colors of the skill subtrees of a canonical agent tree, in order."""
    if type(root) is not Selector or len(root.children) < 2:
        raise CanonicalTreeError("root must be a selector ending in query and explore branches")
    *skills, query_branch, explore_leaf = root.children
    if query_branch != _QUERY_BRANCH or explore_leaf != _EXPLORE_LEAF:
        raise CanonicalTreeError("missing canonical query/explore tail")
    colors: list[Color] = []
    for node in skills:
        color = _skill_color(node)
        if color is None:
            raise CanonicalTreeError(f"not a skill subtree: {serialize(node)}")
        colors.append(color)
    if colors != sorted(set(colors)):
        raise CanonicalTreeError("skill subtrees out of canonical color order")
    return tuple(colors)


def graft(root: BTNode, color: Color) -> Selector:
    """Insert the skill subtree for ``color`` in canonical position.

    Idempotent when the color is already present.
    """
    return assemble_agent_tree(known_colors(root) + (color,))


def prune(root: BTNode, color: Color) -> Selector:
    """Remove the skill subtree for ``color``; no-op when absent."""
    return assemble_agent_tree(c for c in known_colors(root) if c is not color)
