import itertools

import pytest

from ephemera.bt import (
    Action,
    Blackboard,
    CanonicalTreeError,
    Collect,
    Color,
    COLORS,
    Condition,
    Explore,
    ParseError,
    Query,
    SeeTarget,
    SeeUnknownTarget,
    Selector,
    Sequence,
    TickStatus,
    assemble_agent_tree,
    color_from_label,
    graft,
    known_colors,
    make_knowledge_subtree,
    parse,
    prune,
    serialize,
    tick,
)
from ephemera.rng import SplitMix64


class FakePerception:
    def __init__(self, *visible: Color):
        self._visible = set(visible)

    def sees(self, color: Color) -> bool:
        return color in self._visible


def bb(perception: FakePerception, known=()) -> Blackboard:
    return Blackboard(perception, tuple(known))


# --- color order --------------------------------------------------------------

def test_canonical_color_order():
    assert list(COLORS) == [Color.RED, Color.GREEN, Color.YELLOW, Color.BLUE]
    assert Color.RED < Color.GREEN < Color.YELLOW < Color.BLUE
    assert [c.label for c in COLORS] == ["Red", "Green", "Yellow", "Blue"]


def test_color_from_label_rejects_unknown():
    assert color_from_label("Yellow") is Color.YELLOW
    with pytest.raises(ValueError):
        color_from_label("Pink")


# --- parsing ------------------------------------------------------------------

def test_parse_single_leaf():
    assert parse("act(Explore)") == Action(Explore())


def test_parse_sequence_of_condition_and_action():
    got = parse("seq(cond(SeeTarget:Red),act(Collect:Red))")
    assert got == Sequence((Condition(SeeTarget(Color.RED)), Action(Collect(Color.RED))))


def test_parse_tolerates_interior_spaces():
    spaced = "sel( seq( cond( SeeTarget : Red ) , act( Collect : Red ) ) , act( Explore ) )"
    assert parse(spaced) == parse("sel(seq(cond(SeeTarget:Red),act(Collect:Red)),act(Explore))")


@pytest.mark.parametrize(
    "text,reason,offset",
    [
        ("sel()", "empty child list", 4),
        ("foo(act(Explore))", "unknown token", 0),
        ("sel(act(Explore)", "unbalanced parentheses", 16),
        ("cond(SeeTarget:Pink)", "unknown color name", 15),
        ("act(Explore))", "trailing garbage", 12),
        ("act(Explore)x", "trailing garbage", 12),
        ("seq(act(Explore),)", "unknown token", 17),
        ("cond(Nope)", "unknown token", 5),
        ("act(Collect)", "expected ':' after Collect", 11),
        ("", "unknown token", 0),
        # Only ASCII spaces are skipped, and only str.isalpha() letters make
        # a word: a tab is a token, and ² and ½ end the word before them.
        ("act(\tExplore)", "unknown token", 4),
        ("act(Explore²)", "unbalanced parentheses", 11),
        ("cond(SeeTarget:Red½)", "unbalanced parentheses", 18),
    ],
)
def test_parse_errors_carry_byte_offsets(text, reason, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.reason == reason
    assert err.value.offset == offset


def test_empty_composite_rejected_at_construction():
    with pytest.raises(ValueError):
        Selector(())
    with pytest.raises(ValueError):
        Sequence(())


# --- serialization ------------------------------------------------------------

def test_serialize_action_leaf():
    assert serialize(Action(Explore())) == "act(Explore)"


def test_serialize_knowledge_subtree():
    node = Sequence((Condition(SeeTarget(Color.BLUE)), Action(Collect(Color.BLUE))))
    assert serialize(node) == "seq(cond(SeeTarget:Blue),act(Collect:Blue))"


def random_tree(rng: SplitMix64, depth: int = 0):
    """Arbitrary grammar-valid tree (not necessarily a canonical agent tree)."""
    roll = rng.below(4 if depth < 3 else 2)
    if roll == 0:
        pred = SeeUnknownTarget() if rng.below(2) else SeeTarget(COLORS[rng.below(4)])
        return Condition(pred)
    if roll == 1:
        kinds = (Collect(COLORS[rng.below(4)]), Query(), Explore())
        return Action(kinds[rng.below(3)])
    children = tuple(random_tree(rng, depth + 1) for _ in range(1 + rng.below(4)))
    return Selector(children) if roll == 2 else Sequence(children)


def test_round_trip_on_random_trees():
    rng = SplitMix64(2024)
    for _ in range(200):
        tree = random_tree(rng)
        text = serialize(tree)
        assert parse(text) == tree
        assert serialize(parse(text)) == text


def spaced(text: str, rng: SplitMix64) -> str:
    """``text`` with 0-2 ASCII spaces before and after every punctuation
    mark, and at both ends."""
    def pad():
        return " " * rng.below(3)

    out = [pad()]
    for char in text:
        out.append(f"{pad()}{char}{pad()}" if char in "(),:" else char)
    out.append(pad())
    return "".join(out)


def test_parse_ignores_spaces_at_every_token_boundary():
    rng = SplitMix64(77)
    for _ in range(300):
        tree = random_tree(rng)
        assert parse(spaced(serialize(tree), rng)) == tree


def test_every_proper_prefix_is_a_parse_error():
    rng = SplitMix64(78)
    for _ in range(200):
        text = serialize(random_tree(rng))
        for end in range(len(text)):
            with pytest.raises(ParseError):
                parse(text[:end])


# --- tick ---------------------------------------------------------------------

def test_condition_sees_target():
    board = bb(FakePerception(Color.RED))
    assert tick(Condition(SeeTarget(Color.RED)), board) is TickStatus.SUCCESS
    board = bb(FakePerception())
    assert tick(Condition(SeeTarget(Color.RED)), board) is TickStatus.FAILURE


def test_selector_falls_back_to_explore():
    tree = Selector((Condition(SeeTarget(Color.RED)), Action(Explore())))
    board = bb(FakePerception())
    assert tick(tree, board) is TickStatus.SUCCESS
    assert board.intent == Explore()


def test_selector_short_circuits_on_success():
    tree = Selector((
        Sequence((Condition(SeeTarget(Color.RED)), Action(Collect(Color.RED)))),
        Action(Explore()),
    ))
    board = bb(FakePerception(Color.RED))
    assert tick(tree, board) is TickStatus.SUCCESS
    assert board.intent == Collect(Color.RED)


def test_sequence_short_circuits_on_failure():
    tree = Sequence((Condition(SeeTarget(Color.RED)), Action(Collect(Color.RED))))
    board = bb(FakePerception(Color.GREEN))
    assert tick(tree, board) is TickStatus.FAILURE
    assert board.intent is None


def test_first_intent_wins():
    tree = Sequence((Action(Collect(Color.RED)), Action(Explore())))
    board = bb(FakePerception())
    assert tick(tree, board) is TickStatus.SUCCESS
    assert board.intent == Collect(Color.RED)


def test_ignorant_tree_queries_on_unknown_target():
    # Hand-walk: no skill subtrees, so the query branch fires on the red target.
    board = bb(FakePerception(Color.RED), known=())
    assert tick(assemble_agent_tree([]), board) is TickStatus.SUCCESS
    assert board.intent == Query()


def test_unknown_condition_checks_known_colors():
    tree = assemble_agent_tree([Color.RED])
    board = bb(FakePerception(Color.RED), known=(Color.RED,))
    tick(tree, board)
    assert board.intent == Collect(Color.RED)
    board = bb(FakePerception(Color.BLUE), known=(Color.RED,))
    tick(tree, board)
    assert board.intent == Query()
    board = bb(FakePerception(), known=(Color.RED,))
    tick(tree, board)
    assert board.intent == Explore()


def test_tick_is_deterministic():
    tree = assemble_agent_tree([Color.GREEN])
    results = []
    for _ in range(2):
        board = bb(FakePerception(Color.GREEN, Color.BLUE), known=(Color.GREEN,))
        results.append((tick(tree, board), board.intent))
    assert results[0] == results[1]


def test_canonical_tree_always_posts_exactly_one_intent():
    for subset in _all_subsets():
        for visible in [(), (Color.RED,), (Color.YELLOW, Color.BLUE), tuple(COLORS)]:
            board = bb(FakePerception(*visible), known=subset)
            status = tick(assemble_agent_tree(subset), board)
            assert status is TickStatus.SUCCESS
            assert board.intent is not None


# --- canonical agent trees -----------------------------------------------------

def test_make_knowledge_subtree_golden():
    assert serialize(make_knowledge_subtree(Color.RED)) == "seq(cond(SeeTarget:Red),act(Collect:Red))"
    assert serialize(make_knowledge_subtree(Color.BLUE)) == "seq(cond(SeeTarget:Blue),act(Collect:Blue))"


def test_assemble_empty_tree_golden():
    assert serialize(assemble_agent_tree([])) == "sel(seq(cond(SeeUnknownTarget),act(Query)),act(Explore))"


def test_assemble_full_tree_shape():
    tree = assemble_agent_tree(COLORS)
    assert len(tree.children) == 6
    assert known_colors(tree) == COLORS


def test_assemble_single_color():
    assert known_colors(assemble_agent_tree([Color.RED])) == (Color.RED,)


def _all_subsets():
    out = []
    for k in range(5):
        out.extend(itertools.combinations(COLORS, k))
    return out


def test_known_colors_round_trip_all_subsets():
    for subset in _all_subsets():
        assert known_colors(assemble_agent_tree(subset)) == tuple(sorted(subset))


def test_graft_keeps_canonical_order():
    tree = assemble_agent_tree([Color.GREEN])
    grown = graft(tree, Color.RED)
    assert serialize(grown) == serialize(assemble_agent_tree([Color.RED, Color.GREEN]))


def test_graft_is_idempotent():
    tree = assemble_agent_tree([Color.RED])
    assert graft(tree, Color.RED) == tree


def test_graft_into_empty():
    assert known_colors(graft(assemble_agent_tree([]), Color.BLUE)) == (Color.BLUE,)


def test_prune_removes_and_ignores():
    tree = assemble_agent_tree([Color.RED, Color.BLUE])
    assert known_colors(prune(tree, Color.RED)) == (Color.BLUE,)
    empty = assemble_agent_tree([])
    assert prune(empty, Color.RED) == empty


def test_prune_inverts_graft():
    for subset in _all_subsets():
        tree = assemble_agent_tree(subset)
        for color in COLORS:
            if color not in subset:
                assert prune(graft(tree, color), color) == tree


def test_graft_prune_set_laws():
    for subset in _all_subsets():
        tree = assemble_agent_tree(subset)
        for color in COLORS:
            assert known_colors(graft(tree, color)) == tuple(sorted(set(subset) | {color}))
            assert known_colors(prune(tree, color)) == tuple(sorted(set(subset) - {color}))


@pytest.mark.parametrize(
    "tree",
    [
        Action(Explore()),
        Selector((Action(Explore()),)),
        Selector((Action(Query()), Action(Explore()))),
        # collect color disagrees with the condition color
        Selector((
            Sequence((Condition(SeeTarget(Color.RED)), Action(Collect(Color.BLUE)))),
            Sequence((Condition(SeeUnknownTarget()), Action(Query()))),
            Action(Explore()),
        )),
        # skill subtrees out of canonical order
        Selector((
            Sequence((Condition(SeeTarget(Color.BLUE)), Action(Collect(Color.BLUE)))),
            Sequence((Condition(SeeTarget(Color.RED)), Action(Collect(Color.RED)))),
            Sequence((Condition(SeeUnknownTarget()), Action(Query()))),
            Action(Explore()),
        )),
        # near misses of a skill subtree in a skill slot: children swapped,
        # a third child, SeeUnknownTarget, one color twice, a Selector
        *(
            Selector((skill, Sequence((Condition(SeeUnknownTarget()), Action(Query()))), Action(Explore())))
            for skill in (
                Sequence((Action(Collect(Color.RED)), Condition(SeeTarget(Color.RED)))),
                Sequence((Condition(SeeTarget(Color.RED)), Action(Collect(Color.RED)), Action(Explore()))),
                Sequence((Condition(SeeUnknownTarget()), Action(Collect(Color.RED)))),
                Selector((Condition(SeeTarget(Color.RED)), Action(Collect(Color.RED)))),
            )
        ),
        Selector((
            make_knowledge_subtree(Color.RED),
            make_knowledge_subtree(Color.RED),
            Sequence((Condition(SeeUnknownTarget()), Action(Query()))),
            Action(Explore()),
        )),
    ],
)
def test_non_canonical_trees_rejected(tree):
    with pytest.raises(CanonicalTreeError):
        known_colors(tree)
    with pytest.raises(CanonicalTreeError):
        graft(tree, Color.RED)
    with pytest.raises(CanonicalTreeError):
        prune(tree, Color.RED)
