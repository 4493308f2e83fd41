"""Discrete-time grid world: placement, Chebyshev sensing, phase-ordered
stepping, movement, and target collection.

Each :meth:`Arena.step` advances the clock by one and runs, with agents in
ascending ID order inside every phase:

1. resolve queries emitted last iteration (deliveries mutate queriers),
2. expire learned skills,
3. sense,
4. look up every agent's intent; Query intents may emit a query,
5. execute intents (collect / move / stand).

Stepping a :attr:`Arena.finished` trial raises; the caller records snapshots.

Per-agent state lives in arrays indexed by agent ID: x, y, the end of the
query cooldown, and the skills (:class:`Knowledge`). The step reads and
writes only these arrays: resolve learns through :meth:`Knowledge.learn`.
:attr:`Arena.agents`, one :class:`AgentState` view per agent (its
``store`` a view of the agent's row), is built on first access, for
callers outside the step. Expiry is one search of ``learned_at`` for the
skills learned ``memory_duration`` or more iterations ago, in row-major
order (agent ID, then color): the order of the Forget events.

Target IDs are color-major, by placement within a color. The target
columns (``_cat_x``, ``_cat_y``, ``_sense_x``) are laid out in
four color slots of one width, the largest color count (at least 1): color
c owns columns c * width up to (c + 1) * width, its targets first, in ID
order (``_col`` maps an ID to its column). With equal color counts, as in
every arena built from a config, the slots are the target IDs. A layout
with unequal counts fills the rest of each slot with filler columns: dead
from the start and off the board, like captured targets, and never seen by
``target()``, ``targets()``, ``initial_total`` or the conservation checks.
A target keeps its column for the arena's life, and is live while its
sensing x (``_sense_x``) lies on the board. A capture moves only that x off
the board, to -(span + 1), where every filler lies, span being the longer
side less one: farther than every target on the board and out of sight.

Sensing keeps one array across steps, every agent's view: ``_near``, its
distance to the nearest live target of each color, in the position dtype.
A color with no live target, whether all its targets are captured or it has
none, reads beyond span: its slot holds only off-board columns. It exists
from construction, with no agent parked. A step senses only the rows that
can have changed, in one numpy pass over those agents x columns: Chebyshev
distances, in two matrices allocated by the step, in the narrowest signed
dtype that holds the largest difference, 2 * span + 1 (int8 up to 64 cells
on a side, int16 up to 16384), then one ``np.minimum.reduceat`` over the
four slots for the nearest distance per agent and color. The step's seen
mask, the colors within the sense radius, is derived from ``_near`` for
every agent. The first sense takes every agent and fills in the whole view;
after it, an agent that stood in the Query intent last step keeps its row
unless it learned in this step's resolve (it may collect now) or a target
captured since lay at exactly its kept nearest distance of that color. The
kept rows are exact, not approximate: a Query agent does not move and
targets only disappear, so its nearest distance of a color changes only
when a target at that distance is captured. Every Collect agent is among
the sensed rows: a kept row's agent was in Query and learned nothing, so it
sees no color it knows. The sensed rows come from one ``nonzero`` of the
un-parked agents; only when some agent is parked and a target was captured
since the last sense does the un-park check run, and ``nonzero`` again.
When every agent is sensed the rows are the full slice, and the slot minima
go straight into ``_near``.

Every agent tree is the canonical tree of its known colors, so
``AgentState.tree`` is read from ``TREES``, the 16 canonical trees built
once per process. The tick is memoryless, so an intent is a pure function of
(known mask, seen mask): ``INTENT_TABLE`` holds it for all 16 x 16 pairs,
built by ticking the 16 trees, so the behavior-tree semantics stay the
source of truth.

Collect agents act as one batch (:meth:`Arena._execute_intent`), on their
rows of the step's sense matrix: none has moved since the sense pass. Seen
as agents x 4 slots x width, one gather of each agent's slot of its color
and one argmin find every agent's target. A capture writes the off-board
distance, 2 * span + 1, into the target's column of the matrix, so an agent
whose target a lower ID took searches its slot again with the same
first-minimum argmin and finds the nearest target still live. A capture
also records the target's column for the next sense.
Query agents past their cooldown emit their queries as one batch
(:meth:`Arena._emit_queries`): an m x 2 array of (querier, color) rows in
ascending ID, which the next step passes to
:func:`protocol.resolve_and_deliver`.

All randomness comes from one splitmix64 stream per trial with a fixed draw
order: placement draws at init (one draw per attempt, targets color-major
then agents by ID; a cell index v maps to x = v % width, y = v // width),
then one draw per exploring agent per iteration, in agent-ID order. Every
draw is taken in batches, sliced off the generator's block of precomputed
words, which give the same words in the same order as one ``below`` call per
draw, without a Python call per draw. Placement draws through
:meth:`SplitMix64.below_many`, which checks its moduli. The explorers draw
through ``SplitMix64._draws``, which checks nothing, on the move counts of
``_MOVE_COUNT``, which are checked once, when the module is imported.
An attempt places a target unless an earlier attempt drew its cell: that
attempt either placed a target there or was itself turned away by one. So
the placed cells are the first draws of each cell, in draw order. With k
targets left, a batch of k attempts never draws past the last target, since
each of them takes at least one more attempt. The agents take one batch
after the targets, and each step the explorers take one. An
interior agent picks one of the 8 Moore moves (``% 8``), an agent on the
edge one of the in-bounds moves, kept in ``_MOORE`` order (a 1 x 1 board,
where no agent explores, has the one move (0, 0)). An explorer's move is
read from the flat move tables (``_MOVE_DX``, ``_MOVE_DY``) at its edge
class times 8 plus its draw, from the positions gathered once per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import events as ev
from . import protocol
from .bt import COLORS, Blackboard, Collect, Color, Query, Selector, assemble_agent_tree, tick
from .bt import prune  # noqa: F401  (bench/tracing.py patches arena.prune)
from .knowledge import COLOR_BITS, COLORS_OF, Knowledge, KnowledgeStore
from .rng import SplitMix64

if TYPE_CHECKING:
    from .experiment import ScenarioConfig

_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))

# Intent codes: 0..3 collect that color, then query and explore.
_QUERY = 4
_EXPLORE = 5

# The queries of a step in which no agent asks.
_NO_QUERIES = np.empty((0, 2), np.intp)


def _moves_by_class():
    """In-bounds Moore moves for each of the 16 edge classes, in _MOORE order:
    the x and y offsets, flat, move k of class c at c * 8 + k, and the
    number of moves of each class.

    Class bits: 1 = may step to x-1, 2 = to x+1, 4 = to y-1, 8 = to y+1.
    Class 0, a 1 x 1 board, has no Moore move; it gets the one move (0, 0),
    so that every class has a move to draw. No agent explores there: every
    live target lies under every agent, and a board with none is finished.
    """
    def allowed(step, bits):
        return step == 0 or bits & (1 if step < 0 else 2)

    dx = np.zeros((16, 8), np.int32)
    dy = np.zeros((16, 8), np.int32)
    count = np.zeros(16, np.uint64)
    for cls in range(16):
        moves = [(ox, oy) for ox, oy in _MOORE
                 if allowed(ox, cls) and allowed(oy, cls >> 2)] or [(0, 0)]
        count[cls] = len(moves)
        for k, (ox, oy) in enumerate(moves):
            dx[cls, k], dy[cls, k] = ox, oy
    return dx.ravel(), dy.ravel(), count


_MOVE_DX, _MOVE_DY, _MOVE_COUNT = _moves_by_class()
# Arena.step draws the explorers' moves with SplitMix64._draws, which checks
# nothing, so the move counts are checked here once.
if not ((_MOVE_COUNT >= 1) & (_MOVE_COUNT <= 8)).all():
    raise RuntimeError(f"every edge class needs 1 to 8 moves: {_MOVE_COUNT.tolist()}")


class SetupError(ValueError):
    """The scenario cannot be laid out on the requested grid."""


class ConservationError(RuntimeError):
    """Captured plus alive targets no longer add up to the initial count, or
    the alive count is not the number of targets left on the board."""


class RobotType(Enum):
    IGNORANT = "I"
    MASTER = "M"
    RED = "R"
    GREEN = "G"
    YELLOW = "Y"
    BLUE = "B"

    @property
    def innate_colors(self) -> tuple[Color, ...]:
        """Every color for a master, none for the ignorant, else its own."""
        if self is RobotType.MASTER:
            return COLORS
        return () if self is RobotType.IGNORANT else (Color[self.name],)

# Order of the robot-count tuple in scenario configs.
ROBOT_ORDER = tuple(RobotType)
# Innate known mask of each robot type, in ROBOT_ORDER, and the type of each
# mask: the six masks are distinct.
_INNATE = np.array([sum(1 << c for c in t.innate_colors) for t in ROBOT_ORDER], np.int64)
_TYPE_OF_INNATE = dict(zip(_INNATE.tolist(), ROBOT_ORDER))


@dataclass(frozen=True, slots=True)
class Target:
    id: int
    color: Color
    pos: tuple[int, int]
    alive: bool


class AgentState:
    """One agent: a view of its entries in the arena's arrays."""

    __slots__ = ("id", "robot_type", "store", "_xs", "_ys", "_cooldown")

    def __init__(self, agent_id: int, robot_type: RobotType, store: KnowledgeStore,
                 xs: np.ndarray, ys: np.ndarray, cooldown: np.ndarray):
        self.id = agent_id
        self.robot_type = robot_type
        self.store = store
        self._xs, self._ys, self._cooldown = xs, ys, cooldown

    @property
    def cooldown_until(self) -> int:
        """The first iteration at which the agent may query again."""
        return int(self._cooldown[self.id])

    @cooldown_until.setter
    def cooldown_until(self, until: int) -> None:
        self._cooldown[self.id] = until

    @property
    def tree(self) -> Selector:
        """The canonical behavior tree of the agent's known colors."""
        return TREES[self.store.known_mask()]

    @property
    def x(self) -> int:
        return int(self._xs[self.id])

    @property
    def y(self) -> int:
        return int(self._ys[self.id])

    @property
    def pos(self) -> tuple[int, int]:
        return (self.x, self.y)


def _intent_code(intent) -> int:
    if type(intent) is Collect:
        return int(intent.color)
    return _QUERY if type(intent) is Query else _EXPLORE


def _build_trees_and_intents() -> tuple[tuple[Selector, ...], np.ndarray]:
    """The canonical tree of every known mask, and the intent it posts
    against every seen mask."""
    trees = tuple(map(assemble_agent_tree, COLORS_OF))
    table = np.zeros((16, 16), np.int8)
    for known, tree in enumerate(trees):
        for seen in range(16):
            view = SimpleNamespace(sees=lambda color: bool(seen >> color & 1))
            bb = Blackboard(view, COLORS_OF[known])
            tick(tree, bb)
            table[known, seen] = _intent_code(bb.intent)
    return trees, table


# Trees are frozen, so every agent with the same known mask shares one.
TREES, INTENT_TABLE = _build_trees_and_intents()


class Arena:
    """Self-contained trial state; see the module docstring for the phase
    order and the draw-order contract."""

    def __init__(self, config: "ScenarioConfig", seed: int):
        self._start(config, seed)
        width, height = config.grid
        cells = width * height
        total_targets = config.targets_per_color * len(COLORS)
        if total_targets > cells:
            raise SetupError(
                f"{total_targets} targets do not fit on a {width}x{height} grid"
            )
        placed: dict[int, None] = {}
        while len(placed) < total_targets:
            batch = self.rng.below_many(np.full(total_targets - len(placed), cells))
            placed.update(dict.fromkeys(batch.tolist()))
        at = np.fromiter(placed, np.int64, total_targets)
        types = np.repeat(np.arange(len(ROBOT_ORDER)), config.robot_counts)
        spots = self.rng.below_many(np.full(len(types), cells))
        self._finish_init(
            np.repeat(np.arange(len(COLORS)), config.targets_per_color),
            at % width, at // width, types, spots % width, spots // width,
        )

    @classmethod
    def from_layout(
        cls,
        config: "ScenarioConfig",
        targets: Iterable[tuple[Color, int, int]],
        agents: Iterable[tuple[RobotType, int, int]],
        seed: int = 0,
    ) -> "Arena":
        """Build an arena with explicit placement (tests and demos).

        Targets are reordered color-major; agent IDs follow the given order.
        Unequal color counts, an absent color included, pad the color slots
        with filler columns (module docstring).
        """
        arena = cls.__new__(cls)
        arena._start(config, seed)
        width, height = config.grid
        spec = sorted(targets, key=lambda item: item[0])
        cells = set()
        for color, x, y in spec:
            if not (0 <= x < width and 0 <= y < height):
                raise SetupError(f"target at {(x, y)} is out of bounds")
            if (x, y) in cells:
                raise SetupError(f"two targets share cell {(x, y)}")
            cells.add((x, y))
        agents = [(ROBOT_ORDER.index(robot_type), x, y) for robot_type, x, y in agents]
        if not agents:
            raise SetupError("at least one robot is required")
        for _, x, y in agents:
            if not (0 <= x < width and 0 <= y < height):
                raise SetupError(f"agent at {(x, y)} is out of bounds")
        arena._finish_init(*np.array(spec, np.int64).reshape(-1, 3).T,
                           *np.array(agents, np.int64).reshape(-1, 3).T)
        return arena

    def _start(self, config: "ScenarioConfig", seed: int) -> None:
        self.config = config
        self.width, self.height = config.grid
        self.rng = SplitMix64(seed)

    def _finish_init(self, cat_color: np.ndarray, cat_x: np.ndarray, cat_y: np.ndarray,
                     types: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """Set up the trial from its placement: the target catalog (color,
        x and y of each target ID, color-major) and each agent's type (its
        index in ROBOT_ORDER), x and y."""
        n_targets = len(cat_color)
        # Every on-board distance is at most span, so a larger radius sees
        # the same as span does. At the int8 limit (span 63): positions lie
        # in [0, 63], a sensing x in [-64, 63], so every difference in
        # [-63, 127]; the Python integers that meet these arrays, the radius
        # (at most span), -(span + 1) and 2 * span + 1, fit too, so neither
        # NEP 50 promotion nor numpy 1.x value-based casting can wrap or
        # raise.
        span = max(self.width, self.height) - 1
        self._off_x, self._far = -(span + 1), 2 * span + 1
        dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                     if self._far <= np.iinfo(t).max)
        self._radius = min(self.config.sense_radius, span)
        # A target's column is its ID plus the fillers of the slots before
        # its color's.
        counts = np.bincount(cat_color, minlength=4)
        self._slot = slot = max(int(counts.max()), 1)
        self._slot_starts = np.arange(4) * slot
        pad = slot - counts
        self._col = col = np.arange(n_targets) + (pad.cumsum() - pad)[cat_color]
        self._cat_x = np.zeros(4 * slot, dtype)
        self._cat_y = np.zeros(4 * slot, dtype)
        self._cat_x[col], self._cat_y[col] = cat_x, cat_y
        self._sense_x = np.full(4 * slot, self._off_x, dtype)
        self._sense_x[col] = cat_x
        self._x, self._y = x.astype(dtype), y.astype(dtype)
        # The kept view (see _sense_all), which the first sense fills in for
        # every agent; the agents left out of the next sense, and the targets
        # captured since the last one.
        self._near = np.zeros((len(types), 4), dtype)
        self._parked = np.zeros(len(types), bool)
        self._captured: list[int] = []
        self._cooldown = np.zeros(len(types), np.int64)
        cfg = self.config
        self.knowledge = Knowledge(_INNATE[types], cfg.memory_size, cfg.capacity_policy,
                                   cfg.memory_duration)
        # Edge class of each column and row (see _moves_by_class).
        xs = np.arange(self.width)
        ys = np.arange(self.height)
        self._x_class = (xs > 0) | ((xs < self.width - 1) << 1)
        self._y_class = ((ys > 0) | ((ys < self.height - 1) << 1)) << 2

        self.t = 0
        self.pending = _NO_QUERIES  # (querier, color) rows, ascending querier
        self.events: list[ev.EventRecord] = []
        self.capture_counts = [0, 0, 0, 0]
        self.initial_total = n_targets
        self.alive_count = n_targets
        self.queries_sent = self.deliveries = self.forgets = self.rejects_full = 0

    # --- queries about state ------------------------------------------------

    @cached_property
    def agents(self) -> list[AgentState]:
        """One view per agent, by ID, built on first access; the step reads
        the arrays and never these."""
        return [
            AgentState(i, _TYPE_OF_INNATE[m], KnowledgeStore(table=self.knowledge, row=i),
                       self._x, self._y, self._cooldown)
            for i, m in enumerate(self.knowledge.innate.tolist())
        ]

    @property
    def finished(self) -> bool:
        """The trial's end: the iteration cap is reached or no target is left."""
        return self.t >= self.config.max_iterations or self.alive_count == 0

    @property
    def capture_total(self) -> int:
        return sum(self.capture_counts)

    def target(self, target_id: int) -> Target:
        col = int(self._col[target_id])
        return Target(
            target_id,
            COLORS[col // self._slot],
            (int(self._cat_x[col]), int(self._cat_y[col])),
            bool(self._sense_x[col] >= 0),
        )

    def targets(self) -> list[Target]:
        col = self._col
        return list(map(Target, range(len(col)),
                        [COLORS[c] for c in (col // self._slot).tolist()],
                        zip(self._cat_x[col].tolist(), self._cat_y[col].tolist()),
                        (self._sense_x[col] >= 0).tolist()))

    def event_lines(self) -> list[str]:
        return [record.line() for record in self.events]

    # --- sensing -------------------------------------------------------------

    def _sense_all(self) -> tuple[np.ndarray, slice | np.ndarray, np.ndarray]:
        """Bring ``_near``, every agent's view, up to date (module
        docstring). Returns this step's sense matrix, the sensed rows x
        columns distances, which :meth:`_execute_intent` reads; the sensed
        agent IDs, a full slice when every agent was sensed, else their
        ascending array; and every agent's seen mask."""
        parked, captured = self._parked, self._captured
        rows = (~parked).nonzero()[0]
        if len(rows) < len(parked) and captured:
            # captures x agents, so numpy loops over the long axis
            tx, ty = self._cat_x[captured], self._cat_y[captured]
            d = np.maximum(np.abs(tx[:, None] - self._x), np.abs(ty[:, None] - self._y))
            near = self._near.T[np.floor_divide(captured, self._slot)]
            parked &= ~(d == near).any(axis=0)
            rows = (~parked).nonzero()[0]
        captured.clear()
        every = len(rows) == len(parked)
        if every:
            rows = slice(None)
        x, y = self._x[rows], self._y[rows]
        # In place: np.abs(a - b) would allocate a third matrix.
        dist = np.subtract(x[:, None], self._sense_x)
        np.abs(dist, out=dist)
        dy = np.subtract(y[:, None], self._cat_y)
        np.abs(dy, out=dy)
        np.maximum(dist, dy, out=dist)
        if every:
            np.minimum.reduceat(dist, self._slot_starts, axis=1, out=self._near)
        else:
            self._near[rows] = np.minimum.reduceat(dist, self._slot_starts, axis=1)
        seen = (self._near <= self._radius).view(np.uint8) @ COLOR_BITS
        return dist, rows, seen

    # --- stepping -------------------------------------------------------------

    def step(self) -> None:
        if self.finished:
            raise RuntimeError("trial is finished")
        cfg = self.config
        self.t = now = self.t + 1

        # Phase 1: resolve queries emitted at now-1 (before forgetting, so an
        # entry expiring this iteration can still answer).
        if len(self.pending) and cfg.learning_enabled:
            mark = len(self.events)
            delivered = protocol.resolve_and_deliver(
                self.pending, self.knowledge, now, cfg.comm_radius, self.events,
                self._x, self._y,
            )
            if delivered:  # a learner may collect now, so it is sensed
                self._parked[[q for q, _ in delivered]] = False
                # Only an answered query logs events.
                kinds = [record.kind for record in self.events[mark:]]
                self.deliveries += kinds.count(ev.DELIVERY)
                self.rejects_full += kinds.count(ev.REJECT)
                self.forgets += kinds.count(ev.FORGET)  # capacity evictions

        # Phase 2: expire the learned skills that are due.
        agents, colors = self.knowledge.expire(now)
        if agents:
            self.events.extend(ev.EventRecord(now, ev.FORGET, i, COLORS[c])
                               for i, c in zip(agents, colors))
            self.forgets += len(agents)

        # Phase 3: sense the rows that can have changed.
        dist, sensed, seen = self._sense_all()

        # Phase 4: intents. Explorers move at once, on one batch of draws.
        intents = INTENT_TABLE[self.knowledge.known, seen]
        explorers = (intents == _EXPLORE).nonzero()[0]
        if explorers.size:
            ex, ey = self._x[explorers], self._y[explorers]
            # An intp index: a narrow one costs numpy a conversion per lookup.
            cls = self._x_class[ex.astype(np.intp)] + self._y_class[ey.astype(np.intp)]
            move = self.rng._draws(_MOVE_COUNT[cls])
            move += cls * 8
            self._x[explorers] = ex + _MOVE_DX[move]
            self._y[explorers] = ey + _MOVE_DY[move]

        # Phase 5: Collect agents as one batch; Query agents past their
        # cooldown emit as one batch; every Query agent stands still, so it
        # is parked: the next sense keeps its view.
        collectors = (intents < _QUERY).nonzero()[0]
        if collectors.size:
            self._execute_intent(collectors, intents[collectors], dist, sensed)
        self._parked = querying = intents == _QUERY
        self.pending = self._emit_queries(querying, seen, self._near)
        self.queries_sent += len(self.pending)

        if self.capture_total + self.alive_count != self.initial_total:
            raise ConservationError(
                f"t={now}: {self.capture_total} captured + {self.alive_count} alive "
                f"!= {self.initial_total} placed"
            )
        if self._captured and self.alive_count != np.count_nonzero(self._sense_x >= 0):
            raise ConservationError(
                f"t={now}: {self.alive_count} counted alive, "
                f"{np.count_nonzero(self._sense_x >= 0)} on the board"
            )

    def _execute_intent(self, rows: np.ndarray, colors: np.ndarray,
                        dist: np.ndarray, sensed: slice | np.ndarray) -> None:
        """Collect, for the agents ``rows`` (ascending IDs) with the intents
        ``colors``, from this step's sense pass (``dist`` and ``sensed`` as
        :meth:`_sense_all` returns them; an agent that was not sensed raises
        RuntimeError): each takes its target (module docstring) if it lies
        under it, or steps toward it. The first search finds a live target,
        since the agent sees the color, and never a filler, which lies off
        the board; a search again never finds a target under the agent, as
        no two targets share a cell."""
        at = rows  # each agent's row of dist
        if not isinstance(sensed, slice):
            at = np.searchsorted(sensed, rows)
            if not np.array_equal(sensed.take(at, mode="clip"), rows):
                raise RuntimeError(f"t={self.t}: a Collect agent was not sensed")
        colors = colors.astype(np.intp)  # int8 * slot would wrap
        d = self._near[rows, colors]
        slot = self._slot
        slots = dist.reshape(len(dist), 4, slot)
        # Column of each row's target; first minimum = lowest ID.
        k = slots[at, colors].argmin(axis=1) + colors * slot
        if not d.all():
            # In ID order, so _captured holds the targets lower IDs took.
            for p, i, t, dt in zip(range(len(k)), rows.tolist(), k.tolist(), d.tolist()):
                if t in self._captured:
                    row, c = at[p], colors.item(p)
                    k[p] = t = slots[row, c].argmin() + c * slot
                    dt = dist[row, t]
                    d[p] = dt if dt <= self._radius else 0
                elif dt == 0:
                    self._capture(t, i)
                    dist[:, t] = self._far
        step = d > 0
        movers, toward = rows[step], k[step]
        self._x[movers] += np.sign(self._cat_x[toward] - self._x[movers])
        self._y[movers] += np.sign(self._cat_y[toward] - self._y[movers])

    def _emit_queries(self, querying: np.ndarray, seen: np.ndarray,
                      nearest_d: np.ndarray) -> np.ndarray:
        """This step's queries as (querier, color) rows in ascending querier
        ID: one from every agent in the Query intent (the mask ``querying``)
        whose cooldown has run out, which restarts it. The color follows
        :func:`protocol.query_colors`; a Query intent always sees a color
        its agent does not know (``INTENT_TABLE``), so the rows are what
        :func:`protocol.resolve_and_deliver` accepts."""
        now = self.t
        askers = (querying & (self._cooldown <= now)).nonzero()[0]
        if not askers.size:
            return _NO_QUERIES
        self._cooldown[askers] = now + self.config.query_cooldown
        unknown = seen[askers] & ~self.knowledge.known[askers]
        return np.array((askers, protocol.query_colors(unknown, nearest_d[askers]))).T

    def _capture(self, col: int, agent_id: int) -> None:
        """Take the target in column ``col`` of the sense matrix."""
        color = COLORS[col // self._slot]
        self._sense_x[col] = self._off_x
        self._captured.append(col)
        self.alive_count -= 1
        self.capture_counts[color] += 1
        self.events.append(ev.EventRecord(self.t, ev.CAPTURE, agent_id, color))
