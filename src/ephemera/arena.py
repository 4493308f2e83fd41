"""Discrete-time grid world: placement, Chebyshev sensing, phase-ordered
stepping, movement, and target collection.

Each :meth:`Arena.step` advances the clock by one and runs, with agents in
ascending ID order inside every phase:

1. resolve queries emitted last iteration (deliveries mutate queriers),
2. expire learned skills,
3. sense,
4. look up every agent's intent; Query intents may emit a query,
5. execute intents (collect / move / stand),
6. record a metrics snapshot on the snapshot grid.

Per-agent state lives in arrays indexed by agent ID: x, y, the end of the
query cooldown, and the skills (:class:`Knowledge`), of which
``AgentState.store`` is a view. Expiry is one search of ``expires_at``, in
row-major order (agent ID, then color): the order of the Forget events.

Sensing keeps every agent's view across steps: ``_near``, its distance to
the nearest live target of each color, and ``_seen``, the mask of colors
within the sense radius. A step senses only the rows that can have changed,
in one numpy pass over those agents x live targets: Chebyshev distances in
the narrowest signed dtype that holds the board's largest coordinate
difference (int16 up to 32768 cells on a side), one ``np.minimum.reduceat``
over the color segments for the nearest distance per agent and color, and
from it the seen mask. The live targets are ordered by ID within each color
segment. The first sense takes every agent; after it, an agent that stood in
the Query intent last step keeps its row unless it learned in this step's
resolve (it may collect now) or a target captured since lay at exactly its
kept nearest distance of that color. The kept rows are exact, not
approximate: a Query agent does not move and targets only disappear, so its
nearest distance of a color changes only when a target at that distance is
captured. Every Collect agent is among the sensed rows: a kept row's agent
was in Query and learned nothing, so it sees no color it knows.

Every agent tree is the canonical tree of its known colors, so
``AgentState.tree`` is read from ``TREES``, the 16 canonical trees built
once per process. The tick is memoryless, so an intent is a pure function of
(known mask, seen mask): ``INTENT_TABLE`` holds it for all 16 x 16 pairs,
built by ticking the 16 trees, so the behavior-tree semantics stay the
source of truth.

Collect agents act as one batch (:meth:`Arena._execute_intent`), on their
rows of the sense matrix: none has moved since the sense pass, and the
live-target arrays are compacted only at the end of the step. A capture
records the target's ID for the next sense. Query agents
past their cooldown emit their queries as one batch
(:meth:`Arena._emit_queries`): an m x 2 array of (querier, color) rows in
ascending ID, which the next step passes to
:func:`protocol.resolve_and_deliver`.

All randomness comes from one splitmix64 stream per trial with a fixed draw
order: placement draws at init (one draw per attempt, targets color-major
then agents by ID; a cell index v maps to x = v % width, y = v // width),
then one draw per exploring agent per iteration, in agent-ID order. The
draws of a step are taken as one batch (:meth:`SplitMix64.below_many`,
sliced off the generator's block of precomputed words): an
interior agent picks one of the 8 Moore moves (``% 8``), an agent on the
edge one of the in-bounds moves, kept in ``_MOORE`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import events as ev
from . import metrics, protocol
from .bt import COLORS, Blackboard, Collect, Color, Query, Selector, assemble_agent_tree, tick
from .bt import prune  # noqa: F401  (bench/tracing.py patches arena.prune)
from .knowledge import Knowledge, KnowledgeStore
from .rng import SplitMix64

if TYPE_CHECKING:
    from .experiment import ScenarioConfig

# Distance reported for a color with no live target: beyond every board.
# An int64 scalar, so that np.where over a narrow row widens rather than wraps.
_FAR = np.int64(np.iinfo(np.int64).max)
_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))

# Intent codes: 0..3 collect that color, then query and explore.
_QUERY = 4
_EXPLORE = 5

# The queries of a step in which no agent asks.
_NO_QUERIES = np.empty((0, 2), np.intp)


def _moves_by_class():
    """In-bounds Moore moves for each of the 16 edge classes, in _MOORE order.

    Class bits: 1 = may step to x-1, 2 = to x+1, 4 = to y-1, 8 = to y+1.
    """
    def allowed(step, bits):
        return step == 0 or bits & (1 if step < 0 else 2)

    dx = np.zeros((16, 8), np.int32)
    dy = np.zeros((16, 8), np.int32)
    count = np.zeros(16, np.uint64)
    for cls in range(16):
        moves = [(ox, oy) for ox, oy in _MOORE if allowed(ox, cls) and allowed(oy, cls >> 2)]
        count[cls] = len(moves)
        for k, (ox, oy) in enumerate(moves):
            dx[cls, k], dy[cls, k] = ox, oy
    return dx, dy, count


_MOVE_DX, _MOVE_DY, _MOVE_COUNT = _moves_by_class()


class SetupError(ValueError):
    """The scenario cannot be laid out on the requested grid."""


class ConservationError(RuntimeError):
    """Captured plus alive targets no longer add up to the initial count."""


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
    colors = [tuple(c for c in COLORS if known >> c & 1) for known in range(16)]
    trees = tuple(map(assemble_agent_tree, colors))
    table = np.zeros((16, 16), np.int8)
    for known, tree in enumerate(trees):
        for seen in range(16):
            view = SimpleNamespace(sees=lambda color: bool(seen >> color & 1))
            bb = Blackboard(view, colors[known])
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
        total_targets = config.targets_per_color * len(COLORS)
        if total_targets > width * height:
            raise SetupError(
                f"{total_targets} targets do not fit on a {width}x{height} grid"
            )
        cells = width * height
        occupied: set[tuple[int, int]] = set()
        cat_color: list[Color] = []
        cat_x: list[int] = []
        cat_y: list[int] = []
        for color in COLORS:
            for _ in range(config.targets_per_color):
                while True:
                    v = self.rng.below(cells)
                    cell = (v % width, v // width)
                    if cell not in occupied:
                        break
                occupied.add(cell)
                cat_color.append(color)
                cat_x.append(cell[0])
                cat_y.append(cell[1])

        agents = []
        for robot_type, count in zip(ROBOT_ORDER, config.robot_counts):
            for _ in range(count):
                v = self.rng.below(cells)
                agents.append((robot_type, v % width, v // width))
        self._finish_init(cat_color, cat_x, cat_y, agents)

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
        agents = list(agents)
        for _, x, y in agents:
            if not (0 <= x < width and 0 <= y < height):
                raise SetupError(f"agent at {(x, y)} is out of bounds")
        arena._finish_init(
            [c for c, _, _ in spec], [x for _, x, _ in spec], [y for _, _, y in spec],
            agents,
        )
        return arena

    def _start(self, config: "ScenarioConfig", seed: int) -> None:
        self.config = config
        self.width, self.height = config.grid
        self.rng = SplitMix64(seed)

    def _finish_init(self, cat_color, cat_x, cat_y, agents) -> None:
        n_targets = len(cat_color)
        # Positions and distances use the narrowest signed dtype that holds
        # the largest coordinate difference; every distance is at most span,
        # so a larger radius sees the same as span does.
        span = max(self.width, self.height) - 1
        dtype = next(t for t in (np.int16, np.int32, np.int64) if span <= np.iinfo(t).max)
        self._radius = min(self.config.sense_radius, span)
        self._cat_color, self._cat_x, self._cat_y = cat_color, cat_x, cat_y
        self._alive = np.ones(n_targets, bool)
        self._live_ids = np.arange(n_targets)
        self._live_x = np.array(cat_x, dtype=dtype)
        self._live_y = np.array(cat_y, dtype=dtype)
        self._live_color = np.array([int(c) for c in cat_color], dtype=np.int8)
        self._reseg()
        # The kept view (see _sense_all), created by the first sense; the
        # agents left out of the next sense, and the targets captured since
        # the last one.
        self._near = self._seen = self._parked = None
        self._captured: list[int] = []
        # Scratch for the agents x live-targets sense matrices, reused every
        # step: fresh matrices of that size cost more than the arithmetic.
        # np.empty maps pages only as the first sense writes them.
        size = len(agents) * n_targets
        self._sense_buf = (np.empty(size, dtype), np.empty(size, dtype))

        self._x = np.array([x for _, x, _ in agents], dtype=dtype)
        self._y = np.array([y for _, _, y in agents], dtype=dtype)
        self._cooldown = np.zeros(len(agents), np.int64)
        self.knowledge = Knowledge(
            [sum(1 << c for c in robot_type.innate_colors) for robot_type, _, _ in agents],
            self.config.memory_size,
        )
        self.agents = [
            AgentState(i, robot_type, KnowledgeStore(table=self.knowledge, row=i),
                       self._x, self._y, self._cooldown)
            for i, (robot_type, _, _) in enumerate(agents)
        ]
        # Edge class of each column and row (see _moves_by_class).
        xs = np.arange(self.width)
        ys = np.arange(self.height)
        self._x_class = (xs > 0) | ((xs < self.width - 1) << 1)
        self._y_class = ((ys > 0) | ((ys < self.height - 1) << 1)) << 2

        self.t = 0
        self.trial = 0
        self.pending = _NO_QUERIES  # (querier, color) rows, ascending querier
        self.events: list[ev.EventRecord] = []
        self.snapshots: list[metrics.MetricsSnapshot] = []
        self.capture_counts = [0, 0, 0, 0]
        self.initial_total = n_targets
        self.alive_count = n_targets
        self.queries_sent = self.deliveries = self.forgets = self.rejects_full = 0

    def _reseg(self) -> None:
        bounds = np.searchsorted(self._live_color, (0, 1, 2, 3, 4)).tolist()
        self._seg = [(bounds[c], bounds[c + 1]) for c in range(4)]
        self._present = [c for c in range(4) if bounds[c] < bounds[c + 1]]
        self._starts = [bounds[c] for c in self._present]

    # --- queries about state ------------------------------------------------

    @property
    def capture_total(self) -> int:
        return sum(self.capture_counts)

    def target(self, target_id: int) -> Target:
        return Target(
            target_id,
            self._cat_color[target_id],
            (self._cat_x[target_id], self._cat_y[target_id]),
            bool(self._alive[target_id]),
        )

    def targets(self) -> list[Target]:
        return [self.target(i) for i in range(len(self._cat_color))]

    def event_lines(self) -> list[str]:
        return [record.line() for record in self.events]

    # --- sensing -------------------------------------------------------------

    def _sense_all(self) -> tuple[np.ndarray, slice | np.ndarray]:
        """Bring every agent's view up to date: ``_near``, the agents x 4
        distances to the nearest live target of each color (_FAR for a color
        with no live target), and ``_seen``, the mask of the colors with a
        target within the sense radius.

        Senses every agent not parked, after un-parking each parked agent
        for which a target captured since the last sense lay at its kept
        nearest distance of that color (module docstring). Returns the
        sensed rows x live-targets distance matrix, which :meth:`_nearest`
        reads and the next sense overwrites, and the sensed agent IDs: a
        full slice when no agent was parked, else their ascending array.
        """
        parked, captured = self._parked, self._captured
        rows = slice(None)
        if parked is not None and parked.any():
            if captured:  # captures x agents, so numpy loops over the long axis
                tx = np.array([self._cat_x[t] for t in captured], self._x.dtype)
                ty = np.array([self._cat_y[t] for t in captured], self._y.dtype)
                d = np.maximum(np.abs(tx[:, None] - self._x), np.abs(ty[:, None] - self._y))
                near = self._near.T[[self._cat_color[t] for t in captured]]
                parked &= ~(d == near).any(axis=0)
            rows = (~parked).nonzero()[0]
        captured.clear()
        x, y = self._x[rows], self._y[rows]
        shape = (len(x), len(self._live_ids))
        size = shape[0] * shape[1]
        dist = self._sense_buf[0][:size].reshape(shape)
        dy = self._sense_buf[1][:size].reshape(shape)
        np.subtract(x[:, None], self._live_x, out=dist)
        np.abs(dist, out=dist)
        np.subtract(y[:, None], self._live_y, out=dy)
        np.abs(dy, out=dy)
        np.maximum(dist, dy, out=dist)
        nearest_d = np.minimum.reduceat(dist, self._starts, axis=1)
        if len(self._present) < 4:  # widen to all 4 colors, _FAR for the absent
            nearest_d, present = np.full((len(x), 4), _FAR, np.int64), nearest_d
            nearest_d[:, self._present] = present
        if self._near is None:
            self._near = np.empty((len(x), 4), np.int64)
            self._seen = np.empty(len(x), np.uint8)
        self._near[rows] = nearest_d
        self._seen[rows] = np.packbits(nearest_d <= self._radius, axis=1,
                                       bitorder="little")[:, 0]
        return dist, rows

    def _nearest(self, dist_row: np.ndarray, color: int) -> tuple[int, int]:
        """Live-array index and distance of the nearest target of ``color``
        not captured this step, on an agent's row of the sense matrix, ties
        to the lowest ID. The color must have a target in the live arrays."""
        s, e = self._seg[color]
        row = np.where(self._alive[self._live_ids[s:e]], dist_row[s:e], _FAR)
        j = int(row.argmin())  # first minimum = lowest target ID
        return s + j, int(row[j])

    # --- stepping -------------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        if self.t >= cfg.max_iterations or self.alive_count == 0:
            raise RuntimeError("trial is finished")
        self.t = now = self.t + 1
        agents = self.agents

        # Phase 1: resolve queries emitted at now-1 (before forgetting, so an
        # entry expiring this iteration can still answer).
        if len(self.pending) and cfg.learning_enabled:
            mark = len(self.events)
            delivered = protocol.resolve_and_deliver(
                self.pending, agents, now, cfg.comm_radius,
                cfg.memory_duration, cfg.capacity_policy, self.events,
                self._x, self._y, self.knowledge.known,
            )
            if delivered:  # a learner may collect now, so it is sensed
                self._parked[[d.querier for d in delivered]] = False
            kinds = [record.kind for record in self.events[mark:]]
            self.deliveries += kinds.count(ev.DELIVERY)
            self.rejects_full += kinds.count(ev.REJECT)
            self.forgets += kinds.count(ev.FORGET)  # capacity evictions

        # Phase 2: expire the learned skills that are due.
        expired = self.knowledge.expire(now)
        self.events.extend(ev.EventRecord(now, ev.FORGET, i, COLORS[c]) for i, c in zip(*expired))
        self.forgets += len(expired[0])

        # Phase 3: sense the rows that can have changed.
        dist, sensed = self._sense_all()
        nearest_d, seen = self._near, self._seen

        # Phase 4: intents. Explorers move at once, on one batch of draws.
        intents = INTENT_TABLE[self.knowledge.known, seen]
        explorers = (intents == _EXPLORE).nonzero()[0]
        if explorers.size:
            cls = self._x_class[self._x[explorers]] + self._y_class[self._y[explorers]]
            draws = self.rng.below_many(_MOVE_COUNT[cls])
            self._x[explorers] += _MOVE_DX[cls, draws]
            self._y[explorers] += _MOVE_DY[cls, draws]

        # Phase 5: Collect agents as one batch; Query agents past their
        # cooldown emit as one batch; every Query agent stands still, so it
        # is parked: the next sense keeps its view.
        collectors = (intents < _QUERY).nonzero()[0]
        if collectors.size:
            self._execute_intent(collectors, intents[collectors], dist, sensed)
        self._parked = querying = intents == _QUERY
        self.pending = self._emit_queries(querying, seen, nearest_d)
        self.queries_sent += len(self.pending)
        if len(self._live_ids) != self.alive_count:
            self._compact()

        # Phase 6: snapshot on the grid.
        if now % cfg.snapshot_interval == 0:
            self.snapshots.append(metrics.snapshot(self, self.trial))

        if self.capture_total + self.alive_count != self.initial_total:
            raise ConservationError(
                f"t={now}: {self.capture_total} captured + {self.alive_count} alive "
                f"!= {self.initial_total} placed"
            )

    def _execute_intent(self, rows: np.ndarray, colors: np.ndarray,
                        dist: np.ndarray, sensed: slice | np.ndarray) -> None:
        """Collect, for the agents ``rows`` (ascending IDs) with the intents
        ``colors``, from this step's sense pass (``dist`` and ``sensed`` as
        :meth:`_sense_all` returns them; an agent that was not sensed raises
        RuntimeError): each takes the nearest live target of its color (ties
        to the lowest ID) if it lies under it, the lowest ID winning a
        contested target, or steps toward it. Only an agent whose target a
        lower ID took searches again, and never finds a target under it: no
        two targets share a cell."""
        at = rows  # each agent's row of dist
        if not isinstance(sensed, slice):
            at = np.searchsorted(sensed, rows)
            if not np.array_equal(sensed.take(at, mode="clip"), rows):
                raise RuntimeError(f"t={self.t}: a Collect agent was not sensed")
        d = self._near[rows, colors]
        k = np.empty(len(rows), np.intp)  # live index of each row's target
        for c in set(colors.tolist()):
            s, e = self._seg[c]
            of_c = colors == c
            k[of_c] = dist[at[of_c], s:e].argmin(axis=1) + s  # first minimum = lowest ID
        if not d.all():
            taken = set()  # in ID order, so by lower IDs at each row
            tids = self._live_ids[k].tolist()
            for p, i, t, dt in zip(range(len(k)), rows.tolist(), tids, d.tolist()):
                if t in taken:
                    k[p], dt = self._nearest(dist[at[p]], int(colors[p]))
                    d[p] = dt if dt <= self._radius else 0
                elif dt == 0:
                    taken.add(t)
                    self._capture(t, i)
        step = d > 0
        movers, toward = rows[step], k[step]
        self._x[movers] += np.sign(self._live_x[toward] - self._x[movers])
        self._y[movers] += np.sign(self._live_y[toward] - self._y[movers])

    def _emit_queries(self, querying: np.ndarray, seen: np.ndarray,
                      nearest_d: np.ndarray) -> np.ndarray:
        """This step's queries as (querier, color) rows in ascending querier
        ID: one from every agent in the Query intent (the mask ``querying``)
        whose cooldown has run out, which restarts it. The color follows
        :func:`protocol.query_colors`; a Query intent always sees a color
        its agent does not know (``INTENT_TABLE``)."""
        now = self.t
        askers = (querying & (self._cooldown <= now)).nonzero()[0]
        if not askers.size:
            return _NO_QUERIES
        self._cooldown[askers] = now + self.config.query_cooldown
        unknown = seen[askers] & ~self.knowledge.known[askers]
        return np.array((askers, protocol.query_colors(unknown, nearest_d[askers]))).T

    def _capture(self, target_id: int, agent_id: int) -> None:
        color = self._cat_color[target_id]
        self._alive[target_id] = False
        self._captured.append(target_id)
        self.alive_count -= 1
        self.capture_counts[color] += 1
        self.events.append(ev.EventRecord(self.t, ev.CAPTURE, agent_id, color))

    def _compact(self) -> None:
        """Drop the targets captured this step from the live arrays."""
        keep = self._alive[self._live_ids]
        self._live_ids = self._live_ids[keep]
        self._live_x = self._live_x[keep]
        self._live_y = self._live_y[keep]
        self._live_color = self._live_color[keep]
        self._reseg()
