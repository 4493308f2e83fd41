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

Per-agent state lives in arrays indexed by agent ID: x, y, a 4-bit mask of
the known colors (bit c for color c) and the iteration of the next skill
expiry. The mask and expiry mirror each agent's :class:`KnowledgeStore` and
are refreshed only when a delivery, eviction or expiry changes a store, so
the expiry phase visits only agents with a skill due.

Sensing is one numpy pass over agents x live targets that computes only
what every agent needs: Chebyshev distances in the narrowest signed dtype
that holds the board's largest coordinate difference (int16 up to 32768
cells on a side), one ``np.minimum.reduceat`` over the color segments for
the nearest distance per agent and color, and from it the mask of colors
within the sense radius. The ID of the nearest target (ties to the lowest
ID) is read only by Collect agents, so it is found only on their rows of the
same distance matrix, from the key distance x targets + ID.

An agent's :class:`KnowledgeStore` is the only record of what it knows;
the mask and expiry arrays are its mirror. Every agent tree is the canonical
tree of its known colors, so ``AgentState.tree`` is read from ``TREES``, the
16 canonical trees built once per process. The tick is memoryless, so an
intent is a pure function of (known mask, seen mask): ``INTENT_TABLE`` holds
it for all 16 x 16 pairs, built by ticking the 16 trees, so the
behavior-tree semantics stay the source of truth.

Only Collect and Query agents are handled one by one, in ID order: a
Collect agent takes the target under it or steps toward its nearest one,
and a capture only marks the target dead, so a higher-ID agent that sensed
the same target steps toward the nearest one still alive. The live-target
arrays are compacted once, at the end of the step.

All randomness comes from one splitmix64 stream per trial with a fixed draw
order: placement draws at init (one draw per attempt, targets color-major
then agents by ID; a cell index v maps to x = v % width, y = v // width),
then one draw per exploring agent per iteration, in agent-ID order. The
draws of a step are taken as one batch (:meth:`SplitMix64.below_many`): an
interior agent picks one of the 8 Moore moves (``% 8``), an agent on the
edge one of the in-bounds moves, kept in ``_MOORE`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from . import events as ev
from . import metrics, protocol
from .bt import COLORS, Blackboard, Collect, Color, Query, Selector, assemble_agent_tree, tick
from .bt import prune  # noqa: F401  (bench/tracing.py patches arena.prune)
from .knowledge import KnowledgeStore
from .protocol import QueryMessage
from .rng import SplitMix64

if TYPE_CHECKING:
    from .experiment import ScenarioConfig

# Distance reported for a color with no live target: beyond every board.
_FAR = np.iinfo(np.int64).max
_NEVER = np.iinfo(np.int64).max  # next expiry of a store with no learned skill
_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))

# Intent codes: 0..3 collect that color, then query and explore.
_QUERY = 4
_EXPLORE = 5


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
        return _INNATE[self]


_INNATE = {
    RobotType.IGNORANT: (),
    RobotType.MASTER: COLORS,
    RobotType.RED: (Color.RED,),
    RobotType.GREEN: (Color.GREEN,),
    RobotType.YELLOW: (Color.YELLOW,),
    RobotType.BLUE: (Color.BLUE,),
}

# Order of the robot-count tuple in scenario configs.
ROBOT_ORDER = (
    RobotType.IGNORANT,
    RobotType.MASTER,
    RobotType.RED,
    RobotType.GREEN,
    RobotType.YELLOW,
    RobotType.BLUE,
)


@dataclass(frozen=True, slots=True)
class Target:
    id: int
    color: Color
    pos: tuple[int, int]
    alive: bool


class AgentState:
    """One agent; its position is read from the arena's position arrays."""

    __slots__ = ("id", "robot_type", "store", "cooldown_until", "_xs", "_ys")

    def __init__(self, agent_id: int, robot_type: RobotType, store: KnowledgeStore,
                 xs: np.ndarray, ys: np.ndarray):
        self.id = agent_id
        self.robot_type = robot_type
        self.store = store
        self.cooldown_until = 0
        self._xs = xs
        self._ys = ys

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
        width, height = config.grid
        total_targets = config.targets_per_color * len(COLORS)
        if total_targets > width * height:
            raise SetupError(
                f"{total_targets} targets do not fit on a {width}x{height} grid"
            )
        self.config = config
        self.width = width
        self.height = height
        self.rng = SplitMix64(seed)
        self.seed = seed

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
        width, height = config.grid
        arena.config = config
        arena.width = width
        arena.height = height
        arena.rng = SplitMix64(seed)
        arena.seed = seed
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

    def _finish_init(self, cat_color, cat_x, cat_y, agents) -> None:
        n_targets = len(cat_color)
        # Positions and distances use the narrowest signed dtype that holds
        # the largest coordinate difference; every distance is at most span,
        # so a larger radius sees the same as span does.
        span = max(self.width, self.height) - 1
        dtype = next(t for t in (np.int16, np.int32, np.int64) if span <= np.iinfo(t).max)
        self._radius = min(self.config.sense_radius, span)
        # A Collect agent's key is distance * n_targets + target ID; int32
        # unless that could overflow.
        wide = (span + 1) * (n_targets + 1) >= 1 << 31
        self._key_dtype = np.int64 if wide else np.int32
        self._cat_color = cat_color
        self._cat_x = cat_x
        self._cat_y = cat_y
        self._n_targets = n_targets
        self._alive = np.ones(n_targets, bool)
        self._live_ids = np.arange(n_targets, dtype=self._key_dtype)
        self._live_x = np.array(cat_x, dtype=dtype)
        self._live_y = np.array(cat_y, dtype=dtype)
        self._live_color = np.array([int(c) for c in cat_color], dtype=np.int8)
        self._stale = False  # live arrays still hold targets captured this step
        self._reseg()
        # Scratch for the agents x live-targets sense matrices, reused every
        # step: fresh matrices of that size cost more than the arithmetic.
        # np.empty maps pages only as the first sense writes them.
        size = len(agents) * n_targets
        self._sense_buf = (np.empty(size, dtype), np.empty(size, dtype))

        self._x = np.array([x for _, x, _ in agents], dtype=dtype)
        self._y = np.array([y for _, _, y in agents], dtype=dtype)
        self.agents: list[AgentState] = []
        for robot_type, _, _ in agents:
            store = KnowledgeStore(robot_type.innate_colors, capacity=self.config.memory_size)
            self.agents.append(AgentState(len(self.agents), robot_type, store,
                                          self._x, self._y))
        # Innate skills only so far: nothing expires yet.
        self._known = np.array([a.store.known_mask() for a in self.agents], np.int64)
        self._expiry = np.full(len(agents), _NEVER, np.int64)
        # Edge class of each column and row (see _moves_by_class).
        xs = np.arange(self.width)
        ys = np.arange(self.height)
        self._x_class = (xs > 0) | ((xs < self.width - 1) << 1)
        self._y_class = ((ys > 0) | ((ys < self.height - 1) << 1)) << 2

        self.t = 0
        self.trial = 0
        self.pending: list[QueryMessage] = []
        self.events: list[ev.EventRecord] = []
        self.snapshots: list[metrics.MetricsSnapshot] = []
        self.capture_counts = [0, 0, 0, 0]
        self.initial_total = n_targets
        self.alive_count = n_targets
        self.queries_sent = 0
        self.deliveries = 0
        self.forgets = 0
        self.rejects_full = 0

    def _reseg(self) -> None:
        bounds = np.searchsorted(self._live_color, (0, 1, 2, 3, 4)).tolist()
        self._seg = [(bounds[c], bounds[c + 1]) for c in range(4)]
        self._present = [c for c in range(4) if bounds[c] < bounds[c + 1]]
        self._starts = [bounds[c] for c in self._present]

    def _sync(self, agent: AgentState) -> None:
        """Copy the agent's known mask and next expiry from its store."""
        store = agent.store
        self._known[agent.id] = store.known_mask()
        expiry = store.next_expiry()
        self._expiry[agent.id] = _NEVER if expiry is None else expiry

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

    def _sense_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distance to the nearest live target of each color for every agent.

        Returns the agents x 4 nearest distances (_FAR for a color with no
        live target), the mask of the colors with a target within the sense
        radius, and the agents x live-targets distance matrix, which
        :meth:`_nearest_ids` reads and the next sense overwrites.
        """
        n = len(self._x)
        size = n * len(self._live_ids)
        dist = self._sense_buf[0][:size].reshape(n, -1)
        dy = self._sense_buf[1][:size].reshape(n, -1)
        np.subtract(self._x[:, None], self._live_x, out=dist)
        np.abs(dist, out=dist)
        np.subtract(self._y[:, None], self._live_y, out=dy)
        np.abs(dy, out=dy)
        np.maximum(dist, dy, out=dist)
        nearest_d = np.minimum.reduceat(dist, self._starts, axis=1)
        if len(self._present) < 4:
            nearest_d = self._by_color(nearest_d, _FAR)
        seen = np.packbits(nearest_d <= self._radius, axis=1, bitorder="little")[:, 0]
        return nearest_d, seen, dist

    def _nearest_ids(self, dist: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """IDs of the nearest live target of each color (ties: lowest ID; -1
        for a color with none) for the agents ``rows``, read off the distance
        matrix of the last sense."""
        n_targets = self._n_targets
        key = np.multiply(dist[rows], n_targets, dtype=self._key_dtype)
        key += self._live_ids
        # Over a color's segment the least key is the nearest target, ties
        # to the lowest ID.
        tid = np.minimum.reduceat(key, self._starts, axis=1) % n_targets
        return tid if len(self._present) == 4 else self._by_color(tid, -1)

    def _by_color(self, per_segment: np.ndarray, absent: int) -> np.ndarray:
        """Widen rows x present-colors to rows x 4, ``absent`` elsewhere."""
        out = np.full((len(per_segment), 4), absent, np.int64)
        out[:, self._present] = per_segment
        return out

    # --- stepping -------------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        if self.t >= cfg.max_iterations or self.alive_count == 0:
            raise RuntimeError("trial is finished")
        self.t = now = self.t + 1
        agents = self.agents

        # Phase 1: resolve queries emitted at now-1 (before forgetting, so an
        # entry expiring this iteration can still answer).
        if self.pending and cfg.learning_enabled:
            mark = len(self.events)
            deliveries = protocol.resolve_and_deliver(
                self.pending, agents, now, cfg.comm_radius,
                cfg.memory_duration, cfg.capacity_policy, self.events,
                self._x, self._y, self._known,
            )
            for delivery in deliveries:
                self._sync(agents[delivery.querier])
            for record in self.events[mark:]:
                if record.kind == ev.DELIVERY:
                    self.deliveries += 1
                elif record.kind == ev.REJECT:
                    self.rejects_full += 1
                else:  # capacity eviction
                    self.forgets += 1

        # Phase 2: expiry sweep over the agents with a skill due.
        for i in (self._expiry <= now).nonzero()[0].tolist():
            agent = agents[i]
            removed = agent.store.forget_expired(now)
            self.events.extend(ev.EventRecord(now, ev.FORGET, i, color) for color in removed)
            self.forgets += len(removed)
            self._sync(agent)

        # Phase 3: sense.
        nearest_d, seen, dist = self._sense_all()

        # Phase 4: intents. Explorers move at once, on one batch of draws.
        intents = INTENT_TABLE[self._known, seen]
        explorers = (intents == _EXPLORE).nonzero()[0]
        if explorers.size:
            cls = self._x_class[self._x[explorers]] + self._y_class[self._y[explorers]]
            draws = self.rng.below_many(_MOVE_COUNT[cls])
            self._x[explorers] += _MOVE_DX[cls, draws]
            self._y[explorers] += _MOVE_DY[cls, draws]

        # Phase 5: Query and Collect agents, one by one in ID order. Only a
        # Collect agent reads a target ID: the one of its color, as sensed.
        new_queries = []
        busy = (intents != _EXPLORE).nonzero()[0]
        codes = intents[busy]
        rows = busy[codes < _QUERY]
        tid_rows = iter(self._nearest_ids(dist, rows).tolist() if rows.size else ())
        for i, code, d_row, seen_mask in zip(
            busy.tolist(), codes.tolist(), nearest_d[busy].tolist(), seen[busy].tolist(),
        ):
            agent = agents[i]
            if code != _QUERY:
                self._execute_intent(agent, COLORS[code], d_row[code], next(tid_rows)[code])
            elif now >= agent.cooldown_until:
                message = protocol.emit_query(agent, d_row, seen_mask, now, cfg.query_cooldown)
                if message is not None:
                    new_queries.append(message)
                    self.queries_sent += 1
            # A Query agent awaiting an answer stands still.
        self.pending = new_queries
        if self._stale:
            self._compact()

        # Phase 6: snapshot on the grid.
        if now % cfg.snapshot_interval == 0:
            self.snapshots.append(metrics.snapshot(self, self.trial))

        if self.capture_total + self.alive_count != self.initial_total:
            raise ConservationError(
                f"t={now}: {self.capture_total} captured + {self.alive_count} alive "
                f"!= {self.initial_total} placed"
            )

    def _execute_intent(self, agent: AgentState, color: Color, distance: int,
                        target_id: int) -> None:
        """Collect ``color``: take the sensed nearest target if it lies under
        the agent, else step toward it. If a lower-ID agent took it earlier
        this step, step toward the nearest target of that color still alive
        within the sense radius, if any."""
        if self._alive[target_id]:
            if distance == 0:
                self._capture(target_id, agent)
                return
            dest = (self._cat_x[target_id], self._cat_y[target_id])
        else:
            dest = self._nearest_live(agent.x, agent.y, color)
            if dest is None:
                return
        dx = dest[0] - agent.x
        dy = dest[1] - agent.y
        self._x[agent.id] += (dx > 0) - (dx < 0)
        self._y[agent.id] += (dy > 0) - (dy < 0)

    def _nearest_live(self, x: int, y: int, color: Color) -> Optional[tuple[int, int]]:
        s, e = self._seg[color]
        alive = np.flatnonzero(self._alive[self._live_ids[s:e]]) + s
        if alive.size == 0:
            return None
        d = np.maximum(np.abs(self._live_x[alive] - x), np.abs(self._live_y[alive] - y))
        i = int(d.argmin())  # first minimum = lowest target ID
        if int(d[i]) > self.config.sense_radius:
            return None
        return (int(self._live_x[alive[i]]), int(self._live_y[alive[i]]))

    def _capture(self, target_id: int, agent: AgentState) -> None:
        color = self._cat_color[target_id]
        self._alive[target_id] = False
        self._stale = True
        self.alive_count -= 1
        self.capture_counts[color] += 1
        self.events.append(ev.EventRecord(self.t, ev.CAPTURE, agent.id, color))

    def _compact(self) -> None:
        """Drop the targets captured this step from the live arrays."""
        keep = self._alive[self._live_ids]
        self._live_ids = self._live_ids[keep]
        self._live_x = self._live_x[keep]
        self._live_y = self._live_y[keep]
        self._live_color = self._live_color[keep]
        self._reseg()
        self._stale = False
