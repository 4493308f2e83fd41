"""Deterministic grid-world foraging swarm where agents share behavior-tree
skills on request and forget learned skills after a timeout."""

from .arena import AgentState, Arena, RobotType, SetupError, Target
from .bt import (
    Action,
    Blackboard,
    BTNode,
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
    graft,
    known_colors,
    make_knowledge_subtree,
    parse,
    prune,
    serialize,
    tick,
)
from .events import EventRecord, parse_event_line
from .experiment import (
    ConfigError,
    ScenarioConfig,
    TrialResult,
    builtin_scenarios,
    get_scenario,
    load_config,
    run_scenario,
    run_trial,
    run_trials,
)
from .knowledge import (
    CapacityPolicy,
    Knowledge,
    KnowledgeStore,
    LearnOutcome,
    LearnResult,
)
from .metrics import (
    AggregateRow,
    MetricsSnapshot,
    aggregate_trials,
    read_aggregate_csv,
    snapshot,
    write_aggregate_csv,
    write_csv,
)
from .plot import PlotSeries, render_plot
from .protocol import ProtocolError, emit_query, resolve_and_deliver
from .rng import SplitMix64, mix_seed

__version__ = "0.1.0"
