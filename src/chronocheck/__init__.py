"""chronocheck: finite-model checker for distributed record systems with
monotone local updates.

Models place per-site constraints (subsets of a finite world space) under
events that tighten them locally.  The checker explores the reachable
state space, verifies the structural premises (consistency, commutation
of independent events, shrink-only writing, branch determinacy), detects
weak and strong operational influence with replayable witnesses, derives
the forced event order and its ranks, tracks the information clock, and
classifies any strong-influence cycle it finds.
"""

from .chronology import (
    BDViolation,
    Chronology,
    TaxonomyReport,
    TraceInvarianceReport,
    Verdict,
    check_branch_determinacy,
    check_trace_invariance,
    closure_from_edges,
    diagnose,
    transitive_closure,
)
from .core import (
    ConsistencyMode,
    PossibilitySpace,
    RecordState,
    Subset,
    feasible_set,
    information_content,
    measure_of,
)
from .events import (
    Event,
    EventKind,
    Rule,
    StaticDefect,
    apply_event,
    independent,
    validate_event_static,
)
from .influence import (
    InfluenceGraph,
    StrongWitness,
    WeakWitness,
    WitnessPostcheckError,
    binary_witness,
    build_influence_graphs,
    strong_influence,
    strong_influence_oracle,
    verify_strong_witness,
    weak_influence,
)
from .model import Model
from .modelfile import (
    ModelFormatError,
    fixture_path,
    load_fixture,
    load_model,
    model_digest,
    parse_model,
    serialize_model,
)
from .reachability import (
    ClockViolation,
    DiamondViolation,
    ExplorationLimits,
    MonotonicityFinding,
    ReachabilityGraph,
    TransitionTable,
    check_clock_monotone,
    check_diamond,
    check_gs,
    check_monotonicity,
    explore,
    occurrence_masks,
)

__version__ = "0.1.0"
