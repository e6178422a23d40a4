"""Multi-agent simulation of transactional-analysis ego states.

Each simulated person runs three ego-state sub-agents (Parent, Adult, Child)
with private similarity-searched memory partitions; a weighted decision step
picks which side speaks, guided by the person's life script. Runs are
deterministic under the scripted provider and hash embedder, and transcripts
can be mined offline for repeating game patterns.

The public surface is ``__all__``, the list the README's Library section
states; everything else is imported from its submodule.
"""

from .analysis import (
    BudgetViolation,
    GameLoopReport,
    audit_budgets,
    build_report,
    detect_game_loops,
    ego_distribution,
    rescue_patterns,
)
from .core import (
    AgentProfile,
    CriterionScores,
    DecisionRecord,
    DecisionWeights,
    EgoPersona,
    EgoResponse,
    EgoScores,
    EgoState,
    MemoryRecord,
    ProviderId,
    RetrievalEvent,
    ScenarioConfig,
    ScenarioFormatError,
    TerminationReason,
    Transcript,
    TranscriptFormatError,
    Utterance,
    Violation,
    fingerprint_scenario,
    parse_scenario,
    parse_transcript,
    serialize_scenario,
    serialize_transcript,
    transcript_hash,
    validate_scenario,
)
from .memory import EmbeddingVector, MemoryIndex, MemoryIndexError
from .orchestrator import (
    InvalidScenarioError,
    SimulationError,
    build_indices,
    run_simulation,
    step_turn,
)
from .provider import (
    HashEmbedder,
    ProviderError,
    ProviderStopSignal,
    ScriptedProvider,
    http_backend,
    load_fixtures,
)
from .runlog import RunLog

__version__ = "0.1.0"

__all__ = [
    # Scenario and transcript types.
    "ScenarioConfig",
    "AgentProfile",
    "EgoPersona",
    "MemoryRecord",
    "DecisionWeights",
    "EgoState",
    "Transcript",
    "Utterance",
    "EgoResponse",
    "RetrievalEvent",
    "DecisionRecord",
    "EgoScores",
    "CriterionScores",
    "ProviderId",
    "TerminationReason",
    # Documents.
    "parse_scenario",
    "serialize_scenario",
    "fingerprint_scenario",
    "validate_scenario",
    "Violation",
    "ScenarioFormatError",
    "parse_transcript",
    "serialize_transcript",
    "transcript_hash",
    "TranscriptFormatError",
    # Running.
    "run_simulation",
    "step_turn",
    "build_indices",
    "RunLog",
    "InvalidScenarioError",
    "SimulationError",
    # Backends.
    "ScriptedProvider",
    "load_fixtures",
    "HashEmbedder",
    "http_backend",
    "ProviderError",
    "ProviderStopSignal",
    # Memory.
    "MemoryIndex",
    "EmbeddingVector",
    "MemoryIndexError",
    # Analysis.
    "ego_distribution",
    "detect_game_loops",
    "GameLoopReport",
    "rescue_patterns",
    "audit_budgets",
    "BudgetViolation",
    "build_report",
]
