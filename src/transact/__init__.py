"""Multi-agent simulation of transactional-analysis ego states.

Each simulated person runs three ego-state sub-agents (Parent, Adult, Child)
with private similarity-searched memory partitions; a weighted decision step
picks which side speaks, guided by the person's life script. Runs are
deterministic under the scripted provider and hash embedder, and transcripts
can be mined offline for repeating game patterns.
"""

from .analysis import (
    BudgetViolation,
    GameLoopReport,
    audit_budgets,
    build_report,
    detect_game_loops,
    ego_distribution,
    ego_sequence,
    is_rescue_pattern,
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
    select_ego,
    serialize_scenario,
    serialize_transcript,
    transcript_hash,
    validate_scenario,
)
from .memory import EmbeddingVector, MemoryIndex, MemoryIndexError, cosine_similarity
from .orchestrator import (
    InvalidScenarioError,
    SimulationError,
    build_indices,
    run_simulation,
    step_turn,
)
from .provider import (
    CachingEmbedder,
    CallerInfo,
    ChatMessage,
    HashEmbedder,
    HttpProvider,
    ProviderConfig,
    ProviderError,
    ProviderStopSignal,
    RemoteEmbedder,
    Role,
    ScriptedProvider,
    ScriptedQueueUnderrun,
    load_fixtures,
)
from .runlog import RunLog

__version__ = "0.1.0"
