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
from .decision import parse_scores, render_decision_prompt
from .ego_agent import (
    EgoTurnContext,
    FinalAnswer,
    MalformedStepError,
    ReactStep,
    SearchMemories,
    format_observation,
    parse_react_step,
    run_ego_turn,
)
from .memory import (
    EmbeddingVector,
    MemoryIndex,
    MemoryIndexError,
    build_index,
    cosine_similarity,
    search_top_k,
)
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
