"""Rule induction over multimodal dialogues, plus rule/classifier arbitration.

The pieces, in pipeline order: ``dataset`` loads and splits labeled
dialogue records; ``predicate`` defines the keyword DSL rules are made of;
``agents`` propose and self-assess candidate rules; ``mcts`` searches the
space of predicate conjunctions; ``rulebase`` filters and persists the
harvest; ``inference`` lets trusted rules correct a classifier; and
``harness`` scores the outcome with class-weighted F1.
"""

from .agents import Agent, AgentContext, MockAgent, RemoteAgent, RewardEstimate
from .dataset import (
    DatasetSplit,
    DialogueSample,
    LabelTaxonomy,
    Speaker,
    Task,
    Turn,
    generate_validation,
    load_dataset,
    load_taxonomy,
    save_dataset,
    save_taxonomy,
    stratified_split,
)
from .errors import (
    AgentError,
    AgentProtocolError,
    AgentUnavailableError,
    DatasetError,
    EvaluationError,
    PredicateSyntaxError,
    PredictorError,
    RuleBaseError,
    RulesmithError,
)
from .harness import EvalReport, evaluate, save_report, weighted_f1
from .inference import (
    ABSTAIN_LABEL,
    BatchResult,
    Prediction,
    PredictionSource,
    RemotePredictor,
    StubPredictor,
    arbitrate,
    load_predictions,
    predict_batch,
    save_predictions,
)
from .mcts import SearchConfig, SearchNode, SearchResult, run_search, uct_score
from .predicate import (
    MAX_RULE_PREDICATES,
    Predicate,
    PredicateField,
    PredicateOp,
    Rule,
    RuleQuality,
    RuleSource,
    SampleIndex,
    eval_predicate,
    measure_rule,
    parse_predicate,
    render_predicate,
)
from .rulebase import (
    OnlineValidation,
    RuleBase,
    RuleBaseMetadata,
    filter_by_reward,
    load_rulebase,
    online_validate,
    remove_dominated,
    save_rulebase,
)

__version__ = "0.1.0"

__all__ = [
    "ABSTAIN_LABEL",
    "Agent",
    "AgentContext",
    "AgentError",
    "AgentProtocolError",
    "AgentUnavailableError",
    "BatchResult",
    "DatasetError",
    "DatasetSplit",
    "DialogueSample",
    "EvalReport",
    "EvaluationError",
    "LabelTaxonomy",
    "MAX_RULE_PREDICATES",
    "MockAgent",
    "OnlineValidation",
    "Predicate",
    "PredicateField",
    "PredicateOp",
    "PredicateSyntaxError",
    "Prediction",
    "PredictionSource",
    "PredictorError",
    "RemoteAgent",
    "RemotePredictor",
    "RewardEstimate",
    "Rule",
    "RuleBase",
    "RuleBaseError",
    "RuleBaseMetadata",
    "RuleQuality",
    "RuleSource",
    "RulesmithError",
    "SampleIndex",
    "SearchConfig",
    "SearchNode",
    "SearchResult",
    "Speaker",
    "StubPredictor",
    "Task",
    "Turn",
    "arbitrate",
    "evaluate",
    "eval_predicate",
    "filter_by_reward",
    "generate_validation",
    "load_dataset",
    "load_predictions",
    "load_rulebase",
    "load_taxonomy",
    "measure_rule",
    "online_validate",
    "parse_predicate",
    "predict_batch",
    "remove_dominated",
    "render_predicate",
    "run_search",
    "save_dataset",
    "save_predictions",
    "save_report",
    "save_rulebase",
    "save_taxonomy",
    "stratified_split",
    "uct_score",
    "weighted_f1",
]
