"""Prediction-routed no-regret learning in latent-context bilinear games."""

from .game import (
    GameSpec,
    GameSpecError,
    JointProfile,
    LossVector,
    MixedStrategy,
    expected_cost,
    expected_feature_matrix,
    game_from_dict,
    game_to_dict,
    load_game_file,
    loss_vector,
)
from .learning import LearnerBank, apply_update, current_distribution, iso_grpo_round, play_routed
from .metrics import (
    BoundTerms,
    RoundRecord,
    RunMetrics,
    Trace,
    best_per_context_comparator,
    cce_epsilon,
    compute_run_metrics,
    contextual_regret,
    eta_rule,
    external_regret,
    rvu_bound,
    verify_trace,
    within_context_variation,
)
from .prediction import (
    ContextProcessConfig,
    MistakeLedger,
    PredictorConfig,
    generate_contexts,
    predict,
    predict_run,
    record_and_count,
)

__version__ = "0.1.0"
