"""Mixed-bit weight quantization study harness for latent world-model planning."""

from .config import ExperimentConfig, config_from_dict, load_config
from .env import (
    Dataset,
    EpisodeSpec,
    WallEnvConfig,
    gen_dataset,
    observations,
    pixel,
    render,
    sample_episode_specs,
    step,
)
from .errors import (
    PersistenceError,
    StageError,
    TrainingDivergenceError,
    ValidationError,
)
from .nn import TrainConfig, WorldModel, fit_state_probe, train_world_model
from .planner import (
    CEMConfig,
    EpisodeRecord,
    EvalVariant,
    PlannerBudget,
    plan_actions,
    plan_noise,
    prepare_variants,
    run_episode,
    run_episodes,
    run_paired_eval,
)
from .policies import (
    ALL_VARIANT_NAMES,
    CORE_VARIANT_NAMES,
    apply_policy,
    model_size_bytes,
    policy_for_name,
)
from .quant import QuantizedTensor, dequantize_tensor, fake_quantize_tensor, quantize_tensor
from .stats import (
    MatchupCounts,
    PairedComparison,
    ParetoPoint,
    difficulty_bins,
    matchup_counts,
    paired_cells,
    paired_delta_ci,
    pareto_frontier,
    sign_test,
    spearman,
)
from .store import Model, TensorRecord, load_model, persist_model

__version__ = "0.1.0"
