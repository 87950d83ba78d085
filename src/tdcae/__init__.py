"""tdcae: temporal-differential-consistency autoencoders for anomaly
detection in cyber-physical sensor streams.

Train a small dense autoencoder on attack-free data with a consistency
term tying derivative latent nodes to central differences of their static
partners, score reconstruction errors, flag anomalies, and compute
challenge-style detection metrics. A built-in tank-network simulator
provides labeled data for end-to-end runs.
"""

from .detect import (
    DetectionConfig,
    DetectionResult,
    detect,
    fit_threshold,
    reconstruction_error,
    smooth,
)
from .errors import (
    ConfigError,
    DimensionError,
    IngestionError,
    NumericError,
    TdcaeError,
)
from .metrics import (
    AttackInterval,
    ConfusionCounts,
    MetricsReport,
    clf_scores,
    confusion,
    evaluate_flags,
    fuse_edges,
    intervals_from_labels,
    ranking_score,
    ttd_score,
)
from .model import (
    HTdcAutoencoder,
    LatentPartition,
    LossBreakdown,
    TrainingConfig,
    build_model,
    central_difference,
    edge_training_config,
    encode,
    load_model,
    reconstruct,
    save_model,
    total_loss,
    total_loss_grads,
    train,
)
from .nn import Activation, DenseLayer, GradientSet, Mlp, forward, init_mlp
from .preprocess import (
    EDGE_FEATURES,
    DatasetFrame,
    RobustScalerParams,
    apply_scaler,
    fit_scaler,
    invert_scaler,
    load_csv,
    save_csv,
)
from .synth import (
    AttackKind,
    AttackScenario,
    TankSystemConfig,
    default_attacks,
    simulate,
    simulate_trace,
)

__version__ = "0.1.0"
