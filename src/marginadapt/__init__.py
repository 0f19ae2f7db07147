"""marginadapt: margin-constrained test-time adaptation at desk scale.

A frozen source model rides along with a learnable copy that adapts online
to an unlabeled target stream: entropy minimization, held inside a feature
margin of the source representation, with a per-class support memory that
refreshes the classifier from prototype means. Includes gradient and
tangent-kernel diagnostics and a CLI covering the full workflow
(gen-data -> train-source -> adapt / ablate / diagnose).
"""

__version__ = "0.1.0"

from .adapt import (
    AccuracyCurve,
    AdaptConfig,
    run_method,
    stream_batches,
)
from .data import (
    DomainDataset,
    ShiftSpec,
    gen_synthetic_shift,
    load_csv,
    load_csv_domains,
    plane_rotation,
    span_rotation,
    split_holdout,
    write_csv,
)
from .diagnostics import (
    KernelReport,
    SweepSummary,
    empirical_ntk,
    kernel_comparison_sweep,
    parameter_jacobian,
    verify_bn_gradient,
)
from .errors import (
    BatchTooSmallError,
    ConfigError,
    DataError,
    DimensionError,
    InputError,
    MarginAdaptError,
    NumericalFailure,
    ParseError,
    SchemaError,
    StateError,
)
from .losses import LossReport, entropy_loss, marginal_loss
from .memory import (
    MemoryBank,
    SupportRecord,
    compute_prototypes,
    init_from_classifier,
    insert_and_select,
    pseudo_label,
    refresh_classifier,
)
from .model import (
    FlatParameters,
    LinearClassifier,
    MlpEncoder,
    ModelPair,
    classification_accuracy,
    clone_for_adaptation,
    load_checkpoint,
    model_fingerprint,
    pack,
    save_checkpoint,
)
from .numeric import (
    NormLayerState,
    batchnorm_backward,
    batchnorm_forward,
    linear_backward,
    linear_forward,
    relu_backward,
    relu_forward,
    softmax_rows,
    update_running_stats,
)
from .train import Adam, TrainConfig, TrainReport, cross_entropy_loss, train_source_erm
