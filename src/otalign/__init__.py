"""Optimal-transport contrastive alignment toolkit."""

from .errors import OtalignError
from .kernel import (
    GibbsKernel,
    KernelError,
    cosine_cost,
    cosine_kernel,
    gibbs_kernel,
    normalize_rows,
)
from .losses import (
    LOSS_FUNCTIONS,
    LossError,
    LossResult,
    byol_loss,
    gca_ince_loss,
    gca_rince_loss,
    gca_uot_loss,
    ince_loss,
    kl_plan_divergence,
    loss_grad_check,
    rince_loss,
)
from .metrics import (
    MetricError,
    alignment_loss,
    kl_via_duals,
    uniformity_loss,
)
from .plans import PlanError, block_domain_plan
from .solver import (
    Marginals,
    ScalingState,
    SolverError,
    SolverOptions,
    Trajectory,
    TransportPlan,
    default_marginals,
    dual_objectives,
    hilbert_metric,
    marginal_error,
    sinkhorn,
)
from .train import (
    AugmentConfig,
    MlpEncoder,
    SyntheticDataset,
    TrainConfig,
    TrainError,
    augment,
    domain_alignment_experiment,
    encoder_backward,
    encoder_forward,
    encoder_representation,
    gen_blobs,
    linear_probe,
    train_encoder,
)

__version__ = "0.1.0"
