"""Measure-imperceptible adversarial perturbations for top-k multi-label scorers."""

from .attack import (
    AttackConfig,
    AttackOutcome,
    BaselineSpec,
    GlobalScheme,
    RandomScheme,
    filter_instances,
    ml_cw_u_loss,
    run_baseline,
    select_global,
    select_random,
    success_check,
    tkmia_attack,
    tkmia_objective,
    tkml_ap_u_loss,
)
from . import baselines  # noqa: F401  (binds tkmia.baselines, the benchmark's path)
from .core import (
    Instance,
    avg_top_k,
    hinge,
    kth_largest,
    top_k_indices,
    variational_top_k_sum,
)
from .harness import (
    ExperimentConfig,
    SyntheticSpec,
    gen_synthetic,
    load_dataset,
    run_experiment,
    save_dataset,
)
from .metrics import (
    AggregateReport,
    MetricsRecord,
    UndefinedMetricError,
    ap_at_k,
    aper,
    delta_l,
    delta_report,
    map_at_k,
    map_at_k_per_category,
    ndcg_at_k,
    precision_at_k,
    tk_acc,
)
from .model import (
    Scorer,
    TrainConfig,
    load_scorer,
    make_affine,
    make_mlp,
    save_scorer,
    train_bce,
)

__version__ = "0.1.0"
