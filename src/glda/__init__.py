"""Grouped-lasso sparse multi-class linear discriminant analysis."""

from .model import (
    ClassSummaries,
    Dataset,
    DirectionSet,
    PooledScatter,
    group_norms,
    pooled_scatter,
    summarize,
)
from .solvers import (
    LpInfeasibleError,
    SolverReport,
    TheoreticalLambdaParams,
    fit_directions,
    fit_grouped,
    fit_lpd,
    fit_single_lasso,
    group_prox,
    hard_threshold,
    kkt_residual,
    oracle_restricted_fit,
    pi_bar_from_priors,
    theoretical_lambda,
)
from .classify import (
    ClassifierModel,
    NaiveBayesModel,
    PredictionReport,
    build_model,
    evaluate,
    naive_bayes_fit,
    predict,
    predict_batch,
    pseudoinverse_lda_fit,
    scores,
)
from .select import (
    CvResult,
    LambdaGrid,
    SupportMetrics,
    kfold_cv,
    lambda_grid,
    lambda_max,
    support_metrics,
)
from .simulate import (
    CovarianceSummary,
    SimulationSpec,
    bayes_error_binary,
    cone_condition_check,
    covariance_summary,
    delta_quadratic,
    event_d_check,
    sample,
    sim1_spec,
    sim2_spec,
    spec_from_directions,
)

__version__ = "0.1.0"
