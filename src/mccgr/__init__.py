"""Non-negative matrix factorization with graph regularization and
correntropy-style robust reweighting, plus the clustering-evaluation
protocol used to compare the variants.

Data layout everywhere: X is features x samples, factored as H @ W with
H features x rank and W rank x samples; samples are columns.
"""

from .errors import DataError, NumericalError
from .evaluation import (
    Clustering,
    EvalReport,
    MatchResult,
    accuracy,
    evaluate,
    hungarian_match,
    kmeans,
    nmi,
)
from .factorization import (
    Factorization,
    SolverConfig,
    VARIANTS,
    dual_gradient_h,
    dual_gradient_w,
    dual_objective,
    init_factors,
    kkt_products,
    solve,
    update_h,
    update_w,
)
from .graph import AffinityGraph, build_knn_affinity, graph_penalty, laplacian
from .harness import (
    AggregateReport,
    ExperimentSpec,
    RunRecord,
    emit_report,
    make_synthetic,
    run_experiment,
    sample_categories,
)
from .matrix import load_labels, read_matrix, save_csv, save_labels

__version__ = "0.1.0"

__all__ = [
    "AffinityGraph",
    "AggregateReport",
    "Clustering",
    "DataError",
    "EvalReport",
    "ExperimentSpec",
    "Factorization",
    "MatchResult",
    "NumericalError",
    "RunRecord",
    "SolverConfig",
    "VARIANTS",
    "accuracy",
    "build_knn_affinity",
    "dual_gradient_h",
    "dual_gradient_w",
    "dual_objective",
    "emit_report",
    "evaluate",
    "graph_penalty",
    "hungarian_match",
    "init_factors",
    "kkt_products",
    "kmeans",
    "laplacian",
    "load_labels",
    "make_synthetic",
    "nmi",
    "read_matrix",
    "run_experiment",
    "sample_categories",
    "save_csv",
    "save_labels",
    "solve",
    "update_h",
    "update_w",
]
