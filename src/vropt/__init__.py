"""Variance-reduced finite-sum optimization with minibatch importance sampling."""

from .sampling import (
    ComplexityConstants,
    SamplingKind,
    SamplingScheme,
    approximate_independent,
    bernoulli_subset,
    compute_alpha,
    compute_v,
    draw,
    independent,
    optimal_probabilities,
    probability_matrix,
    scheme_from_text,
    scheme_to_text,
    uniform_minibatch,
    verify_eso,
)
from .problems import (
    Dataset,
    LossKind,
    Problem,
    build_problem,
    component_gradient,
    full_gradient,
    loss_value,
    make_dataset,
    smoothness_constants,
    synthesize,
)
from .optimizers import (
    ConfigError,
    DivergenceError,
    RunConfig,
    RunTrace,
    derive_saga_config,
    derive_sarah_config,
    derive_sarah_convex_config,
    derive_svrg_config,
    predict_complexity,
    run_gd_wrapper,
    run_saga,
    run_sarah,
    run_sarah_convex,
    run_svrg,
)
from .dataio import ParseError, ParseReport, parse_libsvm, subsample, write_libsvm

__all__ = [name for name in dir() if not name.startswith("_")]
