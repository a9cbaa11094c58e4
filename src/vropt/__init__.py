"""Variance-reduced finite-sum optimization with minibatch importance sampling.

Each public name is imported from its submodule on first access (PEP 562),
so ``import vropt`` alone loads neither numpy nor a numeric module.
"""

import importlib

_SUBMODULES = ("bruteforce", "dataio", "optimizers", "problems", "sampling")
# public name -> the submodule that defines it; the CLI binds its numeric
# names from here too (cli._load)
_SOURCES = {
    **dict.fromkeys(
        (
            "ComplexityConstants", "SamplingKind", "SamplingScheme", "approximate_independent",
            "bernoulli_subset", "compute_alpha", "draw", "independent", "optimal_probabilities",
            "probability_matrix", "uniform_minibatch", "verify_eso",
        ),
        "sampling",
    ),
    **dict.fromkeys(
        (
            "Dataset", "Problem", "build_problem", "component_gradient", "full_gradient",
            "loss_value", "make_dataset", "smoothness_constants", "synthesize",
        ),
        "problems",
    ),
    **dict.fromkeys(
        (
            "ConfigError", "DivergenceError", "RunConfig", "RunTrace", "derive_saga_config",
            "derive_sarah_config", "derive_sarah_convex_config", "derive_svrg_config",
            "predict_complexity", "run_gd_wrapper", "run_saga", "run_sarah", "run_sarah_convex",
            "run_svrg",
        ),
        "optimizers",
    ),
    **dict.fromkeys(
        ("ParseReport", "maxabs_scale", "parse_libsvm", "subsample", "write_libsvm"), "dataio"
    ),
    **dict.fromkeys(("LossKind", "ParseError"), "common"),
}

__all__ = sorted([*_SOURCES, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
