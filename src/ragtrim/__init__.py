"""Adaptive top-k context truncation for retrieval-augmented generation.

The toolkit annotates the minimal number of top-ranked documents a generator
needs per query, trains a compression-rate predictor on those labels, applies
the predicted truncation at inference, and evaluates the whole pipeline
against fixed-k, random, and single-document baselines.

Each public name below is imported from its submodule on first use, so
``import ragtrim.data`` loads ``data`` alone; only ``features``, ``predictor``,
``pipeline`` and ``cli`` import numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_NAMES = {
    "data": (
        "AnnotatedTriplet", "CompressionLabel", "DataError", "JoinedDataset", "QAExample",
        "RankedDocument", "RetrievalSet", "join_dataset", "load_examples", "load_retrievals",
        "load_triplets", "save_examples", "save_retrievals", "save_triplets",
    ),
    "generation": (
        "GeneratorClient", "HttpGeneratorBackend", "HttpGeneratorConfig", "JudgeMode",
        "MockOracleBackend", "MockOracleConfig", "Prompt", "judge_correct", "mock_generate",
    ),
    "annotate": (
        "AnnotationAborted", "AnnotationOptions", "AnnotationStats", "annotate_dataset",
        "find_optimal_k", "select_top_k",
    ),
    "compress": (
        "CompressedContext", "assemble_prompt", "compress", "count_tokens", "only_doc_select",
    ),
    "features": ("FeatureSpec", "extract_features"),
    "predictor": (
        "PredictorModel", "PredictorReport", "TrainConfig", "TrainReport", "evaluate_predictor",
        "load_model", "predict_k", "save_model", "train",
    ),
    "metrics": (
        "EvalReport", "ExampleResult", "aggregate", "exact_match", "normalize_answer",
        "rouge_l", "rouge_n", "token_f1", "tokenize",
    ),
    "synth": ("CorpusSpec", "SyntheticCorpus", "make_synthetic_corpus", "mock_client_for"),
    "pipeline": (
        "PipelineConfig", "load_pipeline_config", "report_confusion", "run_pipeline",
        "sweep_document_count",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = frozenset(_NAMES) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name from its submodule, or a submodule; cached in the package."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Importing a submodule binds it on the package. The submodule ``compress`` must not
    take the place of the function ``compress``, so a public name keeps what it names."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
