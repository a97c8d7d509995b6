"""Adaptive top-k context truncation for retrieval-augmented generation.

The toolkit annotates the minimal number of top-ranked documents a generator
needs per query, trains a compression-rate predictor on those labels, applies
the predicted truncation at inference, and evaluates the whole pipeline
against fixed-k, random, and single-document baselines.
"""

from .data import (
    AnnotatedTriplet,
    CompressionLabel,
    DataError,
    JoinedDataset,
    QAExample,
    RankedDocument,
    RetrievalSet,
    join_dataset,
    load_examples,
    load_retrievals,
    load_triplets,
    save_examples,
    save_retrievals,
    save_triplets,
)
from .generation import (
    GeneratorClient,
    HttpGeneratorBackend,
    HttpGeneratorConfig,
    JudgeMode,
    MockOracleBackend,
    MockOracleConfig,
    Prompt,
    judge_correct,
    mock_generate,
)
from .annotate import (
    AnnotationAborted,
    AnnotationOptions,
    AnnotationStats,
    annotate_dataset,
    find_optimal_k,
    select_top_k,
)
from .compress import (
    CompressedContext,
    assemble_prompt,
    compress,
    count_tokens,
    only_doc_select,
)
from .features import FeatureSpec, extract_features
from .predictor import (
    PredictorModel,
    PredictorReport,
    TrainConfig,
    TrainReport,
    evaluate_predictor,
    load_model,
    predict_k,
    save_model,
    train,
)
from .metrics import (
    EvalReport,
    ExampleResult,
    aggregate,
    exact_match,
    normalize_answer,
    rouge_l,
    rouge_n,
    token_f1,
    tokenize,
)
from .synth import CorpusSpec, SyntheticCorpus, make_synthetic_corpus, mock_client_for
from .pipeline import (
    PipelineConfig,
    load_pipeline_config,
    report_confusion,
    run_pipeline,
    sweep_document_count,
)

__version__ = "0.1.0"
