"""Machine-assisted quantitizing toolkit.

Annotate text units with an instructable model (or a deterministic mock),
score the annotations against expert gold labels, and propagate annotation
error into downstream statistics with a confusion-matrix bootstrap.
"""

from .agreement import (
    AgreementReport,
    ConfusionMatrix,
    agreement_report,
    build_confusion,
    cohens_kappa,
    per_class_metrics,
    spearman_rho,
)
from .annotate import (
    AnnotatePolicy,
    AnnotationRecord,
    AnnotationSet,
    AuditLog,
    ChatCompletionClient,
    DecodingControls,
    MockModel,
    ModelReply,
    PromptTemplate,
    annotate,
    extract_pairs,
    normalize_output,
)
from .boot import (
    BootstrapConfig,
    BootstrapResult,
    ErrorModel,
    bootstrap_ci,
    error_model_from_confusion,
    proportion_of,
    simulate_replicate,
)
from .corpus import (
    CodingScheme,
    Corpus,
    CsvMapping,
    Level,
    Paragraph,
    Scene,
    SentenceSplit,
    Unit,
    Variable,
    Window,
    ingest,
    load_scheme,
    sample_units,
    save_corpus,
    save_scheme,
    unitize,
)
from .errors import ConfigError, DataError, QuantitizeError, TransportError
from .stats import (
    FitResult,
    Observation,
    fit_formula,
    fit_logistic,
    fit_logistic_random_intercept,
    odds_ratio,
    parse_formula,
)
from .synth import gen_confound, gen_interview_margins, gen_simpson
from .tasks import (
    ChangeScore,
    PairJudgment,
    majority_label,
    open_match,
    rank_eval,
    score_semantic_change,
    semantic_edit_distance,
)

__version__ = "0.1.0"
