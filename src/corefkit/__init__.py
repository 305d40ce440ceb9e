"""corefkit: desk-scale coreference resolution and transfer experiments."""

from .documents import (
    Document,
    DocumentError,
    Segment,
    SegmentationError,
    Span,
    segment_document,
)
from .conll import ConllParseError, parse_conll, write_conll
from .jsonl import JsonlParseError, parse_jsonl, write_jsonl
from .synth import SchemeConfig, synth_corpus
from .metrics import (
    PRF,
    MetricReport,
    hungarian_max,
    score_corpus,
)
from .numeric import (
    AdamOptimizer,
    NumericError,
    ParamStore,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)
from .encoder import EncoderConfig, FreezeMask, apply_freeze
from .engine import (
    DUMMY_SCORE,
    EngineConfig,
    EntityCluster,
    enumerate_spans,
    init_params,
    prune_spans,
    resolve_document,
    width_bucket,
)
from .training import (
    Checkpoint,
    TrainConfig,
    TrainResult,
    continued_train,
    document_loss,
    evaluate_docs,
    select_checkpoint,
    train,
)

__version__ = "0.1.0"
