"""Per-layer spans and counts, recorded from outside the program.

`install` replaces public functions of corefkit's modules with wrappers that
time each call and count the work it did. A wrapper is bound under every
name the function has in any corefkit module, so calls made through
`from .engine import ffn_forward` are seen too. Spans nest: a span's self time
is its duration minus the time of the spans opened inside it.

Wrappers cost a few microseconds per call, so end-to-end figures come from
runs without them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# each span is reported as <span>_s (inclusive) and <span>_self_s
SPANS = (
    "synth.corpus",
    "documents.segment",
    "jsonl.parse",
    "jsonl.write",
    "encoder.embed",
    "encoder.forward",
    "encoder.backward",
    "engine.span_embed",
    "engine.mention",
    "engine.prune",
    "engine.pair_forward",
    "engine.pair_backward",
    "engine.merge",
    "engine.resolve",
    "training.document_loss",
    "training.evaluate",
    "numeric.adam_step",
    "numeric.params_copy",
    "numeric.zero_grads",
    "numeric.checkpoint_save",
    "numeric.checkpoint_load",
    "metrics.score_corpus",
    "metrics.assignment",
    "harness.devalloc",
    "cli.train",
    "cli.resolve",
)

COUNTS = (
    "documents.segments",
    "encoder.forward_calls",
    "engine.spans_enumerated",
    "engine.spans_kept",
    "engine.pair_forward_calls",
    "engine.pair_rows",
    "engine.pair_backward_calls",
    "numeric.adam_steps",
    "metrics.score_corpus_calls",
    "metrics.docs_scored",
    "metrics.assignment_calls",
)

RATIOS = ("engine.keep_ratio", "metrics.rescore_ratio")

_SCORER_SPAN = {"pair": "engine.pair_forward", "merge": "engine.merge", "mention": "engine.mention"}
_SCORER_BACKWARD_SPAN = {"pair": "engine.pair_backward", "merge": "engine.merge", "mention": "engine.mention"}


class Tracer:
    def __init__(self):
        self.active = False
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        # (function, metrics it feeds) for each wrapped function that no longer exists
        self.missing: list[tuple[str, tuple[str, ...]]] = []
        self._stack: list[list[float]] = []
        # responses scored, kept alive so that ids stay distinct
        self._responses: dict[int, object] = {}

    def span(self, name, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[0]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def scored(self, pairs):
        for key, response in pairs:
            self.counts["metrics.docs_scored"] += 1
            self._responses.setdefault(id(response), response)
            yield key, response

    def metrics(self) -> dict:
        """Metric -> (value, unit); metrics fed by a missing function are left out."""
        gone = {feed for _, feeds in self.missing for feed in feeds}
        out = {}
        for span in SPANS:
            if span not in gone:
                out[f"{span}_s"] = (self.total[span], "s")
                out[f"{span}_self_s"] = (self.self_time[span], "s")
        for name in COUNTS:
            if name not in gone:
                out[name] = (self.counts[name], "count")
        if not gone & {"engine.spans_kept", "engine.spans_enumerated"}:
            enumerated = self.counts["engine.spans_enumerated"]
            kept = self.counts["engine.spans_kept"]
            out["engine.keep_ratio"] = (kept / enumerated if enumerated else 0.0, "ratio")
        if "metrics.docs_scored" not in gone:
            distinct = len(self._responses)
            scored = self.counts["metrics.docs_scored"]
            out["metrics.rescore_ratio"] = (scored / distinct if distinct else 0.0, "ratio")
        return out


def _one(out) -> int:
    return 1


def _wrap_plain(tracer, name, fn, count=None, amount=_one):
    """Time calls as span `name`; add amount(result) to the `count` counter."""
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        out = tracer.span(name, fn, *args, **kwargs)
        if count is not None:
            tracer.count(count, amount(out))
        return out

    return wrapper


def _wrap_count(tracer, name, fn, amount):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if tracer.active:
            tracer.count(name, amount(out))
        return out

    return wrapper


def _wrap_ffn_forward(tracer, fn):
    def wrapper(params, scorer, x, *rest, **kwargs):
        if not tracer.active:
            return fn(params, scorer, x, *rest, **kwargs)
        if scorer == "pair":
            tracer.count("engine.pair_forward_calls")
            tracer.count("engine.pair_rows", len(x))
        return tracer.span(_SCORER_SPAN[scorer], fn, params, scorer, x, *rest, **kwargs)

    return wrapper


def _wrap_ffn_backward(tracer, fn):
    def wrapper(params, dscores, cache, *rest, **kwargs):
        if not tracer.active:
            return fn(params, dscores, cache, *rest, **kwargs)
        scorer = cache[0]
        if scorer == "pair":
            tracer.count("engine.pair_backward_calls")
        return tracer.span(_SCORER_BACKWARD_SPAN[scorer], fn, params, dscores, cache, *rest, **kwargs)

    return wrapper


def _wrap_score_corpus(tracer, fn):
    def wrapper(pairs, *rest, **kwargs):
        if not tracer.active:
            return fn(pairs, *rest, **kwargs)
        tracer.count("metrics.score_corpus_calls")
        return tracer.span("metrics.score_corpus", fn, tracer.scored(pairs), *rest, **kwargs)

    return wrapper


def _targets(tracer):
    """(module, attribute, wrapper factory, metrics the wrapper feeds)."""
    def plain(span, count=None, amount=_one):
        return lambda fn: _wrap_plain(tracer, span, fn, count, amount)

    return [
        ("corefkit.synth", "synth_corpus", plain("synth.corpus"), ("synth.corpus",)),
        ("corefkit.documents", "segment_document",
         plain("documents.segment", "documents.segments", len),
         ("documents.segment", "documents.segments")),
        ("corefkit.jsonl", "parse_jsonl", plain("jsonl.parse"), ("jsonl.parse",)),
        ("corefkit.jsonl", "write_jsonl", plain("jsonl.write"), ("jsonl.write",)),
        ("corefkit.encoder", "embed_tokens_forward", plain("encoder.embed"), ("encoder.embed",)),
        ("corefkit.encoder", "embed_tokens_backward", plain("encoder.embed"), ("encoder.embed",)),
        ("corefkit.encoder", "encode_forward",
         plain("encoder.forward", "encoder.forward_calls"),
         ("encoder.forward", "encoder.forward_calls")),
        ("corefkit.encoder", "encode_backward", plain("encoder.backward"), ("encoder.backward",)),
        ("corefkit.engine", "enumerate_spans",
         lambda fn: _wrap_count(tracer, "engine.spans_enumerated", fn, len),
         ("engine.spans_enumerated",)),
        ("corefkit.engine", "prune_spans",
         plain("engine.prune", "engine.spans_kept", len),
         ("engine.prune", "engine.spans_kept")),
        ("corefkit.engine", "span_embeddings_forward", plain("engine.span_embed"), ("engine.span_embed",)),
        ("corefkit.engine", "span_embeddings_backward", plain("engine.span_embed"), ("engine.span_embed",)),
        ("corefkit.engine", "ffn_forward", lambda fn: _wrap_ffn_forward(tracer, fn),
         ("engine.pair_forward", "engine.merge", "engine.mention",
          "engine.pair_forward_calls", "engine.pair_rows")),
        ("corefkit.engine", "ffn_backward", lambda fn: _wrap_ffn_backward(tracer, fn),
         ("engine.pair_backward", "engine.merge", "engine.mention", "engine.pair_backward_calls")),
        ("corefkit.engine", "resolve_document", plain("engine.resolve"), ("engine.resolve",)),
        ("corefkit.training", "document_loss", plain("training.document_loss"), ("training.document_loss",)),
        ("corefkit.training", "evaluate_docs", plain("training.evaluate"), ("training.evaluate",)),
        ("corefkit.numeric", "AdamOptimizer.step",
         plain("numeric.adam_step", "numeric.adam_steps"),
         ("numeric.adam_step", "numeric.adam_steps")),
        ("corefkit.numeric", "ParamStore.copy", plain("numeric.params_copy"), ("numeric.params_copy",)),
        ("corefkit.numeric", "ParamStore.zero_grads", plain("numeric.zero_grads"), ("numeric.zero_grads",)),
        ("corefkit.numeric", "save_checkpoint", plain("numeric.checkpoint_save"), ("numeric.checkpoint_save",)),
        ("corefkit.numeric", "load_checkpoint", plain("numeric.checkpoint_load"), ("numeric.checkpoint_load",)),
        ("corefkit.metrics", "score_corpus", lambda fn: _wrap_score_corpus(tracer, fn),
         ("metrics.score_corpus", "metrics.score_corpus_calls", "metrics.docs_scored")),
        ("corefkit.metrics", "hungarian_max",
         plain("metrics.assignment", "metrics.assignment_calls"),
         ("metrics.assignment", "metrics.assignment_calls")),
        ("corefkit.harness", "dev_allocation_experiment", plain("harness.devalloc"), ("harness.devalloc",)),
        ("corefkit.cli", "cmd_train", plain("cli.train"), ("cli.train",)),
        ("corefkit.cli", "cmd_resolve", plain("cli.resolve"), ("cli.resolve",)),
    ]


def install() -> Tracer:
    """Wrap the program's layer boundaries; call before the benchmark imports its names."""
    import corefkit.cli  # noqa: F401  (imports every layer)

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name == "corefkit" or name.startswith("corefkit.")]
    for module_name, attr, factory, feeds in _targets(tracer):
        owner = sys.modules[module_name]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                tracer.missing.append((f"{module_name}.{attr}", feeds))
                continue
            setattr(cls, meth, factory(original))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            tracer.missing.append((f"{module_name}.{attr}", feeds))
            continue
        wrapped = factory(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    return tracer
