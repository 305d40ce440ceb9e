"""The benchmark under ``bench/`` calls corefkit by name, and its tracer wraps
public functions by name; each must still exist.

The benchmark runs with its own import path, and ``install`` patches
corefkit's modules, so both run in a child process and the test process keeps
the unwrapped functions. A renamed or removed function the benchmark uses
then fails here rather than in the benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
print(json.dumps(tracing.install().missing))
"""

SELFTEST = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
import selftest
sys.exit(selftest.main())
"""

# a traced run of both walks: each objective with gold and with predicted
# mentions, and resolution, on a document of two segments; then `corefkit
# resolve` on the same document, and a dev-set allocation study of one epoch
# that predicts its gold clusters
TRACED_RUN = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.install()
from corefkit import (
    Document, EncoderConfig, EngineConfig, document_loss, init_params, resolve_document, write_jsonl,
)
from corefkit.cli import _save_model, main
from corefkit.harness import DevAllocSpec, dev_allocation_experiment
from corefkit.training import EpochRecord

doc = Document(
    "two-segments",
    [["Anna", "saw", "the", "dog"], ["Anna", "fed", "it", "happily"]],
    [((0, 0), (4, 4)), ((2, 3), (6, 6))],
)
enc = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=64, max_position=16)
tracer.active = True
for gold_mentions in (True, False):
    eng = EngineConfig(max_span_width=3, scorer_hidden_dim=6, width_embedding_dim=4,
                       prune_ratio=1.0, max_segment_tokens=4, gold_mentions=gold_mentions)
    params = init_params(enc, eng, seed=0)
    for objective in ("antecedent_only", "joint_singleton"):
        document_loss(doc, params, enc, eng, objective)
    resolve_document(doc, params, enc, eng)
with tempfile.TemporaryDirectory() as tmp:
    _save_model(Path(tmp, "model.ckpt"), params, enc, eng)
    Path(tmp, "doc.jsonl").write_text(write_jsonl([doc]))
    main(["resolve", str(Path(tmp, "model.ckpt")), str(Path(tmp, "doc.jsonl")),
          "--out-file", str(Path(tmp, "pred.jsonl"))])
cached = {doc.doc_id: doc.clusters}
history = [EpochRecord(1, 0.0, 0.0, dev_predictions=cached, extra_predictions=cached)]
dev_allocation_experiment(history, [doc], [doc], DevAllocSpec((1,), 2), patience=1)
print(json.dumps(tracer.metrics(), allow_nan=False))
"""

# `corefkit train` on a tiny model, through the traced command table; a
# handler bound before `install()` ran would read 0.0 s here
TRACED_TRAIN = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tracer = tracing.install()
from corefkit import SchemeConfig, synth_corpus, write_jsonl
from corefkit.cli import main

docs = synth_corpus(SchemeConfig(num_docs=3, seed=5, sentences_per_doc=(2, 2),
                                 entities_per_doc=(2, 2), mentions_per_entity=(2, 2)))
small = ["encoder.num_layers=1", "encoder.hidden_dim=8", "encoder.hash_vocab_size=64",
         "encoder.max_position=64", "engine.max_span_width=2", "engine.scorer_hidden_dim=4",
         "engine.width_embedding_dim=2", "engine.max_segment_tokens=64", "train.max_epochs=1",
         "train.patience=1"]
tracer.active = True
with tempfile.TemporaryDirectory() as tmp:
    Path(tmp, "train.jsonl").write_text(write_jsonl(docs[:2]))
    Path(tmp, "dev.jsonl").write_text(write_jsonl(docs[2:]))
    code = main(["train", "--train", str(Path(tmp, "train.jsonl")), "--dev", str(Path(tmp, "dev.jsonl")),
                 "--out", str(Path(tmp, "run")), "--seed", "0"] + [a for k in small for a in ("--set", k)])
assert code == 0
print(json.dumps(tracer.metrics(), allow_nan=False))
"""


def _child(script):
    result = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result


def _reject_constant(name):
    raise ValueError(f"non-finite metric {name}")


def test_every_traced_function_exists():
    assert json.loads(_child(CHILD).stdout) == []


def test_traced_walks_give_finite_metrics():
    out = _child(TRACED_RUN)
    metrics = json.loads(out.stdout.splitlines()[-1], parse_constant=_reject_constant)
    counts = {name: value for name, (value, unit) in metrics.items() if unit == "count"}
    # seven walks over two segments each
    assert counts["documents.segments"] == 14
    assert counts["engine.pair_forward_calls"] == counts["engine.pair_backward_calls"] > 0
    # the command's handler is the traced one
    assert metrics["cli.resolve_s"][0] > 0.0
    # so are the study and the CEAF alignment it reaches through the metrics
    assert metrics["harness.devalloc_s"][0] > 0.0
    assert counts["metrics.assignment_calls"] > 0


def test_traced_train_command_reads_its_span():
    metrics = json.loads(_child(TRACED_TRAIN).stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert metrics["cli.train_s"][0] > 0.0
    assert metrics["cli.train_s"][0] >= metrics["training.document_loss_s"][0] > 0.0


def test_workloads_import_and_selftest_passes():
    assert _child(SELFTEST).stdout.splitlines()[-1] == "selftest: ok"
