"""The workloads: inputs, one timed round of work, and the checks.

Each workload builds its inputs from the seed in `setup`, runs whole rounds
of the same operations in `round`, and checks the first round's outputs in
`check`. Every training run takes a fixed number of epochs (patience equals
max epochs), so no run's amount of work depends on its scores.

Each timed operation books its units of work in one phase: `train` in
tokens (epochs x training tokens, over the wall time of the training call,
per-epoch dev evaluation included), `resolve` in tokens, and `select` in dev
subsets replayed by the dev-set allocation study. An operation is as small
as the public interface allows: one training call, one document for
in-process resolution, one file for the command line, one study. Every
round repeats the same operations on the same inputs, and each operation
has a key that names it across rounds.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import time
from collections import defaultdict
from pathlib import Path

from corefkit import (
    EncoderConfig,
    EngineConfig,
    SchemeConfig,
    TrainConfig,
    continued_train,
    document_loss,
    evaluate_docs,
    init_params,
    load_checkpoint,
    resolve_document,
    synth_corpus,
    train,
    write_jsonl,
)
from corefkit.bundled import load_bundled_doc
from corefkit.cli import main as cli_main
from corefkit.engine import span_dim
from corefkit.harness import DevAllocSpec, dev_allocation_experiment
from corefkit.training import EpochRecord

import checks
import scorer
from gauge import Gauge

# the acceptance suite's transfer setting: an 86,399-scalar model
SRC_ENC = EncoderConfig(num_layers=2, hidden_dim=16, hash_vocab_size=2048, max_position=128)
SRC_ENG = EngineConfig(max_span_width=3, pruning_mode="reformulated",
                       scorer_hidden_dim=128, width_embedding_dim=8)
TGT_ENG = dataclasses.replace(SRC_ENG, pruning_mode="original")
SHORT_DOCS = dict(sentences_per_doc=(2, 4), entities_per_doc=(2, 3), mentions_per_entity=(1, 4))
SELECT_PATIENCE = 10


class Recorder:
    """One (key, units, start, end) sample per timed operation, by phase."""

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, phase: str, key, units: float, fn):
        self.attempted += 1
        self.gauge.tick()
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{phase} {key}: {type(exc).__name__}: {exc}")
            return None
        self.samples[phase].append((key, units, start, time.perf_counter()))
        self.gauge.tick()
        return out


def tokens(docs) -> int:
    return sum(d.num_tokens for d in docs)


def _fixed(epochs: int, **kwargs) -> TrainConfig:
    return TrainConfig(max_epochs=epochs, patience=epochs, seed=0, **kwargs)


def _epoch_f1s(history, docs, which: str) -> list[float]:
    """Independent avg F1 per epoch from a history's cached predictions."""
    out = []
    for record in history:
        cached = record.dev_predictions if which == "dev" else record.extra_predictions
        out.append(scorer.score((d.clusters, cached[d.doc_id]) for d in docs)["avg_f1"])
    return out


def _history_checks(label: str, history, dev_docs) -> list[str]:
    """Loss falls; every epoch's reported dev F1 matches its cached predictions."""
    failures = checks.loss_decreases(label, [r.train_loss for r in history])
    for record, f1 in zip(history, _epoch_f1s(history, dev_docs, "dev")):
        if not abs(record.dev_avg_f1 - f1) <= checks.F1_TOL:
            failures.append(f"{label} epoch {record.epoch}: dev F1 {record.dev_avg_f1!r}, independent {f1!r}")
    return failures


def _evaluated(label: str, docs, params, enc, eng) -> tuple[list[str], float]:
    """Evaluate with the program, re-score its clusters, check their shape."""
    report, preds = evaluate_docs(docs, params, enc, eng)
    pairs = [(d.clusters, preds[d.doc_id]) for d in docs]
    failures = checks.f1_matches(label, checks.report_f1s(report), pairs)
    for d in docs:
        failures += checks.clusters_valid(label, d, preds[d.doc_id], eng.max_span_width, eng.keeps_singletons)
    return failures, report.avg_f1


def _gradient_checks(enc, variants) -> list[str]:
    """Finite differences on the bundled document, per (objective, engine config)."""
    doc = load_bundled_doc()
    failures = []
    for objective, eng in variants:
        params = init_params(enc, eng, seed=1)
        failures += checks.gradients_match(
            f"gradient {objective}, gold_mentions={eng.gold_mentions}",
            lambda backward: document_loss(doc, params, enc, eng, objective, backward=backward),
            params, scalars=60, seed=1,
        )
    return failures


class TransferShort:
    """The paper's protocol on short documents.

    A source model trains on 200 short documents; continued training from it
    and training from scratch then run on scheme-shifted target sets (no
    singletons, persons only) of several sizes; the source model resolves
    its corpus; and the source run's cached predictions feed a dev-set
    allocation study. One optimizer step per short document.
    """

    # enough epochs that every run's loss falls, on every seed tried
    source_epochs = 3
    target_epochs = 8
    target_sizes = (5, 10)
    # studies with their own subset draws, each timed on its own
    select_sizes = (5, 10, 15)
    select_subsets = 50
    select_repeats = 4
    # resolving the corpus once takes a thirtieth of a round: too few
    # samples to time it against the machine's drift
    resolve_passes = 6

    def setup(self, seed: int, workdir: Path) -> dict:
        src = synth_corpus(SchemeConfig(num_docs=230, seed=2 * seed, **SHORT_DOCS))
        # narrow ranges: a target run trains on 5 or 10 documents and
        # evaluates 10 each epoch, so with wide ones its time per training
        # token followed the seed's draw of document lengths
        tgt = synth_corpus(SchemeConfig(
            num_docs=45, seed=2 * seed + 1, sentences_per_doc=(4, 4), entities_per_doc=(3, 3),
            mentions_per_entity=(3, 4), annotate_singletons=False,
            allowed_entity_types=frozenset({"person"}),
        ))
        return {
            "src_train": src[:200], "src_dev": src[200:215], "src_test": src[215:], "src": src,
            "pool": tgt[:20], "tgt_dev": tgt[20:30], "tgt_test": tgt[30:],
            "init_src": init_params(SRC_ENC, SRC_ENG, seed=0),
            "init_tgt": init_params(SRC_ENC, TGT_ENG, seed=10),
        }

    def round(self, s: dict, rec: Recorder) -> dict:
        # the source run, then continued and scratch runs per target size
        source = rec.op("train", "source", self.source_epochs * tokens(s["src_train"]), lambda: train(
            s["src_train"], s["src_dev"], s["init_src"], SRC_ENC, SRC_ENG, _fixed(self.source_epochs),
            extra_eval_docs=s["src_test"], cache_predictions=True))
        cfg = _fixed(self.target_epochs)
        runs = {}
        for size in self.target_sizes:
            docs = s["pool"][:size]
            units = self.target_epochs * tokens(docs)
            runs["continued", size] = rec.op("train", ("continued", size), units, lambda docs=docs: continued_train(
                source.checkpoint.params, docs, s["tgt_dev"], SRC_ENC, TGT_ENG, cfg))
            runs["scratch", size] = rec.op("train", ("scratch", size), units, lambda docs=docs: train(
                docs, s["tgt_dev"], s["init_tgt"], SRC_ENC, TGT_ENG, cfg))
        for _ in range(self.resolve_passes):
            resolved = [
                rec.op("resolve", i, d.num_tokens,
                       lambda d=d: resolve_document(d, source.checkpoint.params, SRC_ENC, SRC_ENG))
                for i, d in enumerate(s["src"])
            ]
        tables = [
            rec.op("select", seed, len(self.select_sizes) * self.select_subsets,
                   lambda seed=seed: dev_allocation_experiment(
                       source.history, s["src_dev"], s["src_test"],
                       DevAllocSpec(self.select_sizes, self.select_subsets, seed=seed), SELECT_PATIENCE))
            for seed in range(self.select_repeats)
        ]
        return {"source": source, "runs": runs, "resolved": resolved, "tables": tables}

    def check(self, s: dict, out: dict) -> tuple[list[str], str]:
        source = out["source"]
        failures = _gradient_checks(SRC_ENC, (("joint_singleton", SRC_ENG), ("antecedent_only", TGT_ENG)))
        failures += _history_checks("source", source.history, s["src_dev"])
        init_failures, init_f1 = _evaluated("untrained source test", s["src_test"], s["init_src"], SRC_ENC, SRC_ENG)
        trained_failures, trained_f1 = _evaluated(
            "source test", s["src_test"], source.checkpoint.params, SRC_ENC, SRC_ENG)
        failures += init_failures + trained_failures
        if not trained_f1 >= init_f1 + 0.1:
            failures.append(f"source model test F1 {trained_f1:.4f} not clearly above untrained {init_f1:.4f}")
        for d, clusters in zip(s["src"], out["resolved"]):
            failures += checks.clusters_valid("source resolve", d, clusters, SRC_ENG.max_span_width,
                                              SRC_ENG.keeps_singletons)
        benefit = []
        for (init, size), run in out["runs"].items():
            label = f"{init} {size}"
            failures += checks.loss_decreases(label, [r.train_loss for r in run.history])
            dev_preds = [resolve_document(d, run.checkpoint.params, SRC_ENC, TGT_ENG) for d in s["tgt_dev"]]
            failures += checks.f1_matches(f"{label} checkpoint dev", {"avg_f1": run.checkpoint.dev_avg_f1},
                                          [(d.clusters, p) for d, p in zip(s["tgt_dev"], dev_preds)])
            test_failures, f1 = _evaluated(f"{label} test", s["tgt_test"], run.checkpoint.params, SRC_ENC, TGT_ENG)
            failures += test_failures
            benefit.append(f"{label}: {f1:.3f}")
        test_f1 = _epoch_f1s(source.history, s["src_test"], "test")
        for rows in out["tables"]:
            failures += checks.devalloc_rows(
                "source dev allocation", rows, self.select_sizes, self.select_subsets, len(s["src_dev"]),
                source.dev_scores(), test_f1, SELECT_PATIENCE,
            )
        info = f"source test F1 {init_f1:.3f} -> {trained_f1:.3f}; target test F1 " + ", ".join(benefit)
        return failures, info


# multi-segment documents of about 365 tokens and 13 gold entities; narrow
# ranges, since a handful of documents must cost about the same on every seed
LONG_DOCS = dict(sentences_per_doc=(20, 20), entities_per_doc=(13, 13), mentions_per_entity=(8, 10))
# Gold mentions: with predicted ones, how many gold mentions survive pruning
# follows the half-trained mention scorer, and the teacher-forced walk's pair
# scorings varied by half from seed to seed; with gold mentions they vary by
# under 1%. Original pruning drops singletons from the output.
LONG_ENG = EngineConfig(max_span_width=3, pruning_mode="original", scorer_hidden_dim=128,
                        width_embedding_dim=8, max_segment_tokens=128, gold_mentions=True)


def _cli(argv: list[str]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"corefkit {argv[0]} exited {code}: {sink.getvalue().strip()}")


def _read_docs(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _spans(clusters) -> list[tuple]:
    return [tuple(tuple(m) for m in c) for c in clusters]


def _canonical(clusters) -> list[tuple]:
    return sorted(tuple(sorted(c)) for c in clusters)


class LongDocs:
    """Multi-segment documents through the command line, in process.

    `corefkit train` (caching per-epoch dev predictions) and `corefkit
    resolve` on the training and held-out files. The teacher-forced cluster
    walk grows with spans x live clusters, so pair and merge scoring dominate
    training. The run's cached dev predictions then feed a dev-set allocation
    study whose subsets are scored on the whole dev set.
    """

    epochs = 3
    sizes = dict(train=4, dev=4, test=6)
    select_sizes = (1, 2, 4)
    select_subsets = 40
    # each file is resolved this many times per round (once takes a
    # twentieth of a round); the last pass's output is checked
    resolve_passes = 4

    def setup(self, seed: int, workdir: Path) -> dict:
        docs = synth_corpus(SchemeConfig(num_docs=sum(self.sizes.values()), seed=seed, **LONG_DOCS))
        workdir.mkdir(parents=True, exist_ok=True)
        s = {"workdir": workdir, "resolve": []}
        start = 0
        for name, n in self.sizes.items():
            s[name] = docs[start:start + n]
            start += n
        for name in ("train", "dev"):
            s[f"{name}_file"] = workdir / f"{name}.jsonl"
            s[f"{name}_file"].write_text(write_jsonl(s[name]))
        # the training documents and the held-out ones, one file each
        for i, doc in enumerate(s["train"] + s["test"]):
            path = workdir / f"doc{i}.jsonl"
            path.write_text(write_jsonl([doc]))
            s["resolve"].append((doc, path, workdir / f"pred{i}.jsonl"))
        return s

    def _settings(self) -> list[str]:
        values = {f"encoder.{k}": v for k, v in dataclasses.asdict(SRC_ENC).items()}
        values.update({f"engine.{k}": v for k, v in dataclasses.asdict(LONG_ENG).items()})
        values.update({"train.max_epochs": self.epochs, "train.patience": self.epochs})
        out = []
        for k, v in values.items():
            out += ["--set", f"{k}={str(v).lower() if isinstance(v, bool) or v is None else v}"]
        return out

    def round(self, s: dict, rec: Recorder) -> dict:
        run_dir = s["workdir"] / "run"
        ckpt = run_dir / "model.ckpt"
        rec.op("train", "cli", self.epochs * tokens(s["train"]), lambda: _cli(
            ["train", "--train", str(s["train_file"]), "--dev", str(s["dev_file"]), "--out", str(run_dir),
             "--cache-predictions", "--seed", "0"] + self._settings()))
        for _ in range(self.resolve_passes):
            for i, (doc, path, pred) in enumerate(s["resolve"]):
                rec.op("resolve", i, doc.num_tokens, lambda path=path, pred=pred: _cli(
                    ["resolve", str(ckpt), str(path), "--out-file", str(pred)]))
        history = self._history(run_dir) if ckpt.exists() else []
        spec = DevAllocSpec(self.select_sizes, self.select_subsets, seed=0)
        rows = rec.op("select", "study", len(self.select_sizes) * self.select_subsets, lambda: dev_allocation_experiment(
            history, s["dev"], s["dev"], spec, SELECT_PATIENCE))
        return {"history": history, "rows": rows}

    @staticmethod
    def _history(run_dir: Path) -> list:
        """Epoch records from the run's history.csv and predictions.jsonl."""
        preds = defaultdict(dict)
        for record in _read_docs(run_dir / "predictions.jsonl"):
            preds[record["epoch"]][record["doc_id"]] = _spans(record["clusters"])
        with open(run_dir / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [
            EpochRecord(epoch=int(r["epoch"]), train_loss=float(r["train_loss"]), dev_avg_f1=float(r["dev_avg_f1"]),
                        dev_predictions=preds[int(r["epoch"])], extra_predictions=preds[int(r["epoch"])])
            for r in rows
        ]

    def check(self, s: dict, out: dict) -> tuple[list[str], str]:
        workdir = s["workdir"]
        history = out["history"]
        # the gold-mention path `corefkit train` takes here, under both objectives
        failures = _gradient_checks(SRC_ENC, (("joint_singleton", LONG_ENG), ("antecedent_only", LONG_ENG)))
        failures += _history_checks("long-docs", history, s["dev"])
        params, _, _ = load_checkpoint(workdir / "run" / "model.ckpt")
        dim = span_dim(SRC_ENC, LONG_ENG)
        gold = [doc for doc, _, _ in s["resolve"]]
        predicted = [_predicted_doc(r) for _, _, pred in s["resolve"] for r in _read_docs(pred)]
        failures += checks.same_documents("resolve", gold, predicted)
        for g, p in zip(gold, predicted):
            failures += checks.clusters_valid("resolve", g, p.clusters, LONG_ENG.max_span_width,
                                              LONG_ENG.keeps_singletons)
        key_file = workdir / "resolved_key.jsonl"
        response_file = workdir / "resolved_response.jsonl"
        key_file.write_text("".join(path.read_text() for _, path, _ in s["resolve"]))
        response_file.write_text("".join(pred.read_text() for _, _, pred in s["resolve"]))
        _cli(["score", str(key_file), str(response_file), "--out", str(workdir / "score")])
        report = json.loads((workdir / "score" / "report.json").read_text())
        reported = {m: report[m]["f1"] for m in scorer.METRICS}
        reported["avg_f1"] = report["avg_f1"]
        failures += checks.f1_matches("corefkit score", reported, [(g.clusters, p.clusters) for g, p in zip(gold, predicted)])
        for g, p in zip(gold, predicted):
            sizes = []
            api = resolve_document(g, params, SRC_ENC, LONG_ENG,
                                   on_segment=lambda i, st: sizes.append((st.float_state_size(), len(st.clusters))))
            failures += checks.state_is_constant_memory(f"model {g.doc_id}", sizes, dim)
            if _canonical(api) != _canonical(p.clusters):
                failures.append(f"resolve_document and corefkit resolve disagree on {g.doc_id}")
            failures += self._oracle(g, params, dim)
        failures += checks.devalloc_rows(
            "long-docs dev allocation", out["rows"], self.select_sizes, self.select_subsets, len(s["dev"]),
            [r.dev_avg_f1 for r in history], _epoch_f1s(history, s["dev"], "dev"), SELECT_PATIENCE,
        )
        return failures, f"long-docs dev F1 by epoch {[round(r.dev_avg_f1, 4) for r in history]}"

    @staticmethod
    def _oracle(doc, params, dim) -> list[str]:
        """Gold mentions and an oracle pair scorer must rebuild the gold clusters."""
        entity = {m: e for e, c in enumerate(doc.clusters) for m in c}
        eng = dataclasses.replace(LONG_ENG, gold_mentions=True, emit_singletons=True)
        sizes = []
        predicted = resolve_document(
            doc, params, SRC_ENC, eng,
            pair_score_fn=lambda span, x, c: 1.0 if entity[c.mentions[0]] == entity[span] else -1.0,
            alpha_fn=lambda span, x, c: 0.5,
            on_segment=lambda i, st: sizes.append((st.float_state_size(), len(st.clusters))),
        )
        return (checks.gold_clusters_reproduced("oracle", doc, predicted)
                + checks.state_is_constant_memory(f"oracle {doc.doc_id}", sizes, dim))


@dataclasses.dataclass
class _Predicted:
    doc_id: str
    sentences: list
    clusters: list


def _predicted_doc(record: dict) -> _Predicted:
    """A document as read from a JSONL line, without the program's parser."""
    return _Predicted(record["doc_id"], record["sentences"], _spans(record["clusters"]))


WORKLOADS = {"transfer-short": TransferShort, "long-docs": LongDocs}
