"""Command-line interface: one subcommand per pipeline stage.

Configuration comes from an INI-style file with [encoder], [engine], [train],
[synth] sections of flat key=value pairs; any value can be overridden on the
command line with repeated ``--set section.key=value`` flags. Unknown keys are
rejected. The COREF_SEED environment variable supplies the default seed.

Commands that produce artifacts write them into ``--out DIR`` together with a
run manifest (effective config, seed, sha256 of every input file) sufficient
to reproduce the run. Errors exit nonzero with a single machine-parsable line
``error:<category>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

from .bundled import load_bundled_doc
from .conll import ConllParseError, parse_conll, write_conll
from .documents import Document, DocumentError, SegmentationError
from .encoder import EncoderConfig, FreezeMask
from .engine import EngineConfig, init_params, param_layout, resolve_document
from .harness import (
    CorpusSplit,
    DevAllocSpec,
    MissingPredictionsError,
    dev_allocation_experiment,
    forgetting_eval,
    layer_freezing_sweep,
    learning_curve,
)
from .jsonl import JsonlParseError, parse_jsonl, write_jsonl
from .metrics import score_corpus
from .numeric import NumericError, grad_check, load_checkpoint, save_checkpoint
from .synth import SchemeConfig, synth_corpus
from .training import (
    ShapeMismatchError,
    TrainConfig,
    TrainResult,
    check_compatible,
    continued_train,
    document_loss,
    train,
)


class CliError(Exception):
    def __init__(self, category: str, detail: str):
        super().__init__(detail)
        self.category = category


_ERROR_CATEGORIES = (
    (ConllParseError, "parse"),
    (JsonlParseError, "parse"),
    (DocumentError, "parse"),
    (SegmentationError, "parse"),
    (MissingPredictionsError, "config"),
    (ShapeMismatchError, "shape"),
    (NumericError, "numeric"),
    (FileNotFoundError, "io"),
    (ValueError, "config"),
)


def _categorize(exc: Exception) -> str:
    if isinstance(exc, CliError):
        return exc.category
    for klass, category in _ERROR_CATEGORIES:
        if isinstance(exc, klass):
            return category
    return "internal"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_SECTIONS = {
    "encoder": EncoderConfig,
    "engine": EngineConfig,
    "train": TrainConfig,
    "synth": SchemeConfig,
}


def _parse_scalar(text: str, target_type):
    if target_type is bool:
        lowered = text.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise CliError("config", f"expected a boolean, got {text!r}")
    if target_type is int:
        return int(text)
    if target_type is float:
        return float(text)
    return text


def _coerce(section: str, key: str, text: str):
    cls = _SECTIONS[section]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    if key not in fields:
        raise CliError("config", f"unknown key {section}.{key}")
    if section == "train" and key == "freeze":
        return FreezeMask(None if text.strip().lower() == "none" else int(text))
    if section == "synth" and key == "allowed_entity_types":
        if text.strip().lower() in ("", "none", "all"):
            return None
        return frozenset(t.strip() for t in text.split(",") if t.strip())
    if section == "synth" and key in ("sentences_per_doc", "entities_per_doc", "mentions_per_entity"):
        lo, hi = (int(p) for p in text.split(","))
        return (lo, hi)
    value = fields[key].default
    if isinstance(value, bool):
        return _parse_scalar(text, bool)
    if isinstance(value, int):
        return _parse_scalar(text, int)
    if isinstance(value, float):
        return _parse_scalar(text, float)
    if isinstance(value, str):
        return text
    if value is None:  # Optional[bool] emit_singletons
        if text.strip().lower() == "none":
            return None
        return _parse_scalar(text, bool)
    raise CliError("config", f"cannot parse {section}.{key}")


class EffectiveConfig:
    """Section -> key -> value map built from file plus --set overrides."""

    def __init__(self):
        self.values: dict[str, dict] = {name: {} for name in _SECTIONS}

    def load_file(self, path: str) -> None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise CliError("io", f"config file not found: {path}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise CliError("config", f"unknown config section [{section}]")
            for key, text in parser.items(section):
                self.values[section][key] = _coerce(section, key, text)

    def apply_set(self, assignments: Sequence[str]) -> None:
        for assignment in assignments:
            if "=" not in assignment or "." not in assignment.split("=", 1)[0]:
                raise CliError("config", f"--set expects section.key=value, got {assignment!r}")
            target, text = assignment.split("=", 1)
            section, key = target.split(".", 1)
            if section not in _SECTIONS:
                raise CliError("config", f"unknown config section [{section}]")
            self.values[section][key] = _coerce(section, key, text)

    def build(self, section: str, base=None):
        """The section's config: ``base`` (default: the defaults) with this run's keys replaced."""
        if base is None:
            base = _SECTIONS[section]()
        try:
            cfg = dataclasses.replace(base, **self.values[section])
            if hasattr(cfg, "validate"):
                cfg.validate()
            return cfg
        except (TypeError, ValueError) as exc:
            raise CliError("config", f"[{section}] {exc}") from exc

    def to_dict(self) -> dict:
        return {s: _jsonable(v) for s, v in self.values.items() if v}


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, FreezeMask):
        return value.trainable_top_layers
    if isinstance(value, tuple):
        return list(value)
    return value


def _effective_config(args) -> EffectiveConfig:
    config = EffectiveConfig()
    if getattr(args, "config", None):
        config.load_file(args.config)
    config.apply_set(getattr(args, "set", []) or [])
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("COREF_SEED")
        seed = int(env) if env else None
    if seed is not None:
        config.values["train"]["seed"] = int(seed)
        config.values["synth"]["seed"] = int(seed)
    return config


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


def _format_of(path: str, explicit: Optional[str] = None) -> str:
    if explicit:
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix in (".conll", ".conllu", ".v4_gold_conll"):
        return "conll"
    if suffix in (".jsonl", ".json"):
        return "jsonl"
    raise CliError("config", f"cannot infer format of {path}; use --format")


def load_docs(path: str, fmt: Optional[str] = None) -> list[Document]:
    text = Path(path).read_text()
    return parse_conll(text) if _format_of(path, fmt) == "conll" else parse_jsonl(text)


def render_docs(docs: Sequence[Document], fmt: str) -> str:
    if fmt == "conll":
        return write_conll(list(docs))
    if fmt == "jsonl":
        return write_jsonl(list(docs))
    raise CliError("config", f"unknown format {fmt!r}")


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class RunDir:
    def __init__(self, path: Optional[str], command: str, config: EffectiveConfig, inputs):
        self.path = Path(path) if path else None
        self.command = command
        self.config = config
        self.inputs = [p for p in inputs if p]  # optional inputs arrive as None
        self.outputs: list[str] = []
        if self.path:
            self.path.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> None:
        if self.path:
            (self.path / name).write_text(text)
            self.outputs.append(name)

    def write_csv(self, name: str, rows: list[dict]) -> None:
        if self.path and rows:
            with open(self.path / name, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
            self.outputs.append(name)

    def file(self, name: str) -> Path:
        if not self.path:
            raise CliError("config", "this command requires --out DIR")
        self.outputs.append(name)
        return self.path / name

    def finalize(self, seed: Optional[int]) -> None:
        if not self.path:
            return
        manifest = {
            "command": self.command,
            "config": self.config.to_dict(),
            "seed": seed,
            "inputs": {p: _sha256(p) for p in self.inputs},
            "outputs": sorted(set(self.outputs)),
        }
        (self.path / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _history_csv(result: TrainResult) -> list[dict]:
    return [
        {"epoch": r.epoch, "train_loss": r.train_loss, "dev_avg_f1": r.dev_avg_f1}
        for r in result.history
    ]


def _predictions_jsonl(result: TrainResult) -> str:
    lines = []
    for record in result.history:
        for split_name, preds in (("dev", record.dev_predictions), ("test", record.extra_predictions)):
            if preds is None:
                continue
            for doc_id, clusters in sorted(preds.items()):
                lines.append(
                    json.dumps(
                        {
                            "epoch": record.epoch,
                            "split": split_name,
                            "doc_id": doc_id,
                            "clusters": [[list(m) for m in c] for c in clusters],
                        },
                        sort_keys=True,
                    )
                )
    return "\n".join(lines) + "\n" if lines else ""


def _save_model(path: Path, params, encoder_cfg, engine_cfg, meta=None) -> None:
    full_meta = {
        "encoder": asdict(encoder_cfg),
        "engine": asdict(engine_cfg),
    }
    full_meta.update(meta or {})
    save_checkpoint(path, params, meta=full_meta)


def _load_model(path: str):
    """(params, encoder config, engine config) of a saved model."""
    params, _, meta = load_checkpoint(path)
    try:
        encoder_cfg = EncoderConfig(**meta["encoder"])
        engine_cfg = EngineConfig(**meta["engine"])
    except (KeyError, TypeError) as exc:
        raise CliError("shape", f"checkpoint {path} lacks model configuration: {exc}") from exc
    layout = param_layout(encoder_cfg, engine_cfg)
    check_compatible(params, layout, f"checkpoint {path} disagrees with its own configs")
    _check_segment_fits(encoder_cfg, engine_cfg)
    return params, encoder_cfg, engine_cfg


def _check_segment_fits(encoder_cfg: EncoderConfig, engine_cfg: EngineConfig) -> None:
    """Reject a model whose segments could outgrow its position table."""
    if engine_cfg.max_segment_tokens > encoder_cfg.max_position:
        raise ValueError(
            f"engine.max_segment_tokens {engine_cfg.max_segment_tokens} exceeds "
            f"encoder.max_position {encoder_cfg.max_position}"
        )


def _split_from_args(args, fmt=None) -> CorpusSplit:
    return CorpusSplit(
        train=load_docs(args.train, fmt),
        dev=load_docs(args.dev, fmt),
        test=load_docs(args.test, fmt) if getattr(args, "test", None) else [],
    )


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip() != ""]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    docs = load_docs(args.input, args.from_format)
    for fmt in args.to:
        text = render_docs(docs, fmt)
        docs = parse_conll(text) if fmt == "conll" else parse_jsonl(text)
    final_fmt = args.to[-1]
    text = render_docs(docs, final_fmt)
    if args.out_file:
        Path(args.out_file).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"converted {len(docs)} documents to {final_fmt}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    config = _effective_config(args)
    scheme = config.build("synth")
    docs = synth_corpus(scheme)
    fmt = args.format or _format_of(args.out_file)
    Path(args.out_file).write_text(render_docs(docs, fmt))
    run = RunDir(args.out, "synth", config, [])
    run.finalize(scheme.seed)
    print(f"wrote {len(docs)} synthetic documents to {args.out_file}")
    return 0


def cmd_score(args) -> int:
    config = _effective_config(args)
    key_docs = {d.doc_id: d for d in load_docs(args.key, args.format)}
    resp_docs = {d.doc_id: d for d in load_docs(args.response, args.format)}
    if set(key_docs) != set(resp_docs):
        missing = set(key_docs) ^ set(resp_docs)
        raise CliError("config", f"document ids differ between key and response: {sorted(missing)[:5]}")
    report = score_corpus(
        (key_docs[doc_id].clusters, resp_docs[doc_id].clusters) for doc_id in sorted(key_docs)
    )
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    run = RunDir(args.out, "score", config, [args.key, args.response])
    run.write_text("report.json", payload)
    run.finalize(None)
    print(payload)
    print(f"avg F1 {report.avg_f1:.4f} over {len(key_docs)} documents", file=sys.stderr)
    return 0


def cmd_resolve(args) -> int:
    config = _effective_config(args)
    params, encoder_cfg, engine_cfg = _load_model(args.model)
    docs = load_docs(args.input, args.format)
    predicted = [
        doc.replace_clusters(resolve_document(doc, params, encoder_cfg, engine_cfg))
        for doc in docs
    ]
    if args.to:
        fmt = args.to
    elif args.out_file:
        fmt = _format_of(args.out_file)
    else:
        fmt = "jsonl"
    text = render_docs(predicted, fmt)
    if args.out_file:
        Path(args.out_file).write_text(text)
    else:
        sys.stdout.write(text)
    run = RunDir(args.out, "resolve", config, [args.model, args.input])
    run.write_text("predictions." + fmt, text)
    run.finalize(None)
    total = sum(len(d.clusters) for d in predicted)
    print(f"resolved {len(docs)} documents, {total} clusters", file=sys.stderr)
    return 0


def _run_configs(config, encoder_cfg, source_engine_cfg=None):
    """Engine and train configs; [engine] keys replace the source's settings one by one."""
    engine_cfg = config.build("engine", base=source_engine_cfg)
    _check_segment_fits(encoder_cfg, engine_cfg)
    return engine_cfg, config.build("train")


def _load_source(config, path: str):
    """A source model's (params, encoder, engine); the run's [encoder] keys must match it."""
    source_params, encoder_cfg, source_engine_cfg = _load_model(path)
    for key, value in config.values["encoder"].items():
        if getattr(encoder_cfg, key) != value:
            raise CliError(
                "config",
                f"[encoder] {key}={value} differs from the source model's {getattr(encoder_cfg, key)}",
            )
    return source_params, encoder_cfg, source_engine_cfg


def _train_common(config, source_path=None):
    """(source params, encoder, engine, train configs); the params are None without a source.

    A source model fixes the encoder and is the base of the engine settings.
    """
    if source_path is None:
        source_params, encoder_cfg, source_engine_cfg = None, config.build("encoder"), None
    else:
        source_params, encoder_cfg, source_engine_cfg = _load_source(config, source_path)
    return (source_params, encoder_cfg, *_run_configs(config, encoder_cfg, source_engine_cfg))


def cmd_train(args) -> int:
    config = _effective_config(args)
    _, encoder_cfg, engine_cfg, train_cfg = _train_common(config)
    train_docs = load_docs(args.train)
    dev_docs = load_docs(args.dev)
    params = init_params(encoder_cfg, engine_cfg, seed=train_cfg.seed)
    result = train(
        train_docs, dev_docs, params, encoder_cfg, engine_cfg, train_cfg,
        cache_predictions=args.cache_predictions,
    )
    inputs = [args.train, args.dev]
    run = RunDir(args.out, "train", config, inputs)
    _save_model(
        run.file("model.ckpt"), result.checkpoint.params, encoder_cfg, engine_cfg,
        meta={
            "epoch": result.checkpoint.epoch,
            "dev_avg_f1": result.checkpoint.dev_avg_f1,
        },
    )
    run.write_csv("history.csv", _history_csv(result))
    if args.cache_predictions:
        run.write_text("predictions.jsonl", _predictions_jsonl(result))
    run.finalize(train_cfg.seed)
    print(
        f"trained {len(result.history)} epochs; best dev avg F1 "
        f"{result.checkpoint.dev_avg_f1:.4f} at epoch {result.checkpoint.epoch}"
    )
    return 0


def cmd_transfer(args) -> int:
    config = _effective_config(args)
    source_params, encoder_cfg, engine_cfg, train_cfg = _train_common(config, args.source)
    train_docs = load_docs(args.train) if args.train else []
    dev_docs = load_docs(args.dev)
    result = continued_train(
        source_params, train_docs, dev_docs, encoder_cfg, engine_cfg, train_cfg,
    )
    run = RunDir(args.out, "transfer", config, [args.source, args.dev, args.train])
    _save_model(
        run.file("model.ckpt"), result.checkpoint.params, encoder_cfg, engine_cfg,
        meta={"epoch": result.checkpoint.epoch, "dev_avg_f1": result.checkpoint.dev_avg_f1},
    )
    run.write_csv("history.csv", _history_csv(result))
    run.finalize(train_cfg.seed)
    print(
        f"continued training for {len(result.history)} epochs; best dev avg F1 "
        f"{result.checkpoint.dev_avg_f1:.4f} at epoch {result.checkpoint.epoch}"
    )
    return 0


def cmd_curve(args) -> int:
    config = _effective_config(args)
    split = _split_from_args(args)
    source_params, encoder_cfg, engine_cfg, train_cfg = _train_common(config, args.source)
    rows = learning_curve(
        split, _int_list(args.sizes), encoder_cfg, engine_cfg, train_cfg, source_params
    )
    run = RunDir(args.out, "curve", config, [args.train, args.dev, args.test, args.source])
    run.write_csv("curve.csv", rows)
    run.finalize(train_cfg.seed)
    for row in rows:
        print(f"size {row['train_size']:4d}: test avg F1 {row['avg_f1']:.4f} mention F1 {row['mention_f1']:.4f}")
    return 0


def cmd_devalloc(args) -> int:
    config = _effective_config(args)
    _, encoder_cfg, engine_cfg, train_cfg = _train_common(config)
    split = _split_from_args(args)
    spec = DevAllocSpec(
        dev_subset_sizes=tuple(_int_list(args.subset_sizes)),
        num_subsets=args.num_subsets,
        seed=train_cfg.seed,
    ).validate(len(split.dev))
    params = init_params(encoder_cfg, engine_cfg, seed=train_cfg.seed)
    result = train(
        split.train, split.dev, params, encoder_cfg, engine_cfg, train_cfg,
        extra_eval_docs=split.test, cache_predictions=True, early_stop=False,
    )
    rows = dev_allocation_experiment(result.history, split.dev, split.test, spec, train_cfg.patience)
    run = RunDir(args.out, "devalloc", config, [args.train, args.dev, args.test])
    run.write_csv("devalloc.csv", rows)
    run.write_csv("history.csv", _history_csv(result))
    run.write_text("predictions.jsonl", _predictions_jsonl(result))
    run.finalize(train_cfg.seed)
    for row in rows:
        print(
            f"dev subset {row['subset_size']:3d}: expected test F1 {row['expected_test_f1']:.4f} "
            f"(std {row['std_test_f1']:.4f}), agreement {row['agreement']}/{row['num_subsets']}"
        )
    return 0


def cmd_forget(args) -> int:
    config = _effective_config(args)
    source_params, encoder_cfg, source_engine_cfg = _load_source(config, args.source)
    target_engine_cfg, train_cfg = _run_configs(config, encoder_cfg, source_engine_cfg)
    split = _split_from_args(args)
    source_test = load_docs(args.source_test)
    rows = forgetting_eval(
        source_params, source_test, split, _int_list(args.sizes),
        encoder_cfg, source_engine_cfg, target_engine_cfg, train_cfg,
    )
    run = RunDir(args.out, "forget", config, [args.source, args.source_test, args.train, args.dev, args.test])
    run.write_csv("forget.csv", rows)
    run.finalize(train_cfg.seed)
    for row in rows:
        print(
            f"target size {row['target_size']:4d}: target F1 {row['target_avg_f1']:.4f} "
            f"source F1 {row['source_avg_f1']:.4f}"
        )
    return 0


def cmd_freeze_sweep(args) -> int:
    config = _effective_config(args)
    source_params, encoder_cfg, engine_cfg, train_cfg = _train_common(config, args.source)
    split = _split_from_args(args)
    rows = layer_freezing_sweep(
        split, _int_list(args.top_k), encoder_cfg, engine_cfg, train_cfg, source_params
    )
    run = RunDir(args.out, "freeze-sweep", config, [args.train, args.dev, args.test, args.source])
    run.write_csv("freeze.csv", rows)
    run.finalize(train_cfg.seed)
    for row in rows:
        print(f"top-{row['top_k']}: test avg F1 {row['avg_f1']:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    config = _effective_config(args)
    _, encoder_cfg, engine_cfg, train_cfg = _train_common(config)
    doc = load_docs(args.doc)[0] if args.doc else load_bundled_doc()
    objective = {"joint": "joint_singleton", "antecedent": "antecedent_only"}.get(
        args.objective, args.objective
    )
    params = init_params(encoder_cfg, engine_cfg, seed=train_cfg.seed)
    err = grad_check(
        lambda backward: document_loss(doc, params, encoder_cfg, engine_cfg, objective, backward=backward),
        params,
        eps=args.eps,
        max_scalars=args.scalars,
        seed=train_cfg.seed,
    )
    print(f"gradcheck objective={objective} doc={doc.doc_id} max_rel_err={err:.3e}")
    if err >= args.tolerance:
        raise CliError("numeric", f"gradient check failed: {err:.3e} >= {args.tolerance}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _convert_args(p):
    p.add_argument("input")
    p.add_argument("--from-format", choices=["conll", "jsonl"], dest="from_format")
    p.add_argument("--to", action="append", required=True, choices=["conll", "jsonl"],
                   help="target format; may be repeated to chain conversions")
    p.add_argument("--out-file")


def _synth_args(p):
    p.add_argument("--out-file", required=True)
    p.add_argument("--format", choices=["conll", "jsonl"])


def _score_args(p):
    p.add_argument("key")
    p.add_argument("response")
    p.add_argument("--format", choices=["conll", "jsonl"])


def _resolve_args(p):
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("--format", choices=["conll", "jsonl"], help="input format")
    p.add_argument("--to", choices=["conll", "jsonl"], help="output format")
    p.add_argument("--out-file")


def _train_args(p):
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--cache-predictions", action="store_true")


def _transfer_args(p):
    p.add_argument("--source", required=True, help="source checkpoint")
    p.add_argument("--train", help="target training documents (omit for zero-shot)")
    p.add_argument("--dev", required=True)


def _split_args(p):
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--test", required=True)


def _curve_args(p):
    _split_args(p)
    p.add_argument("--sizes", required=True, help="comma-separated training sizes")
    p.add_argument("--source", help="source checkpoint for transfer init")


def _devalloc_args(p):
    _split_args(p)
    p.add_argument("--subset-sizes", required=True, dest="subset_sizes")
    p.add_argument("--num-subsets", type=int, default=20, dest="num_subsets")


def _forget_args(p):
    _split_args(p)
    p.add_argument("--source", required=True)
    p.add_argument("--source-test", required=True, dest="source_test")
    p.add_argument("--sizes", required=True)


def _freeze_sweep_args(p):
    _split_args(p)
    p.add_argument("--top-k", required=True, dest="top_k")
    p.add_argument("--source", help="source checkpoint (default: train from scratch)")


def _gradcheck_args(p):
    p.add_argument("--objective", default="joint", help="joint or antecedent")
    p.add_argument("--doc", help="JSONL/CoNLL document (default: bundled)")
    p.add_argument("--scalars", type=int, default=300)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)


def _commands() -> dict:
    """Name -> (help, its own arguments, handler, whether --out is required).

    Built on each call, so that a parser gets the handlers bound in this
    module when it is built: ``bench/tracing.py`` rebinds ``cmd_train`` and
    ``cmd_resolve`` to time them.
    """
    return {
        "convert": ("convert between CoNLL and JSONL", _convert_args, cmd_convert, False),
        "synth": ("generate a synthetic corpus", _synth_args, cmd_synth, False),
        "score": ("score a response file against a key file", _score_args, cmd_score, False),
        "resolve": ("predict clusters with a trained model", _resolve_args, cmd_resolve, False),
        "train": ("train a model", _train_args, cmd_train, True),
        "transfer": ("continued training from a source model", _transfer_args, cmd_transfer, True),
        "curve": ("learning curve over training-set sizes", _curve_args, cmd_curve, True),
        "devalloc": ("dev-set allocation study", _devalloc_args, cmd_devalloc, True),
        "forget": ("catastrophic forgetting curves", _forget_args, cmd_forget, True),
        "freeze-sweep": ("trainable-top-layers sweep", _freeze_sweep_args, cmd_freeze_sweep, True),
        "gradcheck": ("finite-difference gradient verification", _gradcheck_args, cmd_gradcheck, False),
    }


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser; with ``only``, just that subcommand's parser is built."""
    parser = argparse.ArgumentParser(
        prog="corefkit", description="coreference resolution toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, fn, out_required) in _commands().items():
        if only is not None and name != only:
            continue
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        p.add_argument("--seed", type=int, default=None,
                       help="global seed (default: COREF_SEED env var)")
        p.add_argument("--out", required=out_required, help="run directory for artifacts")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command needs only its own parser; anything else (--help, a
    # typo, nothing) gets the full one, so its message lists every command
    parser = build_parser(argv[0] if argv and argv[0] in _commands() else None)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        category = _categorize(exc)
        print(f"error:{category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
