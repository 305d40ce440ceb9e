"""Command-line interface: one subcommand per pipeline stage.

Configuration comes from an INI-style file with [encoder], [engine], [train],
[synth] sections of flat key=value pairs; any value can be overridden on the
command line with repeated ``--set section.key=value`` flags. Unknown keys are
rejected. The COREF_SEED environment variable supplies the default seed.

Every command given ``--out DIR`` writes its artifacts there together with a
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
import typing
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

from .bundled import load_bundled_doc
from .conll import parse_conll, write_conll
from .documents import Document, DocumentError, check_unique_ids
from .encoder import EncoderConfig
from .engine import EngineConfig, init_params, param_layout, plan_document, resolve_document
from .harness import (
    CorpusSplit,
    DevAllocSpec,
    dev_allocation_experiment,
    forgetting_eval,
    layer_freezing_sweep,
    learning_curve,
)
from .jsonl import parse_jsonl, write_jsonl
from .metrics import score_corpus
from .numeric import NumericError, grad_check, load_checkpoint, save_checkpoint
from .synth import SchemeConfig, synth_corpus
from .training import (
    ShapeMismatchError,
    TrainConfig,
    TrainResult,
    check_compatible,
    document_loss,
    train,
)


# the one exception type behind each error:<category>, first match first:
# DocumentError and ShapeMismatchError are ValueErrors, so they precede it
_ERROR_CATEGORIES = (
    (DocumentError, "parse"),
    (ShapeMismatchError, "shape"),
    (NumericError, "numeric"),
    (OSError, "io"),
    (ValueError, "config"),
)


def _categorize(exc: Exception) -> str:
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


# each section's field -> declared type, resolved once: a config value is parsed by it
_FIELD_TYPES = {name: typing.get_type_hints(cls) for name, cls in _SECTIONS.items()}
_BOOLEANS = dict.fromkeys(("true", "1", "yes", "on"), True) | dict.fromkeys(("false", "0", "no", "off"), False)


def _parse(kind, text: str):
    """``text`` as a value of the field type ``kind``; docs/cli.md lists the spellings."""
    word = text.strip().lower()
    args = typing.get_args(kind)
    if type(None) in args:  # Optional: "none", and for a set also "" or "all"
        if word == "none" or (typing.get_origin(args[0]) is frozenset and word in ("", "all")):
            return None
        return _parse(args[0], text)
    if kind is bool:
        if word not in _BOOLEANS:
            raise ValueError(f"expected a boolean, got {text!r}")
        return _BOOLEANS[word]
    if typing.get_origin(kind) is frozenset:
        return frozenset(t.strip() for t in text.split(",") if t.strip())
    if typing.get_origin(kind) is tuple:  # a (lo, hi) range
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"a range needs lo,hi, got {text!r}")
        return tuple(_parse(args[0], part) for part in parts)
    if kind in (int, float, str):
        return kind(text)
    raise ValueError(f"no parser for fields of type {kind}")


def _coerce(section: str, key: str, text: str):
    if key not in _FIELD_TYPES[section]:
        raise ValueError(f"unknown key {section}.{key}")
    try:
        return _parse(_FIELD_TYPES[section][key], text)
    except ValueError as exc:
        raise ValueError(f"{section}.{key}: {exc}") from exc


class EffectiveConfig:
    """Section -> key -> value map built from file plus --set overrides."""

    def __init__(self):
        self.values: dict[str, dict] = {name: {} for name in _SECTIONS}

    def load_file(self, path: str) -> None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ValueError(f"unknown config section [{section}]")
            for key, text in parser.items(section):
                self.values[section][key] = _coerce(section, key, text)

    def apply_set(self, assignments: Sequence[str]) -> None:
        for assignment in assignments:
            if "=" not in assignment or "." not in assignment.split("=", 1)[0]:
                raise ValueError(f"--set expects section.key=value, got {assignment!r}")
            target, text = assignment.split("=", 1)
            section, key = target.split(".", 1)
            if section not in _SECTIONS:
                raise ValueError(f"unknown config section [{section}]")
            self.values[section][key] = _coerce(section, key, text)

    def build(self, section: str, base=None):
        """The section's config: ``base`` (default: the defaults) with this run's keys replaced."""
        if base is None:
            base = _SECTIONS[section]()
        try:
            return dataclasses.replace(base, **self.values[section]).validate()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"[{section}] {exc}") from exc


def _effective_config(args) -> EffectiveConfig:
    config = EffectiveConfig()
    if args.config:
        config.load_file(args.config)
    config.apply_set(args.set)
    seed = args.seed
    if seed is None and os.environ.get("COREF_SEED"):
        try:
            seed = int(os.environ["COREF_SEED"])
        except ValueError as exc:
            raise ValueError(f"COREF_SEED: {exc}") from exc
    if seed is not None:
        config.values["train"]["seed"] = config.values["synth"]["seed"] = seed
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
    raise ValueError(f"cannot infer format of {path}; use --format")


def _codec(fmt: str):
    """(parser, writer) of a format name, read on each call from this module,
    where ``bench/tracing.py`` rebinds ``parse_jsonl`` and ``write_jsonl``."""
    return {"conll": (parse_conll, write_conll), "jsonl": (parse_jsonl, write_jsonl)}[fmt]


def load_docs(path: str, fmt: Optional[str] = None) -> list[Document]:
    text = Path(path).read_text()
    docs = _codec(_format_of(path, fmt))[0](text)
    check_unique_ids(docs, f"{path}: ")
    return docs


def render_docs(docs: Sequence[Document], fmt: str) -> str:
    return _codec(fmt)[1](list(docs))


def _emit(path: Optional[str], text: str) -> None:
    """Write ``text`` to ``path``, or to stdout without one."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# the argument names that hold an input file, whichever command has them
_INPUTS = ("input", "key", "response", "model", "source", "source_test", "train", "dev", "test", "doc")


class RunDir:
    """A run's ``--out`` directory, made on the first write; without ``--out`` nothing is written."""

    def __init__(self, path: Optional[str], command: str, config: EffectiveConfig, inputs):
        self.path = Path(path) if path else None
        self.command = command
        self.config = config
        self.inputs = inputs
        self.outputs: list[str] = []

    def file(self, name: str) -> Path:
        """The path of output ``name``, its directory made if need be."""
        self.path.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.path / name

    def write_text(self, name: str, text: str) -> None:
        if self.path:
            self.file(name).write_text(text)

    def write_csv(self, name: str, rows: list[dict]) -> None:
        if self.path and rows:
            with open(self.file(name), "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)

    def finalize(self, seed: Optional[int]) -> None:
        if not self.path:
            return
        manifest = {
            "command": self.command,
            "config": {section: keys for section, keys in self.config.values.items() if keys},
            "seed": seed,
            "inputs": {p: _sha256(p) for p in self.inputs},
            "outputs": sorted(set(self.outputs)),
        }
        self.path.mkdir(parents=True, exist_ok=True)
        # a set, the one config value json cannot write, goes in as its sorted list
        text = json.dumps(manifest, indent=2, sort_keys=True, default=sorted)
        (self.path / "manifest.json").write_text(text)


_EPOCH_FIELDS = ("epoch", "train_loss", "dev_avg_f1", "grad_norm_mean", "grad_norm_max", "clipped_steps")


def _write_history(run: RunDir, result: TrainResult) -> None:
    """history.csv (epoch, loss, dev F1) and epochs.jsonl (those and the optimizer-step norms)."""
    rows = [{name: getattr(r, name) for name in _EPOCH_FIELDS} for r in result.history]
    run.write_csv("history.csv", [{name: row[name] for name in _EPOCH_FIELDS[:3]} for row in rows])
    run.write_text("epochs.jsonl", "".join(json.dumps(row) + "\n" for row in rows))


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


def _load_run_model(config: EffectiveConfig, path: Optional[str] = None):
    """(model params, encoder, model's engine, run's engine, train configs) of a run.

    Without a model ``path`` the params and the model's engine config are
    None, and the run's keys build every config. A saved model fixes the
    encoder: an [encoder] key that differs from it is a config error. Each
    [engine] key replaces the model's value for that key alone, and the
    model's tensors must fit the resulting layout.
    """
    params = model_engine_cfg = None
    if path is None:
        encoder_cfg = config.build("encoder")
    else:
        params, _, meta = load_checkpoint(path)
        try:
            encoder_cfg = EncoderConfig(**meta["encoder"])
            model_engine_cfg = EngineConfig(**meta["engine"])
        except (KeyError, TypeError) as exc:
            raise ShapeMismatchError(f"checkpoint {path} lacks model configuration: {exc}") from exc
        for key, value in config.values["encoder"].items():
            if getattr(encoder_cfg, key) != value:
                raise ValueError(
                    f"[encoder] {key}={value} differs from the source model's {getattr(encoder_cfg, key)}"
                )
    engine_cfg = config.build("engine", base=model_engine_cfg)
    _check_segment_fits(encoder_cfg, engine_cfg)
    if params is not None:
        context = f"checkpoint {path} disagrees with its own configs"
        if config.values["engine"]:
            context += " and the run's [engine] keys"
        check_compatible(params, param_layout(encoder_cfg, engine_cfg), context)
    return params, encoder_cfg, model_engine_cfg, engine_cfg, config.build("train")


def _check_segment_fits(encoder_cfg: EncoderConfig, engine_cfg: EngineConfig) -> None:
    """Reject a model whose segments could outgrow its position table."""
    if engine_cfg.max_segment_tokens > encoder_cfg.max_position:
        raise ValueError(
            f"engine.max_segment_tokens {engine_cfg.max_segment_tokens} exceeds "
            f"encoder.max_position {encoder_cfg.max_position}"
        )


def _split(args) -> CorpusSplit:
    return CorpusSplit(train=load_docs(args.train), dev=load_docs(args.dev), test=load_docs(args.test))


def _int_list(flag: str, text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip() != ""]
        if not values:
            raise ValueError(f"no integer in {text!r}")
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc
    return values


def _report(run: RunDir, name: str, rows: list[dict], line: str) -> None:
    """Write an experiment's rows to ``name`` and print each as ``line``."""
    run.write_csv(name, rows)
    for row in rows:
        print(line.format(**row))


# ---------------------------------------------------------------------------
# subcommands: each takes (args, config, run) and returns the run's seed
# ---------------------------------------------------------------------------


def cmd_convert(args, config, run):
    docs = load_docs(args.input, args.from_format)
    for fmt in args.to:
        docs = _codec(fmt)[0](render_docs(docs, fmt))
    _emit(args.out_file, render_docs(docs, args.to[-1]))
    print(f"converted {len(docs)} documents to {args.to[-1]}", file=sys.stderr)


def cmd_synth(args, config, run):
    scheme = config.build("synth")
    docs = synth_corpus(scheme)
    Path(args.out_file).write_text(render_docs(docs, args.format or _format_of(args.out_file)))
    print(f"wrote {len(docs)} synthetic documents to {args.out_file}")
    return scheme.seed


def cmd_score(args, config, run):
    key_docs = {d.doc_id: d for d in load_docs(args.key, args.format)}
    resp_docs = {d.doc_id: d for d in load_docs(args.response, args.format)}
    if set(key_docs) != set(resp_docs):
        missing = set(key_docs) ^ set(resp_docs)
        raise ValueError(f"document ids differ between key and response: {sorted(missing)[:5]}")
    report = score_corpus(
        (key_docs[doc_id].clusters, resp_docs[doc_id].clusters) for doc_id in sorted(key_docs)
    )
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    run.write_text("report.json", payload)
    print(payload)
    print(f"avg F1 {report.avg_f1:.4f} over {len(key_docs)} documents", file=sys.stderr)


def cmd_resolve(args, config, run):
    params, encoder_cfg, _, engine_cfg, _ = _load_run_model(config, args.model)
    docs = load_docs(args.input, args.format)
    predicted = [
        doc.replace_clusters(resolve_document(doc, params, encoder_cfg, engine_cfg))
        for doc in docs
    ]
    fmt = args.to or (_format_of(args.out_file) if args.out_file else "jsonl")
    text = render_docs(predicted, fmt)
    _emit(args.out_file, text)
    run.write_text("predictions." + fmt, text)
    total = sum(len(d.clusters) for d in predicted)
    print(f"resolved {len(docs)} documents, {total} clusters", file=sys.stderr)


def cmd_train(args, config, run):
    source_params, encoder_cfg, _, engine_cfg, train_cfg = _load_run_model(config, args.source)
    train_docs = load_docs(args.train)
    dev_docs = load_docs(args.dev)
    params = source_params
    if params is None:
        params = init_params(encoder_cfg, engine_cfg, seed=train_cfg.seed)
    result = train(
        train_docs, dev_docs, params, encoder_cfg, engine_cfg, train_cfg,
        cache_predictions=args.cache_predictions,
    )
    _save_model(
        run.file("model.ckpt"), result.checkpoint.params, encoder_cfg, engine_cfg,
        meta={
            "epoch": result.checkpoint.epoch,
            "dev_avg_f1": result.checkpoint.dev_avg_f1,
        },
    )
    _write_history(run, result)
    if args.cache_predictions:
        run.write_text("predictions.jsonl", _predictions_jsonl(result))
    print(
        f"trained {len(result.history)} epochs; best dev avg F1 "
        f"{result.checkpoint.dev_avg_f1:.4f} at epoch {result.checkpoint.epoch}"
    )
    return train_cfg.seed


def cmd_curve(args, config, run):
    source_params, encoder_cfg, _, engine_cfg, train_cfg = _load_run_model(config, args.source)
    rows = learning_curve(
        _split(args), _int_list("--sizes", args.sizes), encoder_cfg, engine_cfg, train_cfg, source_params
    )
    _report(run, "curve.csv", rows,
            "size {train_size:4d}: test avg F1 {avg_f1:.4f} mention F1 {mention_f1:.4f}")
    return train_cfg.seed


def cmd_devalloc(args, config, run):
    _, encoder_cfg, _, engine_cfg, train_cfg = _load_run_model(config)
    split = _split(args)
    spec = DevAllocSpec(
        dev_subset_sizes=tuple(_int_list("--subset-sizes", args.subset_sizes)),
        num_subsets=args.num_subsets,
        seed=train_cfg.seed,
    ).validate(len(split.dev))
    params = init_params(encoder_cfg, engine_cfg, seed=train_cfg.seed)
    result = train(
        split.train, split.dev, params, encoder_cfg, engine_cfg, train_cfg,
        extra_eval_docs=split.test, cache_predictions=True, early_stop=False,
    )
    rows = dev_allocation_experiment(result.history, split.dev, split.test, spec, train_cfg.patience)
    _write_history(run, result)
    run.write_text("predictions.jsonl", _predictions_jsonl(result))
    _report(run, "devalloc.csv", rows,
            "dev subset {subset_size:3d}: expected test F1 {expected_test_f1:.4f} "
            "(std {std_test_f1:.4f}), agreement {agreement}/{num_subsets}")
    return train_cfg.seed


def cmd_forget(args, config, run):
    source_params, encoder_cfg, source_engine_cfg, target_engine_cfg, train_cfg = _load_run_model(
        config, args.source
    )
    rows = forgetting_eval(
        source_params, load_docs(args.source_test), _split(args), _int_list("--sizes", args.sizes),
        encoder_cfg, source_engine_cfg, target_engine_cfg, train_cfg,
    )
    _report(run, "forget.csv", rows,
            "target size {target_size:4d}: target F1 {target_avg_f1:.4f} source F1 {source_avg_f1:.4f}")
    return train_cfg.seed


def cmd_freeze_sweep(args, config, run):
    source_params, encoder_cfg, _, engine_cfg, train_cfg = _load_run_model(config, args.source)
    rows = layer_freezing_sweep(
        _split(args), _int_list("--top-k", args.top_k), encoder_cfg, engine_cfg, train_cfg, source_params
    )
    _report(run, "freeze.csv", rows, "top-{top_k}: test avg F1 {avg_f1:.4f}")
    return train_cfg.seed


def cmd_gradcheck(args, config, run):
    if not args.tolerance > 0.0:  # NaN too
        raise ValueError(f"tolerance must be positive, got {args.tolerance}")
    _, encoder_cfg, _, engine_cfg, train_cfg = _load_run_model(config)
    docs = load_docs(args.doc) if args.doc else [load_bundled_doc()]
    if not docs:
        raise ValueError(f"no document in {args.doc}")
    plan = plan_document(docs[0], encoder_cfg, engine_cfg)  # once, for every loss evaluation
    if len(plan.segments) > 1:  # a cluster carried into a later segment is a constant to the analytic gradient
        raise ValueError(f"doc {docs[0].doc_id!r} has {len(plan.segments)} segments at engine.max_segment_tokens "
                         f"{engine_cfg.max_segment_tokens}; gradcheck takes a one-segment document")
    objective = {"joint": "joint_singleton", "antecedent": "antecedent_only"}.get(
        args.objective, args.objective
    )
    params = init_params(encoder_cfg, engine_cfg, seed=train_cfg.seed)
    err = grad_check(
        lambda backward: document_loss(plan, params, encoder_cfg, engine_cfg, objective, backward=backward),
        params,
        eps=args.eps,
        max_scalars=args.scalars,
        seed=train_cfg.seed,
    )
    print(f"gradcheck objective={objective} doc={docs[0].doc_id} max_rel_err={err:.3e}")
    if err >= args.tolerance:
        raise NumericError(f"gradient check failed: {err:.3e} >= {args.tolerance}")
    return train_cfg.seed


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
    p.add_argument("--source", help="source checkpoint to continue training (default: train from scratch)")


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
        "train": ("train a model, from scratch or from a source model", _train_args, cmd_train, True),
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
        config = _effective_config(args)
        inputs = [path for name in _INPUTS if (path := getattr(args, name, None))]
        run = RunDir(args.out, args.command, config, inputs)
        run.finalize(args.fn(args, config, run))
        return 0
    except Exception as exc:  # noqa: BLE001 - single reporting point
        category = _categorize(exc)
        print(f"error:{category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
