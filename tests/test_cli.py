import csv
import dataclasses
import json
from pathlib import Path

import pytest

from corefkit import (
    Document,
    EncoderConfig,
    EngineConfig,
    FreezeMask,
    SchemeConfig,
    TrainConfig,
    load_checkpoint,
    parse_conll,
    parse_jsonl,
    resolve_document,
    save_checkpoint,
    synth_corpus,
    write_conll,
    write_jsonl,
)
from corefkit.cli import EffectiveConfig, load_docs, main
from corefkit.harness import CorpusSplit, layer_freezing_sweep
from corefkit.training import train
from stores import v1_checkpoint, with_version


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus_files(tmp_path):
    docs = synth_corpus(
        SchemeConfig(num_docs=10, seed=51, sentences_per_doc=(2, 3),
                     entities_per_doc=(2, 2), mentions_per_entity=(2, 3))
    )
    paths = {}
    for name, subset in (("train", docs[:4]), ("dev", docs[4:6]), ("test", docs[6:8]),
                         ("all", docs)):
        p = tmp_path / f"{name}.jsonl"
        p.write_text(write_jsonl(subset))
        paths[name] = str(p)
    conll = tmp_path / "all.conll"
    conll.write_text(write_conll(docs))
    paths["conll"] = str(conll)
    return paths


@pytest.fixture
def model_file(capsys, corpus_files, tmp_path):
    run_dir = tmp_path / "run"
    code, _, _ = run_cli(
        capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
        "--out", str(run_dir), "--seed", "0", *SMALL_MODEL,
    )
    assert code == 0
    return run_dir / "model.ckpt"


SMALL_MODEL = [
    "--set", "encoder.num_layers=2", "--set", "encoder.hidden_dim=8",
    "--set", "encoder.hash_vocab_size=64", "--set", "encoder.max_position=64",
    "--set", "engine.max_span_width=3", "--set", "engine.scorer_hidden_dim=8",
    "--set", "engine.width_embedding_dim=4", "--set", "engine.max_segment_tokens=64",
    "--set", "train.max_epochs=2", "--set", "train.patience=2",
]


class TestScore:
    def test_self_score_is_one(self, capsys, corpus_files):
        code, out, err = run_cli(capsys, "score", corpus_files["all"], corpus_files["all"])
        assert code == 0
        report = json.loads(out)
        assert report["avg_f1"] == pytest.approx(1.0)
        assert "avg F1 1.0000" in err

    def test_conll_inputs(self, capsys, corpus_files):
        code, out, _ = run_cli(capsys, "score", corpus_files["conll"], corpus_files["conll"])
        assert code == 0
        assert json.loads(out)["muc"]["f1"] == pytest.approx(1.0)

    def test_mismatched_ids_rejected(self, capsys, corpus_files):
        code, _, err = run_cli(capsys, "score", corpus_files["train"], corpus_files["dev"])
        assert code == 1
        assert err.startswith("error:config:")

    def test_report_written_to_run_dir(self, capsys, corpus_files, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "score", corpus_files["all"], corpus_files["all"], "--out", str(out_dir)
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["avg_f1"] == pytest.approx(1.0)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "score"
        assert len(manifest["inputs"]) == 1  # key == response here
        assert "report.json" in manifest["outputs"]


class TestConvert:
    def test_chained_round_trip_byte_identical(self, capsys, corpus_files, tmp_path):
        out_file = tmp_path / "round.conll"
        code, _, err = run_cli(
            capsys, "convert", corpus_files["conll"],
            "--to", "jsonl", "--to", "conll", "--out-file", str(out_file),
        )
        assert code == 0
        assert out_file.read_bytes() == Path(corpus_files["conll"]).read_bytes()

    def test_stdout_output(self, capsys, corpus_files):
        code, out, _ = run_cli(capsys, "convert", corpus_files["train"], "--to", "conll")
        assert code == 0
        assert out.startswith("#begin document")
        parse_conll(out)

    def test_missing_config_file_rejected(self, capsys, corpus_files, tmp_path):
        code, out, err = run_cli(capsys, "convert", corpus_files["train"], "--to", "conll",
                                 "--config", str(tmp_path / "missing.ini"))
        assert code == 1 and out == ""
        assert err.startswith("error:io: config file not found")

    def test_crossing_mentions_leave_no_file(self, capsys, tmp_path):
        source = tmp_path / "crossing.jsonl"
        source.write_text(write_jsonl([Document("x", [[f"w{i}" for i in range(8)]], [((3, 5), (4, 6))])]))
        out_file = tmp_path / "out.conll"
        code, out, err = run_cli(capsys, "convert", str(source), "--to", "conll", "--out-file", str(out_file))
        assert (code, out) == (1, "")
        assert err.startswith("error:parse: doc 'x': cluster 1 has crossing mentions (3, 5) and (4, 6)")
        assert not out_file.exists()

    def test_unknown_extension_rejected(self, capsys, tmp_path):
        bad = tmp_path / "data.txt"
        bad.write_text("")
        code, _, err = run_cli(capsys, "convert", str(bad), "--to", "jsonl")
        assert code == 1 and err.startswith("error:config:")


class TestSynth:
    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "synth", "--out-file", str(path),
                "--set", "synth.num_docs=5", "--seed", "3",
            )
            assert code == 0
        assert a.read_text() == b.read_text()
        assert len(parse_jsonl(a.read_text())) == 5

    def test_seed_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COREF_SEED", "77")
        path = tmp_path / "c.jsonl"
        code, _, _ = run_cli(capsys, "synth", "--out-file", str(path), "--set", "synth.num_docs=2")
        assert code == 0
        docs = parse_jsonl(path.read_text())
        assert docs[0].doc_id.startswith("synth-77-")


class TestConfigFile:
    def test_config_file_with_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[synth]\nnum_docs = 3\nseed = 5\n")
        path = tmp_path / "c.jsonl"
        code, _, _ = run_cli(
            capsys, "synth", "--config", str(cfg), "--out-file", str(path),
            "--set", "synth.num_docs=4",
        )
        assert code == 0
        assert len(parse_jsonl(path.read_text())) == 4

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[synth]\nnonsense = 1\n")
        code, _, err = run_cli(capsys, "synth", "--config", str(cfg), "--out-file", "x.jsonl")
        assert code == 1
        assert err.startswith("error:config:") and "unknown key synth.nonsense" in err

    def test_unknown_section_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[nope]\na = 1\n")
        code, _, err = run_cli(capsys, "synth", "--config", str(cfg), "--out-file", "x.jsonl")
        assert code == 1 and "unknown config section" in err


CONFIG_CLASSES = {"encoder": EncoderConfig, "engine": EngineConfig, "train": TrainConfig, "synth": SchemeConfig}

# one spelling of every config field: --set text, parsed value, manifest entry
FIELD_SPELLINGS = {
    "encoder.num_layers": ("3", 3, 3),
    "encoder.hidden_dim": ("16", 16, 16),
    "encoder.hash_vocab_size": (" 64", 64, 64),
    "encoder.max_position": ("128", 128, 128),
    "engine.prune_ratio": ("0.25", 0.25, 0.25),
    "engine.max_span_width": ("4", 4, 4),
    "engine.pruning_mode": ("reformulated", "reformulated", "reformulated"),
    "engine.gold_mentions": ("On", True, True),
    "engine.max_segment_tokens": ("32", 32, 32),
    "engine.width_embedding_dim": ("2", 2, 2),
    "engine.scorer_hidden_dim": ("8", 8, 8),
    "engine.emit_singletons": ("no", False, False),
    "train.max_epochs": ("12", 12, 12),
    "train.patience": ("2", 2, 2),
    "train.lr_task": ("1e-3", 1e-3, 1e-3),
    "train.lr_encoder": ("2e-5", 2e-5, 2e-5),
    "train.clip_norm": ("5", 5.0, 5.0),
    "train.seed": ("9", 9, 9),
    "train.objective": ("antecedent_only", "antecedent_only", "antecedent_only"),
    "train.freeze": ("1", FreezeMask(1), 1),
    "train.weight_decay_encoder": ("0", 0.0, 0.0),
    "synth.annotate_singletons": ("false", False, False),
    "synth.allowed_entity_types": (" person, org ", frozenset({"person", "org"}), ["org", "person"]),
    "synth.vocab_size": ("50", 50, 50),
    "synth.num_docs": ("2", 2, 2),
    "synth.sentences_per_doc": ("2, 4", (2, 4), [2, 4]),
    "synth.entities_per_doc": ("1,3", (1, 3), [1, 3]),
    "synth.mentions_per_entity": ("2,2", (2, 2), [2, 2]),
    "synth.seed": ("4", 4, 4),
}


def synth_manifest_config(capsys, tmp_path, *sets):
    """The manifest's config of a one-document ``synth`` run with ``sets``, or its error line."""
    overrides = [arg for text in ("synth.num_docs=1", *sets) for arg in ("--set", text)]
    code, _, err = run_cli(capsys, "synth", "--out-file", str(tmp_path / "s.jsonl"),
                           "--out", str(tmp_path / "run"), *overrides)
    if code:
        return err
    return json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]


class TestConfigValues:
    def test_every_field_has_a_spelling(self):
        fields = {f"{section}.{f.name}" for section, cls in CONFIG_CLASSES.items() for f in dataclasses.fields(cls)}
        assert fields == set(FIELD_SPELLINGS)

    @pytest.mark.parametrize("field", sorted(FIELD_SPELLINGS))
    def test_field_parsed_from_its_type(self, capsys, tmp_path, field):
        text, value, entry = FIELD_SPELLINGS[field]
        section, key = field.split(".")
        config = EffectiveConfig()
        config.apply_set([f"{field}={text}"])
        parsed = config.values[section][key]
        assert parsed == value and type(parsed) is type(value)
        assert getattr(config.build(section), key) == value
        assert synth_manifest_config(capsys, tmp_path, f"{field}={text}")[section][key] == entry

    @pytest.mark.parametrize("assignment, message", [
        ("synth.sentences_per_doc=1,2,3", "too many values to unpack (expected 2)"),
        ("synth.sentences_per_doc=5", "not enough values to unpack (expected 2, got 1)"),
        ("engine.emit_singletons=maybe", "expected a boolean, got 'maybe'"),
        ("engine.emit_singletons=", "expected a boolean, got ''"),
        ("engine.emit_singletons=all", "expected a boolean, got 'all'"),
        ("engine.gold_mentions=none", "expected a boolean, got 'none'"),
        ("train.freeze=x", "invalid literal for int() with base 10: 'x'"),
        ("train.freeze=", "invalid literal for int() with base 10: ''"),
        ("encoder.num_layers=2.5", "invalid literal for int() with base 10: '2.5'"),
        ("synth.bogus=1", "unknown key synth.bogus"),
    ])
    def test_bad_spelling_rejected(self, capsys, tmp_path, assignment, message):
        assert synth_manifest_config(capsys, tmp_path, assignment) == f"error:config: {message}\n"

    @pytest.mark.parametrize("assignment, entry", [
        ("synth.allowed_entity_types=", None),
        ("synth.allowed_entity_types=ALL", None),
        ("synth.allowed_entity_types=None", None),
        ("synth.allowed_entity_types=,", []),
        ("train.freeze=None", None),
        ("train.freeze= 2", 2),
        ("engine.emit_singletons= NONE ", None),
        ("engine.gold_mentions=YES", True),
        ("engine.pruning_mode= original", " original"),
    ])
    def test_spelling_gives_manifest_entry(self, capsys, tmp_path, assignment, entry):
        field, _ = assignment.split("=", 1)
        section, key = field.split(".")
        assert synth_manifest_config(capsys, tmp_path, assignment)[section][key] == entry

    def test_string_values_keep_their_spaces(self, capsys, corpus_files, tmp_path):
        code, _, err = run_cli(capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
                               "--out", str(tmp_path / "run"), "--set", "engine.pruning_mode= original")
        assert code == 1 and err == "error:config: [engine] unknown pruning_mode ' original'\n"


class TestTrainResolve:
    def test_train_then_resolve_and_score(self, capsys, corpus_files, tmp_path):
        run_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(run_dir), "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0
        assert "best dev avg F1" in out
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "history.csv").read_text().startswith("epoch,train_loss,dev_avg_f1")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert set(manifest["inputs"]) == {corpus_files["train"], corpus_files["dev"]}

        predictions = tmp_path / "pred.jsonl"
        code, _, err = run_cli(
            capsys, "resolve", str(run_dir / "model.ckpt"), corpus_files["test"],
            "--out-file", str(predictions),
        )
        assert code == 0
        docs = parse_jsonl(predictions.read_text())
        assert len(docs) == 2

        code, out, _ = run_cli(capsys, "score", corpus_files["test"], str(predictions))
        assert code == 0
        assert 0.0 <= json.loads(out)["avg_f1"] <= 1.0

    def test_resolve_to_conll_rejects_crossing_predictions(self, capsys, model_file, tmp_path, monkeypatch):
        """A predicted cluster with crossing mentions ends the command with
        a parse error, and neither the output file nor a run directory is left."""
        source = tmp_path / "one.jsonl"
        source.write_text(write_jsonl([Document("x", [[f"w{i}" for i in range(8)]], [])]))
        monkeypatch.setattr("corefkit.cli.resolve_document", lambda *args: [((3, 5), (4, 5), (4, 6))])
        out_file, run_dir = tmp_path / "pred.conll", tmp_path / "resolved"
        code, out, err = run_cli(capsys, "resolve", str(model_file), str(source), "--to", "conll",
                                 "--out-file", str(out_file), "--out", str(run_dir))
        assert (code, out) == (1, "")
        assert err.startswith("error:parse: doc 'x': cluster 1 has crossing mentions (3, 5) and (4, 6)")
        assert not out_file.exists() and not run_dir.exists()

    def test_curve_source_size_zero_is_zero_shot(self, capsys, corpus_files, tmp_path):
        run_dir = tmp_path / "src"
        run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(run_dir), "--seed", "0", *SMALL_MODEL,
        )
        curve_dir = tmp_path / "cv"
        code, _, err = run_cli(
            capsys, "curve", "--source", str(run_dir / "model.ckpt"),
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--test", corpus_files["test"], "--sizes", "0", "--out", str(curve_dir),
            "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0, err
        with open(curve_dir / "curve.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["train_size"] == "0" and row["best_epoch"] == "0"
        # the dev avg F1 that the former `transfer` command without --train
        # stored in its model.ckpt for this source model and dev set
        assert float(row["dev_avg_f1"]) == 0.21442366682597305

    def test_train_source_engine_key_overrides_source_setting(self, capsys, corpus_files, tmp_path):
        # the scheme-shift case: only pruning_mode differs from the source
        run_dir = tmp_path / "src"
        code, _, _ = run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(run_dir), "--seed", "0", *SMALL_MODEL,
            "--set", "engine.pruning_mode=reformulated",
        )
        assert code == 0
        transfer_dir = tmp_path / "tr"
        code, _, err = run_cli(
            capsys, "train", "--source", str(run_dir / "model.ckpt"),
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(transfer_dir), "--seed", "0",
            "--set", "train.max_epochs=1", "--set", "train.patience=1",
            "--set", "engine.pruning_mode=original",
        )
        assert code == 0, err
        _, _, source_meta = load_checkpoint(run_dir / "model.ckpt")
        _, _, meta = load_checkpoint(transfer_dir / "model.ckpt")
        assert meta["encoder"] == source_meta["encoder"]
        assert source_meta["engine"]["pruning_mode"] == "reformulated"
        assert meta["engine"] == dict(source_meta["engine"], pruning_mode="original")
        manifest = json.loads((transfer_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert set(manifest["inputs"]) == {
            str(run_dir / "model.ckpt"), corpus_files["train"], corpus_files["dev"]
        }

    def test_resolve_applies_engine_keys_and_rejects_encoder_keys(self, capsys, corpus_files,
                                                                  tmp_path):
        run_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(run_dir), "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0
        model = run_dir / "model.ckpt"
        gold_keys = ["--set", "engine.gold_mentions=true", "--set", "engine.emit_singletons=true"]
        outputs = {}
        for name, keys in (("model", []), ("gold", gold_keys)):
            code, out, err = run_cli(capsys, "resolve", str(model), corpus_files["test"], *keys)
            assert code == 0, err
            outputs[name] = parse_jsonl(out)
        params, _, meta = load_checkpoint(model)
        enc = EncoderConfig(**meta["encoder"])
        eng = EngineConfig(**dict(meta["engine"], gold_mentions=True, emit_singletons=True))
        docs = load_docs(corpus_files["test"])
        assert [d.clusters for d in outputs["gold"]] == [
            resolve_document(d, params, enc, eng) for d in docs
        ]
        for doc, predicted in zip(docs, outputs["gold"]):
            gold_spans = {m for c in doc.clusters for m in c}
            assert {m for c in predicted.clusters for m in c} == gold_spans
        assert outputs["gold"] != outputs["model"]

        code, out, err = run_cli(capsys, "resolve", str(model), corpus_files["test"],
                                 "--set", "encoder.hidden_dim=16")
        assert code == 1 and out == ""
        assert err.startswith("error:config: [encoder] hidden_dim=16 differs")


class TestFailEarly:
    def test_truncated_checkpoint(self, capsys, corpus_files, model_file):
        data = model_file.read_bytes()
        model_file.write_bytes(data[: len(data) // 2])
        code, _, err = run_cli(capsys, "resolve", str(model_file), corpus_files["test"])
        assert code == 1
        assert err.startswith("error:numeric: corrupt checkpoint: sha256 digest mismatch")

    def test_padded_checkpoint(self, capsys, corpus_files, model_file):
        model_file.write_bytes(model_file.read_bytes() + b"junkjunk")
        code, _, err = run_cli(capsys, "resolve", str(model_file), corpus_files["test"])
        assert code == 1
        assert err.startswith("error:numeric: corrupt checkpoint: sha256 digest mismatch")

    @pytest.mark.parametrize("version", [1, 3])
    def test_unsupported_checkpoint_version(self, capsys, corpus_files, model_file, version):
        if version == 1:
            params, _, meta = load_checkpoint(model_file)
            model_file.write_bytes(v1_checkpoint(params, meta))
        else:
            model_file.write_bytes(with_version(model_file.read_bytes(), version))
        code, out, err = run_cli(capsys, "resolve", str(model_file), corpus_files["test"])
        assert code == 1 and out == ""
        assert err.startswith(f"error:numeric: unsupported checkpoint version {version}\n")

    def test_corrupt_header_checkpoint(self, capsys, corpus_files, model_file):
        data = bytearray(model_file.read_bytes())
        data[20] ^= 0xFF  # inside the JSON header, which starts at byte 16
        model_file.write_bytes(bytes(data))
        code, _, err = run_cli(capsys, "resolve", str(model_file), corpus_files["test"])
        assert code == 1
        assert err.startswith("error:numeric: corrupt checkpoint: sha256 digest mismatch")

    @pytest.mark.parametrize("section,key,value,tensor", [
        ("encoder", "hash_vocab_size", 32, "embed.token"),  # tokens hashed into the wrong rows, exit 0
        ("encoder", "hidden_dim", 16, "enc.0.W"),  # exit 0
        ("encoder", "num_layers", 3, "enc.2.W"),  # error:internal
        # given as a run's key: each [engine] key replaces the model's value
        ("engine", "scorer_hidden_dim", 16, "score.mention.W1"),
    ])
    @pytest.mark.parametrize("command", ["resolve", "train"])
    def test_meta_disagreeing_with_tensors(self, capsys, corpus_files, tmp_path, model_file,
                                           command, section, key, value, tensor):
        keys = ["--set", f"engine.{key}={value}"] if section == "engine" else []
        if section == "encoder":
            params, _, meta = load_checkpoint(model_file)
            meta["encoder"][key] = value
            save_checkpoint(model_file, params, meta=meta)
        argv = {
            "resolve": ["resolve", str(model_file), corpus_files["test"]],
            "train": ["train", "--source", str(model_file), "--train", corpus_files["train"],
                      "--dev", corpus_files["dev"], "--out", str(tmp_path / "tr")],
        }[command]
        code, _, err = run_cli(capsys, *argv, *keys)
        assert code == 1
        assert err.startswith(f"error:shape: checkpoint {model_file} disagrees with its own configs")
        assert tensor in err
        assert not (tmp_path / "tr").exists()

    @pytest.mark.parametrize("sets,message", [
        (["train.max_epochs=0", "train.patience=0"], "[train] max_epochs must be >= 1"),
        (["train.patience=-3"], "[train] patience must be >= 0"),
        (["engine.width_embedding_dim=-1"], "[engine] width_embedding_dim must be >= 0"),
        (["train.lr_task=nan"], "[train] lr_task must be finite and positive, got nan"),
        (["train.lr_encoder=inf"], "[train] lr_encoder must be finite and positive, got inf"),
        (["train.clip_norm=nan"], "[train] clip_norm must be positive, got nan"),
        (["train.weight_decay_encoder=-1"], "[train] weight_decay_encoder must be finite and >= 0"),
        (["train.weight_decay_encoder=nan"], "[train] weight_decay_encoder must be finite and >= 0"),
    ])
    def test_config_bounds_rejected(self, capsys, corpus_files, tmp_path, monkeypatch, sets, message):
        loaded = []
        monkeypatch.setattr("corefkit.cli.load_docs", lambda *a: loaded.append(a))
        overrides = [arg for key in sets for arg in ("--set", key)]
        code, _, err = run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(tmp_path / "run"), *SMALL_MODEL, *overrides,
        )
        assert code == 1
        assert err.startswith(f"error:config: {message}")
        assert loaded == []
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["score", "resolve", "score_swapped"])
    @pytest.mark.parametrize("fmt", ["jsonl", "conll"])
    def test_repeated_doc_id_rejected(self, capsys, tmp_path, monkeypatch, request, command, fmt):
        docs = synth_corpus(SchemeConfig(num_docs=2, seed=51, sentences_per_doc=(2, 3)))
        twins = [docs[0], Document(docs[0].doc_id, docs[1].sentences, docs[1].clusters)]
        if command == "score_swapped":
            twins.reverse()
        path = tmp_path / f"twins.{fmt}"
        path.write_text(write_jsonl(twins) if fmt == "jsonl" else write_conll(twins))
        if command == "resolve":
            argv = ["resolve", str(request.getfixturevalue("model_file")), str(path)]
        else:
            argv = ["score", str(path), str(path)]
        resolved = []
        monkeypatch.setattr("corefkit.cli.resolve_document", lambda *a: resolved.append(a))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error:parse: {path}: repeated doc_id {docs[0].doc_id!r}")
        assert resolved == []

    def test_non_positive_clip_norm_rejected(self, capsys, corpus_files, tmp_path):
        code, _, err = run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(tmp_path / "run"), *SMALL_MODEL, "--set", "train.clip_norm=-1",
        )
        assert code == 1
        assert err.startswith("error:config: [train] clip_norm must be positive")

    def test_segment_longer_than_positions(self, capsys, corpus_files, tmp_path, monkeypatch):
        trained = []
        monkeypatch.setattr("corefkit.cli.train", lambda *a, **k: trained.append(a))
        code, _, err = run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(tmp_path / "run"), "--seed", "0", *SMALL_MODEL,
            "--set", "engine.max_segment_tokens=64", "--set", "encoder.max_position=16",
        )
        assert code == 1
        assert err.startswith("error:config:") and "max_position 16" in err
        assert trained == []


    def test_encoder_key_differing_from_source_rejected(self, capsys, corpus_files, tmp_path,
                                                        model_file):
        code, _, err = run_cli(
            capsys, "train", "--source", str(model_file), "--train", corpus_files["train"],
            "--dev", corpus_files["dev"], "--out", str(tmp_path / "tr"),
            "--set", "encoder.hidden_dim=16",
        )
        assert code == 1
        assert err.startswith("error:config:") and "hidden_dim" in err
        assert not (tmp_path / "tr").exists()

    @pytest.mark.parametrize("command,sizes", [
        ("curve", "-1,2"),  # a negative size sliced the shuffled pool from its end
        ("forget", "0,9"),  # a size above the 4-document pool trained on all 4
        ("forget", "-2,1"),  # a negative size was a KeyError, error:internal
    ])
    def test_train_size_outside_pool_rejected(self, capsys, corpus_files, tmp_path, monkeypatch,
                                              request, command, sizes):
        source = []
        if command == "forget":
            model = str(request.getfixturevalue("model_file"))
            source = ["--source", model, "--source-test", corpus_files["test"]]
        trained = []
        monkeypatch.setattr("corefkit.harness.train", lambda *a, **k: trained.append(a))
        monkeypatch.setattr("corefkit.harness.continued_train", lambda *a, **k: trained.append(a))
        code, _, err = run_cli(
            capsys, command, *source,
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--test", corpus_files["test"], f"--sizes={sizes}", "--out", str(tmp_path / "exp"),
            "--seed", "0", *SMALL_MODEL,
        )
        assert code == 1
        assert err.startswith("error:config:") and "exceeds the pool of 4" in err
        assert trained == []
        assert not (tmp_path / "exp").exists()


class TestGradcheck:
    def test_bundled_doc_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "gradcheck", "--objective", "joint", "--scalars", "150",
            "--seed", "1", *SMALL_MODEL,
        )
        assert code == 0
        assert "max_rel_err" in out
        err_value = float(out.strip().rsplit("=", 1)[1])
        assert err_value < 1e-4

    def test_antecedent_alias(self, capsys):
        # keeping every span gives the antecedent objective a pair to score
        code, out, _ = run_cli(
            capsys, "gradcheck", "--objective", "antecedent", "--scalars", "100",
            "--seed", "1", *SMALL_MODEL, "--set", "engine.prune_ratio=1.0",
        )
        assert code == 0
        assert out.startswith("gradcheck objective=antecedent_only ")
        assert float(out.strip().rsplit("=", 1)[1]) < 1e-4

    def test_zero_loss_fails(self, capsys):
        # pruning keeps no gold pair of the bundled document, so the loss and
        # every gradient are zero: there is nothing to check, not a pass
        code, out, err = run_cli(
            capsys, "gradcheck", "--seed", "1", "--objective", "antecedent", *SMALL_MODEL
        )
        assert code == 1 and out == ""
        assert err.startswith("error:numeric: the analytic gradient is zero everywhere")

    @pytest.mark.parametrize("flags,message", [
        (["--scalars", "0"], "max_scalars must be >= 1"),  # passed, checking nothing
        (["--eps", "0"], "eps must be positive"),  # error:internal: float division by zero
        (["--tolerance", "nan"], "tolerance must be positive"),  # passed every check
        (["--tolerance", "0"], "tolerance must be positive"),
        (["--tolerance", "-1"], "tolerance must be positive"),  # failed a perfect check
    ])
    def test_bad_arguments_rejected(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "gradcheck", *flags, "--seed", "1", *SMALL_MODEL)
        assert code == 1 and out == ""
        assert err.startswith(f"error:config: {message}")

    def test_doc_file_without_documents_rejected(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, err = run_cli(capsys, "gradcheck", "--doc", str(empty), "--seed", "1", *SMALL_MODEL)
        assert code == 1 and out == ""
        assert err == f"error:config: no document in {empty}\n"


class TestExperimentCommands:
    def test_curve(self, capsys, corpus_files, tmp_path):
        out_dir = tmp_path / "curve"
        code, out, _ = run_cli(
            capsys, "curve", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--test", corpus_files["test"], "--sizes", "2,4", "--out", str(out_dir),
            "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0
        lines = (out_dir / "curve.csv").read_text().splitlines()
        assert lines[0] == "train_size,avg_f1,mention_f1,best_epoch,dev_avg_f1"
        assert len(lines) == 3

    def test_devalloc(self, capsys, corpus_files, tmp_path):
        out_dir = tmp_path / "da"
        code, out, _ = run_cli(
            capsys, "devalloc", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--test", corpus_files["test"], "--subset-sizes", "1,2", "--num-subsets", "4",
            "--out", str(out_dir), "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0
        assert (out_dir / "devalloc.csv").exists()
        assert (out_dir / "predictions.jsonl").exists()
        first = json.loads((out_dir / "predictions.jsonl").read_text().splitlines()[0])
        assert {"epoch", "split", "doc_id", "clusters"} <= set(first)

    @pytest.mark.parametrize("command", ["train", "devalloc"])
    def test_epochs_jsonl_holds_the_history(self, capsys, corpus_files, tmp_path, monkeypatch,
                                            command):
        results = []

        def recording_train(*args, **kwargs):
            results.append(train(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr("corefkit.cli.train", recording_train)
        out_dir = tmp_path / command
        extra = {
            "train": [],
            "devalloc": ["--test", corpus_files["test"], "--subset-sizes", "1,2", "--num-subsets", "4"],
        }[command]
        code, _, _ = run_cli(
            capsys, command, "--train", corpus_files["train"], "--dev", corpus_files["dev"], *extra,
            "--out", str(out_dir), "--seed", "0", *SMALL_MODEL,
            "--set", "train.max_epochs=3", "--set", "train.patience=3", "--set", "train.clip_norm=1",
        )
        assert code == 0
        history = results[0].history
        lines = (out_dir / "epochs.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"epoch": r.epoch, "train_loss": r.train_loss, "dev_avg_f1": r.dev_avg_f1,
             "grad_norm_mean": r.grad_norm_mean, "grad_norm_max": r.grad_norm_max,
             "clipped_steps": r.clipped_steps}
            for r in history
        ]
        assert len(history) == 3 and any(r.clipped_steps for r in history)
        rows = list(csv.reader((out_dir / "history.csv").read_text().splitlines()))
        assert rows == [["epoch", "train_loss", "dev_avg_f1"]] + [
            [str(r.epoch), str(r.train_loss), str(r.dev_avg_f1)] for r in history
        ]
        assert "epochs.jsonl" in json.loads((out_dir / "manifest.json").read_text())["outputs"]

    @pytest.mark.parametrize("flag,value,detail", [
        ("--num-subsets", "0", "num_subsets 0 is below 1"),
        ("--subset-sizes", "0,2", "dev subset size 0 is below 1"),
    ])
    def test_devalloc_bad_spec_rejected_before_training(
        self, capsys, corpus_files, tmp_path, monkeypatch, flag, value, detail
    ):
        trained = []
        monkeypatch.setattr("corefkit.cli.train", lambda *a, **k: trained.append(a))
        args = {"--subset-sizes": "1,2", "--num-subsets": "4", flag: value}
        code, _, err = run_cli(
            capsys, "devalloc", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--test", corpus_files["test"], *[x for kv in args.items() for x in kv],
            "--out", str(tmp_path / "da"), "--seed", "0", *SMALL_MODEL,
        )
        assert code == 1
        assert err.startswith("error:config:") and detail in err
        assert trained == []

    def test_forget_and_freeze(self, capsys, corpus_files, tmp_path):
        src_dir = tmp_path / "src"
        run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(src_dir), "--seed", "0", *SMALL_MODEL,
        )
        model = str(src_dir / "model.ckpt")

        f_dir = tmp_path / "forget"
        code, _, _ = run_cli(
            capsys, "forget", "--source", model, "--source-test", corpus_files["test"],
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--test", corpus_files["test"], "--sizes", "0,2", "--out", str(f_dir),
            "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0
        assert (f_dir / "forget.csv").read_text().startswith("target_size,")

        s_dir = tmp_path / "sweep"
        code, _, _ = run_cli(
            capsys, "freeze-sweep", "--source", model,
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--test", corpus_files["test"], "--top-k", "0,2", "--out", str(s_dir),
            "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0
        assert (s_dir / "freeze.csv").read_text().startswith("top_k,")

    def test_freeze_sweep_from_scratch(self, capsys, corpus_files, tmp_path):
        s_dir = tmp_path / "sweep"
        code, _, _ = run_cli(
            capsys, "freeze-sweep",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--test", corpus_files["test"], "--top-k", "0,2", "--out", str(s_dir),
            "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0
        with open(s_dir / "freeze.csv", newline="") as fh:
            written = list(csv.DictReader(fh))
        split = CorpusSplit(*(load_docs(corpus_files[n]) for n in ("train", "dev", "test")))
        expected = layer_freezing_sweep(
            split, [0, 2],
            EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=64, max_position=64),
            EngineConfig(max_span_width=3, scorer_hidden_dim=8, width_embedding_dim=4,
                         max_segment_tokens=64),
            TrainConfig(max_epochs=2, patience=2, seed=0),
            source_params=None,
        )
        assert written == [{k: str(v) for k, v in row.items()} for row in expected]

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "score", str(tmp_path / "nope.jsonl"), str(tmp_path / "nope.jsonl")
        )
        assert code == 1 and err.startswith("error:io:")

    @pytest.mark.parametrize("command", ["resolve", "convert", "score"])
    def test_input_path_is_a_directory(self, capsys, tmp_path, command):
        args = {
            "resolve": [str(tmp_path), str(tmp_path / "x.jsonl")],
            "convert": [str(tmp_path), "--to", "jsonl"],
            "score": [str(tmp_path), str(tmp_path)],
        }[command]
        code, _, err = run_cli(capsys, command, *args)
        assert code == 1 and err.startswith("error:io:"), err


# each command and some of its own flags; every command also takes the common ones
COMMAND_FLAGS = {
    "convert": ["--from-format", "--to", "--out-file"],
    "synth": ["--out-file", "--format"],
    "score": ["--format"],
    "resolve": ["--format", "--to", "--out-file"],
    "train": ["--train", "--dev", "--cache-predictions", "--source"],
    "curve": ["--train", "--dev", "--test", "--sizes", "--source"],
    "devalloc": ["--test", "--subset-sizes", "--num-subsets"],
    "forget": ["--source", "--source-test", "--sizes"],
    "freeze-sweep": ["--test", "--top-k", "--source"],
    "gradcheck": ["--objective", "--doc", "--scalars", "--eps", "--tolerance"],
}


class TestParser:
    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        out = capsys.readouterr().out
        assert exit_info.value.code == 0
        for command in COMMAND_FLAGS:
            assert command in out

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_command_help_shows_its_options(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert exit_info.value.code == 0
        assert out.startswith(f"usage: corefkit {command} ")
        for flag in COMMAND_FLAGS[command] + ["--config", "--set", "--seed", "--out"]:
            assert flag in out

    @pytest.mark.parametrize("argv,message", [
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ])
    def test_unknown_or_missing_command_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert err.startswith("usage: corefkit [-h]") and message in err

    def test_command_flags_are_parsed(self, capsys, corpus_files):
        code, out, _ = run_cli(capsys, "convert", corpus_files["all"], "--from-format", "jsonl",
                               "--to", "jsonl")
        assert code == 0 and out == Path(corpus_files["all"]).read_text()
        with pytest.raises(SystemExit) as exit_info:
            main(["resolve", "model.ckpt", "in.jsonl", "--to", "xml"])
        assert exit_info.value.code == 2
        assert "argument --to: invalid choice: 'xml'" in capsys.readouterr().err


def _command_argv(command, files, model):
    """A quick successful run of ``command`` on the small corpus."""
    split = ["--train", files["train"], "--dev", files["dev"], "--test", files["test"]]
    return {
        "convert": ["convert", files["train"], "--to", "conll"],
        "synth": ["synth", "--out-file", files["synth"], "--set", "synth.num_docs=2"],
        "score": ["score", files["test"], files["test"]],
        "resolve": ["resolve", model, files["test"]],
        "train": ["train", "--source", model, "--train", files["train"], "--dev", files["dev"]],
        "curve": ["curve", *split, "--sizes", "0,2", "--source", model],
        "devalloc": ["devalloc", *split, "--subset-sizes", "1", "--num-subsets", "2"],
        "forget": ["forget", *split, "--source", model, "--source-test", files["test"], "--sizes", "0"],
        "freeze-sweep": ["freeze-sweep", *split, "--top-k", "0"],
        "gradcheck": ["gradcheck", "--scalars", "20"],
    }[command]


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_every_command_writes_its_manifest(capsys, corpus_files, model_file, tmp_path, command):
    files = dict(corpus_files, synth=str(tmp_path / "synth.jsonl"))
    out_dir = tmp_path / "out"
    argv = _command_argv(command, files, str(model_file))
    code, _, err = run_cli(capsys, *argv, "--out", str(out_dir), "--seed", "1", *SMALL_MODEL)
    assert code == 0, err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["seed"] == (None if command in ("convert", "score", "resolve") else 1)
    # every file the command read, and no other
    read = {str(model_file), *corpus_files.values()}
    assert set(manifest["inputs"]) == {arg for arg in argv if arg in read}
