import csv
import json

import pytest

from corefkit import (
    EncoderConfig,
    EngineConfig,
    SchemeConfig,
    TrainConfig,
    load_checkpoint,
    parse_conll,
    parse_jsonl,
    synth_corpus,
    write_conll,
    write_jsonl,
)
from corefkit.cli import load_docs, main
from corefkit.harness import CorpusSplit, layer_freezing_sweep


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
        assert out_file.read_bytes() == open(corpus_files["conll"], "rb").read()

    def test_stdout_output(self, capsys, corpus_files):
        code, out, _ = run_cli(capsys, "convert", corpus_files["train"], "--to", "conll")
        assert code == 0
        assert out.startswith("#begin document")
        parse_conll(out)

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

    def test_transfer_zero_shot(self, capsys, corpus_files, tmp_path):
        run_dir = tmp_path / "src"
        run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(run_dir), "--seed", "0", *SMALL_MODEL,
        )
        transfer_dir = tmp_path / "tr"
        code, out, _ = run_cli(
            capsys, "transfer", "--source", str(run_dir / "model.ckpt"),
            "--dev", corpus_files["dev"], "--out", str(transfer_dir),
            "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0
        assert (transfer_dir / "model.ckpt").exists()

    def test_transfer_engine_key_overrides_source_setting(self, capsys, corpus_files, tmp_path):
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
            capsys, "transfer", "--source", str(run_dir / "model.ckpt"),
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


class TestFailEarly:
    @pytest.fixture
    def model_file(self, capsys, corpus_files, tmp_path):
        run_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "train", "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--out", str(run_dir), "--seed", "0", *SMALL_MODEL,
        )
        assert code == 0
        return run_dir / "model.ckpt"

    def test_truncated_checkpoint(self, capsys, corpus_files, model_file):
        data = model_file.read_bytes()
        model_file.write_bytes(data[: len(data) // 2])
        code, _, err = run_cli(capsys, "resolve", str(model_file), corpus_files["test"])
        assert code == 1
        assert err.startswith("error:numeric: truncated checkpoint")

    def test_padded_checkpoint(self, capsys, corpus_files, model_file):
        model_file.write_bytes(model_file.read_bytes() + b"junkjunk")
        code, _, err = run_cli(capsys, "resolve", str(model_file), corpus_files["test"])
        assert code == 1
        assert err.startswith("error:numeric:") and "trailing bytes" in err

    def test_corrupt_header_checkpoint(self, capsys, corpus_files, model_file):
        data = bytearray(model_file.read_bytes())
        data[20] ^= 0xFF  # inside the JSON header, which starts at byte 16
        model_file.write_bytes(bytes(data))
        code, _, err = run_cli(capsys, "resolve", str(model_file), corpus_files["test"])
        assert code == 1
        assert err.startswith("error:numeric: corrupt checkpoint header")

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
            capsys, "transfer", "--source", str(model_file), "--dev", corpus_files["dev"],
            "--out", str(tmp_path / "tr"), "--set", "encoder.hidden_dim=16",
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
        code, out, _ = run_cli(
            capsys, "gradcheck", "--objective", "antecedent", "--scalars", "100",
            "--seed", "1", *SMALL_MODEL,
        )
        assert code == 0


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


# each command and some of its own flags; every command also takes the common ones
COMMAND_FLAGS = {
    "convert": ["--from-format", "--to", "--out-file"],
    "synth": ["--out-file", "--format"],
    "score": ["--format"],
    "resolve": ["--format", "--to", "--out-file"],
    "train": ["--train", "--dev", "--cache-predictions"],
    "transfer": ["--source", "--train", "--dev"],
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
        assert code == 0 and out == open(corpus_files["all"]).read()
        with pytest.raises(SystemExit) as exit_info:
            main(["resolve", "model.ckpt", "in.jsonl", "--to", "xml"])
        assert exit_info.value.code == 2
        assert "argument --to: invalid choice: 'xml'" in capsys.readouterr().err
