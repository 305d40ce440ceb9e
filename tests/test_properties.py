"""Property tests through ``corefkit.cli.main``: damaged checkpoints and
mutated documents end in a documented error category, never ``internal``."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit import SchemeConfig, synth_corpus, write_conll, write_jsonl
from corefkit.cli import main

SMALL_MODEL = [
    "--set", "encoder.num_layers=1", "--set", "encoder.hidden_dim=8",
    "--set", "encoder.hash_vocab_size=64", "--set", "encoder.max_position=64",
    "--set", "engine.max_span_width=3", "--set", "engine.scorer_hidden_dim=8",
    "--set", "engine.width_embedding_dim=4", "--set", "engine.max_segment_tokens=64",
    "--set", "train.max_epochs=1", "--set", "train.patience=1",
]

# few examples and fixed draws: Tier-1 stays fast and reproducible
FEW = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("properties")
    docs = synth_corpus(SchemeConfig(num_docs=6, seed=5, sentences_per_doc=(2, 3),
                                     entities_per_doc=(2, 2), mentions_per_entity=(2, 3)))
    paths = {"root": root}
    for name, subset in (("train", docs[:4]), ("dev", docs[4:])):
        paths[name] = root / f"{name}.jsonl"
        paths[name].write_text(write_jsonl(subset))
    code, _, err = run("train", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
                       "--out", str(root / "run"), "--seed", "0", *SMALL_MODEL)
    assert code == 0, err
    paths["model"] = root / "run" / "model.ckpt"
    paths["texts"] = {"jsonl": write_jsonl(docs[4:]), "conll": write_conll(docs[4:])}
    return paths


def _damage(data: bytes):
    """A flip of one byte (anywhere, or in the first 300, which hold the
    header) or a cut at any length."""
    at = st.integers(0, len(data) - 1) | st.integers(0, 299)
    flip = st.tuples(st.just("flip"), at, st.integers(1, 255))
    cut = st.tuples(st.just("cut"), st.integers(0, len(data) - 1), st.just(0))
    return flip | cut


def test_damaged_checkpoint_is_a_numeric_error(files):
    data = files["model"].read_bytes()
    damaged = files["root"] / "damaged.ckpt"
    resolve_input = files["root"] / "dev.jsonl"

    @FEW
    @given(_damage(data))
    def check(damage):
        kind, at, mask = damage
        if kind == "flip":
            changed = bytearray(data)
            changed[at] ^= mask
            damaged.write_bytes(bytes(changed))
        else:
            damaged.write_bytes(data[:at])
        code, out, err = run("resolve", str(damaged), str(resolve_input))
        assert (code, out) == (1, "")
        assert err.startswith("error:numeric: "), err

    check()


# characters that move a document's structure: brackets, separators, digits,
# quotes, markers and line breaks
EDIT_CHARS = st.sampled_from(list('()[]{},:"|-#0123456789 \t\nx'))


@st.composite
def mutated(draw, text: str):
    """``text`` after one to three edits: a character replaced, a run
    deleted, a short run inserted, or a line duplicated."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(text) - 1, 0)))
        edit = draw(st.sampled_from(["replace", "delete", "insert", "duplicate_line"]))
        if edit == "replace":
            text = text[:at] + draw(EDIT_CHARS) + text[at + 1 :]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 20)) :]
        elif edit == "insert":
            text = text[:at] + draw(st.text(EDIT_CHARS, min_size=1, max_size=6)) + text[at:]
        else:
            start = text.rfind("\n", 0, at) + 1
            end = text.find("\n", at)
            end = len(text) if end < 0 else end + 1
            text = text[:end] + text[start:end] + text[end:]
    return text


@pytest.mark.parametrize("fmt", ["jsonl", "conll"])
@pytest.mark.parametrize("command", ["score", "resolve"])
def test_mutated_documents_fail_as_parse_or_config(files, fmt, command):
    path = files["root"] / f"mutated_{command}.{fmt}"

    @FEW
    @given(mutated(files["texts"][fmt]))
    def check(text):
        path.write_text(text)
        if command == "score":
            argv = ["score", str(path), str(path)]
        else:
            argv = ["resolve", str(files["model"]), str(path)]
        code, _, err = run(*argv)
        assert code == 0 or err.startswith(("error:parse: ", "error:config: ")), err
        assert "Traceback" not in err

    check()
