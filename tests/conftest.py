import pytest

from corefkit import Document, EncoderConfig, EngineConfig


@pytest.fixture
def tiny_doc():
    return Document(
        "tiny",
        [["Anna", "saw", "the", "dog"], ["Anna", "fed", "it", "happily"]],
        [((0, 0), (4, 4)), ((2, 3), (6, 6))],
    )


@pytest.fixture
def small_encoder_cfg():
    return EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=128, max_position=64)


@pytest.fixture
def small_engine_cfg():
    return EngineConfig(
        max_span_width=3,
        pruning_mode="reformulated",
        scorer_hidden_dim=6,
        width_embedding_dim=4,
    )


@pytest.fixture
def growing_doc():
    """24 entities, each mentioned twice, over 24 four-token sentences: every
    entity is live at once, more than EngineState.FIRST_CAPACITY of them."""
    sentences, clusters = [], []
    for s in range(12):  # two new entities per sentence
        sentences.append([f"e{2 * s}", "saw", f"e{2 * s + 1}", "."])
        clusters.append([(4 * s, 4 * s)])
        clusters.append([(4 * s + 2, 4 * s + 2)])
    for s in range(12):  # then each entity again, in the same order
        base = 48 + 4 * s
        sentences.append([f"e{2 * s}", "met", f"e{2 * s + 1}", "."])
        clusters[2 * s].append((base, base))
        clusters[2 * s + 1].append((base + 2, base + 2))
    return Document("growing", sentences, [tuple(c) for c in clusters])
