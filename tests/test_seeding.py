import hashlib
import random

import numpy as np
import pytest

from drsort.seeding import stream


def raw(generator, n=4):
    return generator.bit_generator.random_raw(n)


def test_same_arguments_give_identical_draws():
    assert np.array_equal(raw(stream(3, "train/init")), raw(stream(3, "train/init")))
    assert np.array_equal(stream(3, "eval", 2, 7).random(5), stream(3, "eval", 2, 7).random(5))


@pytest.mark.parametrize(
    "other",
    [(2, "eval", 0, 1), (1, "train", 0, 1), (1, "eval", 1, 1), (1, "eval", 0, 2), (1, "eval", 0),
     (1, "eval", 0, 1, 0)],
    ids=["master-seed", "name", "first-qualifier", "second-qualifier", "fewer-qualifiers",
         "more-qualifiers"],
)
def test_any_changed_argument_changes_the_stream(other):
    assert not np.array_equal(raw(stream(*other)), raw(stream(1, "eval", 0, 1)))


M64 = (1 << 64) - 1
BOUNDARIES = [0, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**64 + 5]


def oracle(seed, name, *qualifiers):
    """The stream as SeedSequence builds it from the masked ints themselves."""
    token = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")
    entropy = [seed & M64, token, *(q & M64 for q in qualifiers)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@pytest.mark.parametrize("value", BOUNDARIES)
def test_boundary_values_give_the_oracle_state(value):
    for args in ((value, "eval"), (1, "eval", value), (value, "train/replay", value, 7)):
        assert stream(*args).bit_generator.state == oracle(*args).bit_generator.state, args


def test_random_arguments_give_the_oracle_state():
    draw = random.Random(20)
    for _ in range(200):
        seed = draw.choice([draw.randrange(2**31), draw.randrange(-(2**70), 2**70)])
        name = draw.choice(["eval", "train/init", "", "é/" + str(draw.randrange(100))])
        qualifiers = [draw.choice([draw.randrange(64), draw.randrange(-(2**66), 2**66)])
                      for _ in range(draw.randrange(4))]
        args = (seed, name, *qualifiers)
        assert stream(*args).bit_generator.state == oracle(*args).bit_generator.state, args


def test_qualifiers_and_master_seed_are_masked_to_64_bits():
    assert np.array_equal(raw(stream(1, "q", -1)), raw(stream(1, "q", 2**64 - 1)))
    assert np.array_equal(raw(stream(1, "q", 2**64 + 5)), raw(stream(1, "q", 5)))
    assert np.array_equal(raw(stream(2**64 + 1, "q")), raw(stream(1, "q")))


@pytest.mark.parametrize(
    "args, first",
    [
        ((1, "eval", 0, 0), [13512489942764457192, 702754094405852026, 3466736298848589142]),
        ((1, "train/replay"), [14661657923782805960, 5097785330922846032, 14863365491017344385]),
    ],
    ids=["eval", "train-replay"],
)
def test_stream_derivation_is_frozen(args, first):
    # a change here moves every random draw, and so every pinned digest
    assert raw(stream(*args), 3).tolist() == first
