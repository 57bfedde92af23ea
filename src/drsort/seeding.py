"""Named, isolated random streams derived from one master seed.

Every consumer of randomness asks for a stream by name (plus optional
integer qualifiers such as a group or trial index). Streams are derived
through SeedSequence from (master_seed, sha256(name), *qualifiers), so
adding a new consumer never perturbs the draws seen by existing ones and
two experiments with different master seeds share no state.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits `value & MASK64` into.

    SeedSequence turns an int into as many words as it needs, and one for 0.
    """
    value &= _MASK64
    high = value >> 32
    return [value & _MASK32, high] if high else [value]


@functools.lru_cache(maxsize=1024)
def _name_words(name: str) -> tuple[int, ...]:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(_words(int.from_bytes(digest[:8], "little")))


def stream(master_seed: int, name: str, *qualifiers: int) -> np.random.Generator:
    """Return the generator for the (master_seed, name, qualifiers) stream.

    Calling this twice with the same arguments yields generators that
    produce identical draws. SeedSequence receives the entropy as one
    uint32 array of the words it would split the 64-bit-masked ints
    [master_seed, sha256 token of name, *qualifiers] into, which skips its
    per-int conversion and leaves the generator state unchanged.
    """
    words = _words(int(master_seed))
    words.extend(_name_words(name))
    for q in qualifiers:
        words.extend(_words(int(q)))
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
