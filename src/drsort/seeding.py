"""Named, isolated random streams derived from one master seed.

Every consumer of randomness asks for a stream by name (plus optional
integer qualifiers such as a group or trial index). Streams are derived
through SeedSequence from (master_seed, sha256(name), *qualifiers), so
adding a new consumer never perturbs the draws seen by existing ones and
two experiments with different master seeds share no state.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _name_token(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(master_seed: int, name: str, *qualifiers: int) -> np.random.Generator:
    """Return the generator for the (master_seed, name, qualifiers) stream.

    Calling this twice with the same arguments yields generators that
    produce identical draws.
    """
    entropy = [int(master_seed) & _MASK64, _name_token(name)]
    entropy.extend(int(q) & _MASK64 for q in qualifiers)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
