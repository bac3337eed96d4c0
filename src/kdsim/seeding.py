"""Deterministic derivation of nested RNG streams.

Every piece of randomness in the package flows through one of these
helpers. The builtin hash() is salted per process, so seeds are derived
with SHA-256 instead; the mapping from a tuple of plain values to a
63-bit seed is stable across processes, platforms and interpreter
versions.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 63) - 1


def stable_seed(*parts: int | float | str | bool) -> int:
    """Hash a tuple of ints, floats, bools and strings (without NUL,
    the token separator) into a 63-bit seed: the SHA-256 of every
    part's token, each followed by NUL, in one call."""
    tokens = []
    for part in parts:
        if isinstance(part, bool):
            # bool is an int subclass; tag it separately so True != 1
            token = f"b:{part}"
        elif isinstance(part, (int, np.integer)):
            token = f"i:{int(part)}"
        elif isinstance(part, (float, np.floating)):
            token = f"f:{float(part)!r}"
        elif isinstance(part, str):
            if "\x00" in part:
                raise ValueError(f"cannot derive a seed from a string holding NUL: {part!r}")
            token = f"s:{part}"
        else:
            raise TypeError(f"cannot derive a seed from {part!r}")
        tokens += token, "\x00"
    # surrogatepass keeps lone surrogates encodable (and distinct); other
    # strings encode exactly as plain UTF-8
    digest = hashlib.sha256("".join(tokens).encode("utf-8", "surrogatepass")).digest()
    return int.from_bytes(digest[:8], "little") & _MASK


def rng_for(*parts: int | float | str | bool) -> np.random.Generator:
    """A fresh Generator for the stream named by `parts`: the one
    `np.random.default_rng` builds from its seed, without the dispatch."""
    return np.random.Generator(np.random.PCG64(stable_seed(*parts)))
