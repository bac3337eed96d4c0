"""Seed derivation: stability, type sensitivity, stream independence."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdsim.seeding import rng_for, stable_seed


def test_frozen_values_never_drift():
    # these constants pin the hash layout; a change here silently breaks
    # reproducibility of every persisted run
    assert stable_seed(0) == 304375104862016857
    assert stable_seed(7, "pair", 2, 1, "vanilla", 1.0, 0.5) == 116828644071094869
    assert stable_seed("epoch", 3) == 1424908216700371470


def test_argument_types_are_distinguished():
    seeds = {
        stable_seed(True),
        stable_seed(1),
        stable_seed(1.0),
        stable_seed("1"),
    }
    assert len(seeds) == 4


def test_order_and_arity_matter():
    assert stable_seed("a", "b") != stable_seed("b", "a")
    assert stable_seed("ab") != stable_seed("a", "b")
    assert stable_seed("a", "") != stable_seed("a")


def test_range_and_determinism():
    rng = np.random.default_rng(0)
    for _ in range(200):
        parts = tuple(int(v) for v in rng.integers(0, 1 << 40, size=3))
        s = stable_seed(*parts)
        assert 0 <= s < (1 << 63)
        assert s == stable_seed(*parts)


def test_float_distinctions_follow_repr():
    assert stable_seed(0.1) != stable_seed(0.2)
    # repr distinguishes values that print the same at low precision
    assert stable_seed(0.1 + 0.2) != stable_seed(0.3)


def test_rng_for_streams():
    a = rng_for(42, "x").integers(0, 100, 4)
    assert list(a) == [80, 21, 28, 57]
    b = rng_for(42, "x").integers(0, 100, 4)
    assert np.array_equal(a, b)
    c = rng_for(42, "y").integers(0, 100, 4)
    assert not np.array_equal(a, c)


def test_rejects_unsupported_types():
    with pytest.raises(TypeError):
        stable_seed([1, 2])


def test_rejects_strings_holding_the_separator():
    # "a\x00s:b" would otherwise hash exactly like the pair ("a", "b")
    with pytest.raises(ValueError, match="NUL"):
        stable_seed("a\x00s:b")


def test_lone_surrogates_hash_and_stay_distinct():
    # strings holding a lone surrogate are valid str values; UTF-8 alone
    # cannot encode them
    assert stable_seed("\ud800") != stable_seed("\ud801")
    assert stable_seed("a\udfff") != stable_seed("a")


def _literal_stable_seed(*parts):
    """`stable_seed` as first written: one hash update per token and one
    per NUL after it."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, bool):
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
        digest.update(token.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest()[:8], "little") & ((1 << 63) - 1)


def _literal_rng_for(*parts):
    """`rng_for` as first written."""
    return np.random.default_rng(_literal_stable_seed(*parts))


_NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64)

_part = st.one_of(
    st.booleans(),
    # beyond the 64-bit range either way
    st.integers(-(2**80), 2**80),
    st.sampled_from(_NUMPY_INTS).flatmap(
        lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)
    ),
    st.floats(),
    st.just(-0.0),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    # every code point but NUL, lone surrogates included
    st.text(st.characters(exclude_characters="\x00", exclude_categories=()), max_size=6),
    st.sampled_from(["\ud800", "a\udfff", "\udbff\udc00", ""]),
)
SEEDS = settings(max_examples=300, deadline=None, database=None)


@SEEDS
@given(st.lists(_part, max_size=6))
def test_seeds_and_streams_equal_a_literal_copy(parts):
    assert stable_seed(*parts) == _literal_stable_seed(*parts)
    assert rng_for(*parts).random(8).tobytes() == _literal_rng_for(*parts).random(8).tobytes()


@SEEDS
@given(
    st.lists(_part, max_size=3),
    st.text(),
    st.text(),
    st.sampled_from([None, b"bytes", [1], (1,), 1j, np.bool_(True), np.array([1.0])]),
)
def test_nul_strings_and_other_types_still_raise(parts, head, tail, other):
    for derive in (stable_seed, rng_for):
        with pytest.raises(ValueError, match="NUL"):
            derive(*parts, head + "\x00" + tail)
        with pytest.raises(TypeError):
            derive(*parts, other)
