"""Seed derivation: stability, type sensitivity, stream independence."""

import numpy as np
import pytest

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
