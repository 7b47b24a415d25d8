"""Seed-derivation streams."""

import numpy as np
from conftest import rejects

from invlab import derive_key, derive_rng


def test_same_parts_same_stream():
    a = derive_rng(7, "fit", 3).standard_normal(5)
    b = derive_rng(7, "fit", 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_distinct_parts_distinct_streams():
    base = derive_rng(7, "fit", 3).standard_normal(5)
    assert not np.array_equal(base, derive_rng(7, "fit", 4).standard_normal(5))
    assert not np.array_equal(base, derive_rng(8, "fit", 3).standard_normal(5))
    assert not np.array_equal(base, derive_rng(7, "eval", 3).standard_normal(5))


def test_key_is_stable_int():
    k1 = derive_key(1, "alpha", 2)
    k2 = derive_key(1, "alpha", 2)
    assert isinstance(k1, int) and k1 == k2
    assert derive_key(1, "alpha", 3) != k1


def test_labels_hash_by_string_form():
    # documented: 1 and "1" name the same stream, ("ab",) and ("a","b") do not
    assert derive_key(0, "1") == derive_key(0, 1)
    assert derive_key(0, "ab") != derive_key(0, "a", "b")


def test_a_seed_too_long_to_print_is_refused_by_its_size():
    with rejects("seed") as err:
        derive_rng(10**5000)  # str() writes at most 4300 digits
    assert str(err.value) == "seed must be an integer, got an integer of 16610 bits"
