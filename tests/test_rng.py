"""The batched permutation label stream against NumPy's own seeding and draws.

``permuted_labels(labels, seed, b)`` with an integer ``b`` is the definition:
``labels[derive_rng(seed, PERM_STREAM, b).permutation(n)]``.  A range of
replicates must reproduce it row for row, through a vectorised SeedSequence
hash and PCG64 seeding that re-implement NumPy's.
"""

import numpy as np
import pytest

from metricmanova.rng import PERM_STREAM, _pcg64_states, permuted_labels, spawn_seed

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**160 + 5]


def _numpy_state(seed, b):
    state = np.random.PCG64(np.random.SeedSequence([seed, PERM_STREAM, b])).state["state"]
    return state["state"], state["inc"]


def _check_states(seeds, reps):
    reps = np.asarray(reps, dtype=np.int64)
    for seed in seeds:
        got = _pcg64_states(seed, reps)
        assert got == [_numpy_state(seed, b) for b in reps.tolist()], seed
    return len(seeds) * len(reps)


def test_pcg64_seeding_equals_numpy():
    rng = np.random.default_rng(2024)
    # 1- to 6-word seeds: the edges, 128-bit spawned seeds and random sizes
    seeds = EDGE_SEEDS + [spawn_seed(s, 3, 7) for s in range(6)] + [
        int(rng.integers(0, 2**62)) << int(shift) for shift in rng.integers(0, 130, size=12)
    ]
    reps = np.concatenate([
        np.arange(200),
        rng.integers(0, 2**32, size=50),
        [2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1],
    ])
    assert _check_states(seeds, reps) >= 5000


def test_wide_replicate_indices_hash_two_words():
    # SeedSequence turns b >= 2**32 into two entropy words; a range that
    # crosses 2**32 mixes both widths
    reps = list(range(2**32 - 3, 2**32 + 3)) + [2**40 + 11, 2**62, 2**63 - 1]
    _check_states(EDGE_SEEDS, reps)
    labels = np.arange(7)
    rows = permuted_labels(labels, 5, range(2**32 - 2, 2**32 + 2))
    for row, b in zip(rows, range(2**32 - 2, 2**32 + 2)):
        assert np.array_equal(row, permuted_labels(labels, 5, b))


@pytest.mark.parametrize("reps", [[2**63], [2**64 + 1], np.array([2**63], dtype=np.uint64),
                                  [-1], range(-2, 2), [1.0], [[0, 1]]])
def test_unrepresentable_replicates_raise(reps):
    with pytest.raises(ValueError):
        permuted_labels(np.arange(4), 0, reps)


def _labels(kind, n):
    codes = np.arange(n) % 3
    if kind == "int64":
        return codes.astype(np.int64)
    if kind == "uint8":
        return codes.astype(np.uint8)
    if kind == "str":
        return np.array(["a", "bb", "ccc"])[codes]
    return np.array([("x", "y", 3.5)[c] for c in codes], dtype=object)


@pytest.mark.parametrize("kind", ["int64", "uint8", "str", "object"])
@pytest.mark.parametrize("n", [1, 2, 200, 301])
def test_rows_equal_scalar_definition(kind, n):
    labels = _labels(kind, n)
    for seed in (0, 2**64 - 1, spawn_seed(9, 1)):
        rows = permuted_labels(labels, seed, range(3, 40))
        assert rows.shape == (37, n) and rows.dtype == labels.dtype
        for row, b in zip(rows, range(3, 40)):
            assert row.tolist() == permuted_labels(labels, seed, b).tolist()


def test_out_is_filled_in_place():
    labels = np.repeat(np.arange(4), 25)
    buf = np.full((12, 100), -1, dtype=np.int64)
    out = buf[2:]
    assert permuted_labels(labels, 3, np.arange(5, 15), out=out) is out
    assert np.all(buf[:2] == -1)
    assert np.array_equal(buf[2:], np.stack([permuted_labels(labels, 3, b) for b in range(5, 15)]))
    with pytest.raises(ValueError):
        permuted_labels(labels, 3, range(4), out=buf)


def test_empty_range():
    labels = np.arange(6)
    assert permuted_labels(labels, 1, range(0)).shape == (0, 6)
    assert permuted_labels(labels, 1, range(5, 5), out=np.empty((0, 6), int)).shape == (0, 6)
