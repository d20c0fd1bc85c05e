"""Deterministic random-stream derivation.

All randomness in this package flows from a single non-negative integer seed.
Independent streams are derived by extending the seed with a path of integer
identifiers, e.g. ``(seed, replicate)`` for simulation replicate data and
``(seed, replicate, tag)`` for the test run on that replicate.  The generator
is NumPy's PCG64 behind ``numpy.random.Generator``; two distinct paths yield
independent streams via ``SeedSequence`` hashing, so results never depend on
execution order or thread count.

Permutation replicate ``b`` shuffles with the stream ``(seed, PERM_STREAM,
b)``.  ``permuted_labels(labels, seed, b)`` builds that stream with NumPy's own
objects and is the definition.  Given a range of replicates it yields the same
rows without one ``SeedSequence`` and one ``Generator`` per replicate: it hashes
every replicate's entropy in one vectorised pass of uint32 arithmetic (NumPy's
``SeedSequence``, after O'Neill's ``seed_seq_fe``), seeds each PCG64 state in
Python integers (O'Neill 2014, PCG report HMC-CS-2014-0905, ``srandom``), and
loads each state into one reused ``Generator`` whose ``shuffle`` draws the row.
The draw itself is NumPy's, so the rows equal the definition's bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

# stream tags, kept distinct so derived paths cannot collide by accident
DATA_STREAM = 0
TEST_STREAM = 1
PERM_STREAM = 2

# numpy's SeedSequence hash constants (pool of 4 uint32 words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return int(seed)


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, *path)``."""
    entropy = [check_seed(seed)] + [int(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def spawn_seed(seed: int, *path: int) -> int:
    """A 128-bit integer seed derived deterministically from ``(seed, *path)``."""
    entropy = [check_seed(seed)] + [int(p) for p in path]
    state = np.random.SeedSequence(entropy).generate_state(4)
    return int.from_bytes(state.tobytes(), "little")


def _words(x: int) -> List[int]:
    """The uint32 entropy words SeedSequence makes of a non-negative integer."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _seed_sequence_states(entropy: List[np.ndarray]) -> List[np.ndarray]:
    """``SeedSequence(e).generate_state(8, uint32)`` for every column e.

    ``entropy`` holds one (m,) uint32 array per entropy word; column i of the
    stack is one SeedSequence's entropy.  The hash constants evolve the same
    way for every column, so they stay Python integers.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append(value ^ (value >> np.uint32(16)))
    return out


def _pcg64_states(seed: int, replicates: np.ndarray) -> List[tuple]:
    """PCG64 ``(state, inc)`` of ``PCG64(SeedSequence([seed, PERM_STREAM, b]))``
    for every b of the int64 array ``replicates``."""
    m = replicates.shape[0]
    prefix = [np.full(m, w, dtype=np.uint32) for w in _words(seed) + [PERM_STREAM]]
    low = (replicates & _MASK32).astype(np.uint32)
    high = (replicates >> 32).astype(np.uint32)
    # SeedSequence makes one entropy word of b < 2**32 and two of larger b
    wide = high != 0
    words = np.empty((8, m), dtype=np.uint64)
    for sel, tail in ((~wide, [low]), (wide, [low, high])):
        if sel.any():
            words[:, sel] = _seed_sequence_states([w[sel] for w in prefix + tail])
    # generate_state(4, uint64) pairs the uint32 words little-endian
    w0, w1, w2, w3 = (words[2 * k] | words[2 * k + 1] << np.uint64(32) for k in range(4))
    states = []
    for a, b, c, d in zip(w0.tolist(), w1.tolist(), w2.tolist(), w3.tolist()):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append(((((inc + (a << 64 | b)) * _PCG64_MULT) + inc) & _MASK128, inc))
    return states


def permuted_labels(
    labels: np.ndarray,
    seed: int,
    replicate: Union[int, Sequence[int]],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The label vector for permutation replicate ``replicate``.

    Used by every permutation test so that identical ``(seed, replicate)``
    always means an identical shuffle.  Given a 1-D range or array of
    replicate indices it returns one row per index, (m, n), written into
    ``out`` when that is given; row i equals ``permuted_labels(labels, seed,
    replicate[i])`` bit for bit.  Batched indices must lie in [0, 2**63).
    """
    if isinstance(replicate, (int, np.integer)):
        rng = derive_rng(seed, PERM_STREAM, replicate)
        return labels[rng.permutation(labels.shape[0])]
    seed = check_seed(seed)
    reps = np.asarray(replicate)
    if reps.ndim != 1 or (reps.size and reps.dtype.kind not in "iu"):
        raise ValueError("replicate indices must be a 1-D sequence of integers below 2**63")
    if reps.size and not 0 <= int(reps.min()) <= int(reps.max()) < 2**63:
        raise ValueError("replicate indices must lie in [0, 2**63)")
    shape = (reps.shape[0],) + labels.shape
    if out is None:
        out = np.empty(shape, dtype=labels.dtype)
    elif out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    out[...] = labels
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for row, (state, inc) in zip(out, _pcg64_states(seed, reps.astype(np.int64))):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.shuffle(row)
    return out
