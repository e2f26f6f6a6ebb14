"""The first double of numpy's seeded PCG64 streams, in pure Python.

``Generator(PCG64(SeedSequence(seed, spawn_key=key))).random()`` builds
three numpy objects to read one double; a solver run reads just that one
(its alpha). These functions compute it bit for bit with Python
integers: numpy's ``SeedSequence`` hash mixing and ``generate_state``,
then PCG64 (O'Neill 2014) seeding, one step and its XSL-RR output.
numpy keeps both ``SeedSequence`` and ``PCG64`` streams stable across
versions, and the tests compare every function here with numpy.
"""

import operator

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4


def _hashes(h, mult, n):
    """The first n (xor, multiplier) pairs of a hash-constant sequence
    that starts at h and is multiplied by ``mult`` at each hash, and the
    constant after them. The sequence does not depend on the data, so
    the fixed-length steps below read it from tables."""
    pairs = []
    for _ in range(n):
        pairs.append((h, h := h * mult & _MASK32))
    return pairs, h


# mix_entropy hashes the seed's first pool-size words into the pool,
# then each pool word s into every other word d; generate_state(4,
# uint64) hashes 8 pool words, cycling through the pool
_mixing, _H_MIXED = _hashes(_INIT_A, _MULT_A, _POOL_SIZE**2)
_FILL = tuple(_mixing[:_POOL_SIZE])
_CROSS = tuple(
    (s, d, x, m)
    for (s, d), (x, m) in zip(
        [(s, d) for s in range(_POOL_SIZE) for d in range(_POOL_SIZE) if s != d],
        _mixing[_POOL_SIZE:],
    )
)
_STATE = tuple(
    (i % _POOL_SIZE, x, m)
    for i, (x, m) in enumerate(_hashes(_INIT_B, _MULT_B, 2 * _POOL_SIZE)[0])
)


def _words(n):
    """A non-negative integer as numpy coerces it: little-endian 32-bit
    words, [0] for 0. Taken as a Python int first (numpy scalars
    overflow); a float, or a negative, raises as in numpy."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seed words need a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _mix_in(pool, h, words):
    """``mix_entropy``'s loop over the words past the pool: each word is
    hashed (hash constant ``h``) into every pool word in turn. Updates
    ``pool`` in place and returns the new hash constant."""
    for w in words:
        for d in range(_POOL_SIZE):
            v = (w ^ h) * (h := h * _MULT_A & _MASK32) & _MASK32
            r = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _MASK32
            pool[d] = r ^ r >> 16
    return h


def seed_pool(seed):
    """``SeedSequence(seed, spawn_key=key)``'s entropy pool once it has
    mixed in the seed, the part all keys share, as (pool words, hash
    constant). The seed's words are padded with zeros to the pool size,
    as numpy pads them when a spawn key follows; with no key the padding
    changes nothing, since numpy hashes a 0 for each missing word."""
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool = [(v := (w ^ x) * m & _MASK32) ^ v >> 16 for w, (x, m) in zip(words, _FILL)]
    for s, d, x, m in _CROSS:  # late words reach early ones
        v = (pool[s] ^ x) * m & _MASK32
        r = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _MASK32
        pool[d] = r ^ r >> 16
    h = _mix_in(pool, _H_MIXED, words[_POOL_SIZE:])
    return tuple(pool), h


def _pcg64_first_double(pool):
    """The first ``random()`` of PCG64 seeded from a mixed pool: take
    ``generate_state(4, uint64)`` (words read little-endian) as
    (initstate, initseq), seed as O'Neill's ``srandom`` does (state 0,
    inc = 2 initseq + 1, step, add initstate, step), then step once more
    and take the XSL-RR output's top 53 bits."""
    s = [(v := (pool[i] ^ x) * m & _MASK32) ^ v >> 16 for i, x, m in _STATE]
    initstate = (s[0] | s[1] << 32) << 64 | s[2] | s[3] << 32
    inc = ((s[4] | s[5] << 32) << 64 | s[6] | s[7] << 32) << 1 & _MASK128 | 1
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    state = (state * _PCG_MULT + inc) & _MASK128
    out = (state >> 64 ^ state) & _MASK64
    rot = state >> 122
    out = (out >> rot | out << (64 - rot)) & _MASK64
    return (out >> 11) * 2.0**-53


def first_draw(pooled, j):
    """``Generator(PCG64(SeedSequence(seed, spawn_key=(j,)))).random()``,
    bit for bit, from ``pooled = seed_pool(seed)``: j's words are mixed
    into a copy of the pool."""
    pool, h = pooled
    pool = list(pool)
    _mix_in(pool, h, _words(j))
    return _pcg64_first_double(pool)


def seed_draw(seed):
    """``Generator(PCG64(seed)).random()``, bit for bit."""
    return _pcg64_first_double(seed_pool(seed)[0])
