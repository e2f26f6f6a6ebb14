"""numpy's seeded PCG64 streams, in pure Python.

``Generator(PCG64(SeedSequence(seed, spawn_key=key)))`` builds three
numpy objects, and a solver run reads one double of it (its alpha); a
double-greedy round reads a few coins or none. ``Stream`` gives the same
draws bit for bit with Python integers: numpy's ``SeedSequence`` hash
mixing and ``generate_state``, then PCG64 (O'Neill 2014) seeding, steps
and XSL-RR output. ``seed_pool`` mixes a seed once for all the keys a
solve reads. numpy keeps both ``SeedSequence`` and ``PCG64`` streams
stable across versions, and the tests compare every stream with numpy.
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


class Stream:
    """The draws of ``Generator(PCG64(SeedSequence(seed,
    spawn_key=(key,)))).random()``, bit for bit, from ``pooled =
    seed_pool(seed)``; with ``key`` None, those of
    ``Generator(PCG64(seed))``. Building a stream hashes nothing. The
    first ``random()`` mixes the key's words into a copy of the pool
    (nothing with no key), takes ``generate_state(4, uint64)`` (words
    read little-endian) as (initstate, initseq) and seeds as O'Neill's
    ``srandom`` does (state 0, inc = 2 initseq + 1, step, add initstate,
    step). Every ``random()`` then steps once and takes the XSL-RR
    output's top 53 bits. A negative or non-integer key raises at the
    first draw."""

    __slots__ = ("_pooled", "_key", "_state", "_inc")

    def __init__(self, pooled, key=None):
        self._pooled, self._key, self._inc = pooled, key, None

    def random(self):
        inc = self._inc
        if inc is None:
            pool, h = self._pooled
            if self._key is not None:
                pool = list(pool)
                _mix_in(pool, h, _words(self._key))
            s = [(v := (pool[i] ^ x) * m & _MASK32) ^ v >> 16 for i, x, m in _STATE]
            initstate = (s[0] | s[1] << 32) << 64 | s[2] | s[3] << 32
            inc = self._inc = (
                ((s[4] | s[5] << 32) << 64 | s[6] | s[7] << 32) << 1 & _MASK128 | 1
            )
            state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        else:
            state = self._state
        state = self._state = (state * _PCG_MULT + inc) & _MASK128
        out = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (((out >> rot | out << (64 - rot)) & _MASK64) >> 11) * 2.0**-53
