"""numpy's default_rng(seed).random stream, bit for bit, without importing
numpy's random package (and hashlib with it): PCG64 (O'Neill, "PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014) seeded through numpy's SeedSequence with its pool of four
32-bit words; a double is (next64 >> 11) * 2**-53."""

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after seeding from SeedSequence(seed)."""
    words = [seed >> 32 * i & _M32 for i in range(max(4, -(-seed.bit_length() // 32)))]
    h = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight hashes read as four little-endian
    # uint64 words, the seed's high and low halves, then the stream's
    h = 0x8B51F9DD
    x = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    w = [x[i] | x[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    return (((w[0] << 64 | w[1]) + inc) * _MULT + inc) & _M128, inc


def _mulhi(x: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of the 128-bit products x * b, in 32-bit halves."""
    x0, x1, b0, b1 = x & _M32, x >> 32, b & _M32, b >> 32
    p01, p10 = x0 * b1, x1 * b0
    mid = (x0 * b0 >> 32) + (p10 & _M32) + (p01 & _M32)
    return x1 * b1 + (p10 >> 32) + (p01 >> 32) + (mid >> 32)


def uniforms(seed, n: int) -> np.ndarray:
    """The n doubles of numpy's default_rng(seed).random(n), bit for bit,
    for an integer seed >= 0; uniform(lo, hi) is lo + (hi - lo) * these."""
    state, inc = _seed_state(int(seed))
    hi, lo = np.empty(n, np.uint64), np.empty(n, np.uint64)
    a, c, size = 1, 0, min(n, 64)
    for i in range(size):  # x -> a x + c advances a state by `size` steps
        state = (state * _MULT + inc) & _M128
        a, c = a * _MULT & _M128, (c * _MULT + inc) & _M128
        hi[i], lo[i] = state >> 64, state & _M64
    while size < n:  # jump the states drawn so far ahead by `size`, doubling
        m = min(size, n - size)
        l, a_lo, c_lo = lo[:m], a & _M64, c & _M64
        lo[size:size + m] = l * a_lo + c_lo  # wraps mod 2**64; a carry iff below c_lo
        hi[size:size + m] = (_mulhi(l, a_lo) + hi[:m] * a_lo + l * (a >> 64) + (c >> 64)
                             + (lo[size:size + m] < c_lo))
        a, c, size = a * a & _M128, (a * c + c) & _M128, size + m
    x, rot = hi ^ lo, hi >> 58  # XSL-RR output
    out = x >> rot | x << (64 - rot & 63)
    return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)
