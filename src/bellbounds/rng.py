"""Deterministic, portable pseudo-random streams.

The generator is SplitMix64.  Its entire behaviour is spelled out here so
the same draw sequences can be reproduced in any language from a seed:

* state transition: ``state = (state + 0x9E3779B97F4A7C15) mod 2**64``
* output mixer, applied to the new state z:
  ``z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2**64)``
  ``z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2**64)``
  ``z ^= z >> 31``
* ``uniform()`` takes the top 53 bits: ``(z >> 11) * 2.0**-53`` in [0, 1)
* ``normals(k)`` is k standard normal draws, Box-Muller on two uniforms
  u1, u2 drawn in that order: ``r = sqrt(-2 ln(1 - u1))``, ``a = 2 pi u2``;
  ``r cos(a)`` is drawn first and ``r sin(a)`` is cached as the next draw,
  so a block starts with a cached value and caches an odd last one.
  ``normal()`` is ``normals(1)``.  The state after j uniforms is
  ``state + j * 0x9E3779B97F4A7C15 (mod 2**64)`` (Steele, Lea & Flood,
  OOPSLA 2014), so the block's u64s and uniforms are exact in numpy uint64
  and float64; Box-Muller's log, cos and sin stay on ``math``, because
  numpy's may differ from them in the last bit
* ``below(n)`` is ``next_u64() % n`` (modulo bias is negligible for the
  small n used here)
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# the constants of next_u64 and uniform, as numpy uint64, in the order normals uses them
_U64 = tuple(map(np.uint64, (_GAMMA, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31, 11)))


class SplitMix64:
    """A single deterministic stream; the module docstring gives the update rule."""

    __slots__ = ("state", "_spare")

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare = None

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return self.next_u64() % n

    def normal(self) -> float:
        """One standard normal variate: ``normals(1)``."""
        return float(self.normals(1)[0])

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normal variates as one array: Box-Muller pairs,
        a pending spare first and an odd last one kept, by the rule above."""
        if count < 0:
            raise ValueError(f"need count >= 0, got {count}")
        out = [self._spare] if count and self._spare is not None else []
        if out:
            self._spare = None
        draws = 2 * ((count - len(out) + 1) // 2)
        z = np.arange(1, draws + 1, dtype=np.uint64) * _U64[0] + np.uint64(self.state)  # mod 2**64
        self.state = (self.state + draws * _GAMMA) & _MASK64
        z = (z ^ (z >> _U64[1])) * _U64[2]
        z = (z ^ (z >> _U64[3])) * _U64[4]
        uniforms = (((z ^ (z >> _U64[5])) >> _U64[6]) * 2.0**-53).tolist()
        for u1, u2 in zip(uniforms[0::2], uniforms[1::2]):
            r = math.sqrt(-2.0 * math.log(1.0 - u1))
            a = 2.0 * math.pi * u2
            out += (r * math.cos(a), r * math.sin(a))
        if len(out) > count:
            self._spare = out.pop()
        return np.array(out)
