"""Deterministic, portable pseudo-random streams.

The generator is SplitMix64.  Its entire behaviour is spelled out here so
the same draw sequences can be reproduced in any language from a seed:

* state transition: ``state = (state + 0x9E3779B97F4A7C15) mod 2**64``
* output mixer, applied to the new state z:
  ``z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2**64)``
  ``z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2**64)``
  ``z ^= z >> 31``
* ``uniform()`` takes the top 53 bits: ``(z >> 11) * 2.0**-53`` in [0, 1)
* ``normal()`` is Box-Muller on two uniforms u1, u2 drawn in that order:
  ``r = sqrt(-2 ln(1 - u1))``, ``a = 2 pi u2``; ``r cos(a)`` is returned
  first and ``r sin(a)`` is cached and returned by the next call
* ``below(n)`` is ``next_u64() % n`` (modulo bias is negligible for the
  small n used here)
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


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
        """Standard normal variate (Box-Muller, pair cached)."""
        if self._spare is not None:
            value = self._spare
            self._spare = None
            return value
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        a = 2.0 * math.pi * u2
        self._spare = r * math.sin(a)
        return r * math.cos(a)
