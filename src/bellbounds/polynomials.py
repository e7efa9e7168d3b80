"""Exact symbolic Svetlichny and Mermin-Klyshko correlation polynomials.

A polynomial maps per-party setting tuples (party 1 first) to dyadic
rational coefficients.  Both families are +/-1 polynomials whose
coefficient depends only on the Hamming weight w of a setting word,
through w mod 4, so each builder reads a four-entry integer table.

Sign convention: S2- = A0 A0 + A0 A1 + A1 A0 - A1 A1 and S2+ = -(S2-)'
where ' flips every setting label.  This is the convention under which the
N-partite recursion reproduces the standard GHZ saturation values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .linalg import DIM_CAP, FileFormatError, InvariantViolation
from .observables import MeasurementScenario


class BellPolynomial:
    """Signed sum of full correlators, keyed by per-party setting tuples.

    Coefficients are exact dyadic rationals; zero coefficients are dropped
    at construction.  ``terms`` is a read-only mapping; equality compares
    party count and terms exactly (labels are metadata).  ``table`` is the
    frozen (2,)*N float array of ``float(coeff)`` at each term's settings
    and zeros elsewhere, which ``realize`` starts from; it is None above
    the 12 parties that ``realize`` accepts.
    """

    __slots__ = ("n_parties", "terms", "label", "table")

    def __init__(self, n_parties: int, terms, label: str = "custom"):
        if n_parties < 1:
            raise ValueError(f"party count must be >= 1, got {n_parties}")
        clean = {}
        for settings, coeff in dict(terms).items():
            if len(settings) != n_parties or any(b not in (0, 1) for b in settings):
                raise ValueError(f"bad settings tuple {settings!r} for {n_parties} parties")
            key = tuple(int(b) for b in settings)
            try:
                value = Fraction(coeff)
            except (OverflowError, ValueError) as exc:
                raise ValueError(f"coefficient {coeff!r} at {settings!r} is not finite") from exc
            if value == 0:
                continue
            denominator = value.denominator
            if denominator & (denominator - 1):
                raise ValueError(f"coefficient {value} is not a dyadic rational")
            clean[key] = value
        self.n_parties = n_parties
        self.terms = MappingProxyType(clean)
        self.label = label
        self.table = None
        if 1 << n_parties <= DIM_CAP:
            self.table = np.zeros((2,) * n_parties)
            for key, value in clean.items():
                self.table[key] = float(value)
            self.table.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, BellPolynomial):
            return NotImplemented
        return self.n_parties == other.n_parties and dict(self.terms) == dict(other.terms)

    __hash__ = None

    def __repr__(self):
        return (
            f"BellPolynomial(n_parties={self.n_parties}, "
            f"terms={len(self.terms)}, label={self.label!r})"
        )

    def scaled(self, factor) -> "BellPolynomial":
        """Same terms with every coefficient multiplied by a dyadic factor."""
        f = Fraction(factor)
        label = self.label if f == 1 else "custom"
        return BellPolynomial(
            self.n_parties, {k: c * f for k, c in self.terms.items()}, label
        )

    def __neg__(self):
        return self.scaled(-1)


def _weight_polynomial(n_parties: int, by_weight, label: str) -> BellPolynomial:
    """Coefficient ``by_weight[w % 4]`` at each setting word of weight w, sorted."""
    words = itertools.product((0, 1), repeat=n_parties)
    return BellPolynomial(n_parties, {w: by_weight[sum(w) % 4] for w in words}, label)


_SVETLICHNY_SIGNS = {"-": (1, 1, -1, -1), "+": (1, -1, -1, 1)}


def svetlichny(n_parties: int, parity: str) -> BellPolynomial:
    """S_N^- or S_N^+: sign (+, +, -, -) or (+, -, -, +) at weight w mod 4.

    The closed form of S_N^{+/-} = S_{N-1}^{+/-} A0 -/+ S_{N-1}^{-/+} A1:
    appending A0 keeps a word's weight and appending A1 raises it by one,
    which carries each sign pattern onto itself.  2**N terms, all +/-1.
    """
    if parity not in ("+", "-"):
        raise ValueError(f"parity must be '+' or '-', got {parity!r}")
    if not 2 <= n_parties <= 12:
        raise ValueError(f"party count must be in [2, 12], got {n_parties}")
    return _weight_polynomial(n_parties, _SVETLICHNY_SIGNS[parity], f"svetlichny{parity}")


def mk(n_parties: int) -> BellPolynomial:
    """M_N: coefficient Re((1 - i)**(N-1) * i**w) / 2**((N-1)//2) at weight w.

    The closed form of M_1 = A0, M_N = (M_{N-1}(A0 + A1) + M'_{N-1}(A0 - A1))/2
    rescaled to +/-1, the real part of (1 - i)**(N-1) prod_k (A0 + i A1)_k.
    With z = re + i im = (1 - i)**(N-1) exact in ints, Re(z i**w) cycles
    through (re, -im, -re, im).  Odd N keeps 2**(N-1) terms (the zero
    coefficients are dropped), even N keeps all 2**N.
    """
    if not 1 <= n_parties <= 12:
        raise ValueError(f"party count must be in [1, 12], got {n_parties}")
    re, im = 1, 0
    for _ in range(n_parties - 1):
        re, im = re + im, im - re
    scale = 1 << ((n_parties - 1) // 2)
    return _weight_polynomial(n_parties, [c // scale for c in (re, -im, -re, im)], "mk")


def realize(polynomial: BellPolynomial, scenario: MeasurementScenario) -> np.ndarray:
    """Dense matrix sum of coeff * (tensor of party locals at the term's settings).

    Factored one party at a time: starting from the polynomial's ``table``,
    from party N down to 1 the trailing setting axis of each block B becomes
    A_p[0] (x) B[..., 0] + A_p[1] (x) B[..., 1].  That is about 2 * 4**N
    complex multiply-adds (8**N for a Kronecker chain per term), with a peak
    of about 2.5 matrices of 2**N x 2**N (670 MB at N = 12).

    Each setting sum is one elementwise two-term add and x + y == y + x in
    IEEE arithmetic, so a polynomial with every setting flipped on a
    setting-swapped scenario gives the identical matrix, and Hermitian
    locals an exactly Hermitian one.
    """
    if polynomial.n_parties != scenario.n_parties:
        raise ValueError(
            f"polynomial spans {polynomial.n_parties} parties, "
            f"scenario {scenario.n_parties}"
        )
    n = polynomial.n_parties
    if 1 << n > DIM_CAP:
        raise InvariantViolation(f"dimension {1 << n} exceeds the {DIM_CAP} cap")
    block = polynomial.table.astype(complex).reshape((2,) * n + (1, 1))
    for party in range(n, 0, -1):
        shape = block.shape[: party - 1] + (2 * block.shape[-1],) * 2
        a0, a1 = (local[:, None, :, None] for local in scenario.locals[party - 1])
        # kron(local, sub-block) at every leading index, by broadcasting
        lifted = (a1 * block[..., 1, None, :, None, :]).reshape(shape)
        block = (a0 * block[..., 0, None, :, None, :]).reshape(shape)
        block += lifted
    return block


@dataclass(frozen=True)
class EvenEquivalence:
    """mk(N) = sign * svetlichny(N, parity), exact over the rationals."""

    parity: str
    sign: int


def check_equivalence_even(n_parties: int) -> EvenEquivalence:
    """Find the signed Svetlichny operator equal to mk(N) for even N <= 10."""
    if n_parties % 2 or not 2 <= n_parties <= 10:
        raise ValueError(f"need an even party count in [2, 10], got {n_parties}")
    target = mk(n_parties)
    for parity in ("+", "-"):
        candidate = svetlichny(n_parties, parity)
        for sign in (1, -1):
            if target == candidate.scaled(sign):
                return EvenEquivalence(parity, sign)
    raise InvariantViolation(
        f"mk({n_parties}) matches no signed Svetlichny operator"
    )


def is_permutation_invariant(polynomial: BellPolynomial) -> bool:
    """Whether the term map is unchanged under every party-slot permutation.

    The permutations carry each setting word onto exactly the words of its
    Hamming weight, so the map is invariant when every weight class that
    occurs holds all C(N, w) words, all with one coefficient.  Exact at
    every N, in time linear in the term count.
    """
    classes: dict = {}
    for settings, coeff in polynomial.terms.items():
        classes.setdefault(sum(settings), []).append(coeff)
    return all(
        len(coeffs) == math.comb(polynomial.n_parties, weight) and len(set(coeffs)) == 1
        for weight, coeffs in classes.items()
    )


def dump_terms(polynomial: BellPolynomial) -> str:
    """One ``+1 bits`` / ``-1 bits`` line per term, sorted by bitstring."""
    if not polynomial.terms:
        raise ValueError("dump format needs at least one term")
    lines = []
    for settings in sorted(polynomial.terms):
        coeff = polynomial.terms[settings]
        if coeff == 1:
            sign = "+1"
        elif coeff == -1:
            sign = "-1"
        else:
            raise ValueError(f"dump format needs +/-1 coefficients, found {coeff}")
        lines.append(f"{sign} {''.join(str(b) for b in settings)}")
    return "\n".join(lines) + "\n"


def parse_terms(text: str, label: str = "custom") -> BellPolynomial:
    """Inverse of dump_terms; the round-trip is exact."""
    terms: dict = {}
    n = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if (
            len(parts) != 2
            or parts[0] not in ("+1", "-1")
            or not parts[1]
            or set(parts[1]) - {"0", "1"}
        ):
            raise FileFormatError(f"line {line_no}: expected '+/-1 bits', got {raw!r}")
        bits = tuple(int(ch) for ch in parts[1])
        if n is None:
            n = len(bits)
        elif len(bits) != n:
            raise FileFormatError(f"line {line_no}: inconsistent bit width")
        if bits in terms:
            raise FileFormatError(f"line {line_no}: duplicate settings {parts[1]}")
        terms[bits] = 1 if parts[0] == "+1" else -1
    if not terms:
        raise FileFormatError("no terms found")
    return BellPolynomial(n, terms, label)
