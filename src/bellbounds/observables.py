"""Per-party dichotomic (+/-1 outcome) observables.

Parties are numbered 1..N, matching the superscripts used throughout;
party 1 sits in the leftmost tensor slot.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import (
    DIM_CAP,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    FileFormatError,
    InvariantViolation,
    _data_lines,
    _square,
)

DICHOTOMIC_TOL = 1e-12


@dataclass(frozen=True)
class DichotomicViolation:
    """Names the failed dichotomic check and its residual norm."""

    check: str  # "hermitian" or "involution"
    residual: float

    def __str__(self):
        return f"{self.check} check failed with residual {self.residual:.3e}"


def validate_dichotomic(matrix) -> DichotomicViolation | None:
    """None when the 2x2 matrix [[a, b], [c, d]] is a Hermitian involution within 1e-12.

    Works on the four entries in closed form (the involution residues are the
    entries of M @ M - I); other shapes and non-finite entries raise ValueError.
    """
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"dichotomic observables are 2x2 matrices, got shape {arr.shape}")
    a, b, c, d = arr.ravel().tolist()
    if not cmath.isfinite(a + b + c + d):
        raise ValueError(f"dichotomic observable has a non-finite entry: {[a, b, c, d]}")
    herm = max(abs(a - a.conjugate()), abs(d - d.conjugate()), abs(b - c.conjugate()))
    if herm > DICHOTOMIC_TOL:
        return DichotomicViolation("hermitian", herm)
    bc, trace = b * c, a + d
    invol = max(abs(a * a + bc - 1), abs(b * trace), abs(c * trace), abs(d * d + bc - 1))
    if invol > DICHOTOMIC_TOL:
        return DichotomicViolation("involution", invol)
    return None


def planar_observable(theta: float) -> np.ndarray:
    """cos(theta) sigma_x + sin(theta) sigma_y, the equatorial qubit observable."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return math.cos(theta) * SIGMA_X + math.sin(theta) * SIGMA_Y


def bloch_observable(nx: float, ny: float, nz: float) -> np.ndarray:
    """n.sigma for the direction (nx, ny, nz), normalized here."""
    comps = (float(nx), float(ny), float(nz))
    if not all(math.isfinite(c) for c in comps):
        raise ValueError(f"direction must be finite, got {comps!r}")
    norm = math.sqrt(sum(c * c for c in comps))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return (comps[0] * SIGMA_X + comps[1] * SIGMA_Y + comps[2] * SIGMA_Z) / norm


class DichotomicObservable:
    """A validated +/-1 observable bound to a party (1-based) and setting (0/1).

    ``local`` is the Hermitian part (A + A^H) / 2 of the validated local A
    (A itself when exactly Hermitian), so products of locals are exactly
    Hermitian, as ``expectation`` needs.
    """

    __slots__ = ("local", "party", "setting")

    def __init__(self, local, party: int, setting: int):
        arr = np.array(local, dtype=complex)
        report = validate_dichotomic(arr)
        if report is not None:
            raise InvariantViolation(f"party {party} setting {setting}: {report}")
        try:
            party, setting = operator.index(party), operator.index(setting)
        except TypeError:
            raise ValueError(f"party {party!r} and setting {setting!r} must be integers") from None
        if party < 1:
            raise ValueError(f"party index must be >= 1, got {party}")
        if setting not in (0, 1):
            raise ValueError(f"setting must be 0 or 1, got {setting}")
        (a, b), (c, d) = arr.tolist()
        if a.imag or d.imag or b != c.conjugate():  # skips the numpy work when exact
            arr = (arr + arr.conj().T) / 2.0
        arr.setflags(write=False)
        self.local = arr
        self.party = party
        self.setting = setting

    def __repr__(self):
        return f"DichotomicObservable(party={self.party}, setting={self.setting})"


def embed_local(local, party: int, n_parties: int) -> np.ndarray:
    """Pad a 2x2 operator with identities into the full 2**N space."""
    arr = _square(local)
    if arr.shape[0] != 2:
        raise ValueError(f"embedding expects a 2x2 operator, got dimension {arr.shape[0]}")
    if n_parties < 1 or (1 << n_parties) > DIM_CAP:
        raise InvariantViolation(
            f"{n_parties} parties exceed the {DIM_CAP} dimension cap"
        )
    if not 1 <= party <= n_parties:
        raise ValueError(f"party {party} out of range 1..{n_parties}")
    left = np.eye(1 << (party - 1), dtype=complex)
    right = np.eye(1 << (n_parties - party), dtype=complex)
    out = np.kron(np.kron(left, arr), right)
    out.setflags(write=False)
    return out


class MeasurementScenario:
    """Two dichotomic observables per party, parties numbered 1..N.

    ``pairs`` gives each party's (setting 0, setting 1) 2x2 locals, party 1
    first.  The scenario builds every observable itself, labelled with the
    party and setting of its slot, so each local is validated once, here.
    ``angles`` records the per-party (theta0, theta1) pairs when
    :meth:`planar` built the scenario, and is None otherwise.
    """

    __slots__ = ("pairs", "angles")

    def __init__(self, pairs):
        self.pairs = tuple(
            (DichotomicObservable(first, party, 0), DichotomicObservable(second, party, 1))
            for party, (first, second) in enumerate(pairs, start=1)
        )
        if not self.pairs:
            raise ValueError("scenario needs at least one party")
        self.angles = None

    @property
    def n_parties(self) -> int:
        return len(self.pairs)

    def observable(self, party: int, setting: int) -> DichotomicObservable:
        if not 1 <= party <= self.n_parties:
            raise ValueError(f"party {party} out of range 1..{self.n_parties}")
        if setting not in (0, 1):
            raise ValueError(f"setting must be 0 or 1, got {setting}")
        return self.pairs[party - 1][setting]

    @classmethod
    def planar(cls, angles) -> "MeasurementScenario":
        """Build from per-party (theta0, theta1) radians, recording the angles."""
        angle_pairs = tuple((float(t0), float(t1)) for t0, t1 in angles)
        scenario = cls((planar_observable(t0), planar_observable(t1)) for t0, t1 in angle_pairs)
        scenario.angles = angle_pairs
        return scenario

    @classmethod
    def bloch(cls, directions) -> "MeasurementScenario":
        """Build from per-party ((nx, ny, nz) for setting 0, same for setting 1)."""
        return cls((bloch_observable(*d0), bloch_observable(*d1)) for d0, d1 in directions)

    def __repr__(self):
        family = "planar" if self.angles is not None else "general"
        return f"MeasurementScenario(n_parties={self.n_parties}, family={family!r})"


def _bloch_components(local) -> list[float]:
    nx = float(local[0, 1].real)
    ny = float(local[1, 0].imag)
    nz = float(local[0, 0].real)
    rebuilt = nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z
    if float(np.max(np.abs(rebuilt - local))) > 1e-10:
        raise ValueError("local operator is not of the Bloch form n.sigma")
    return [nx, ny, nz]


def write_scenario_file(scenario: MeasurementScenario, path) -> None:
    """Serialize to the plain-text scenario format (see read_scenario_file)."""
    n = scenario.n_parties
    if scenario.angles is not None:
        lines = [f"parties {n} family planar"]
        lines += [f"{t0!r} {t1!r}" for t0, t1 in scenario.angles]
    else:
        lines = [f"parties {n} family bloch"]
        for party in range(1, n + 1):
            comps = []
            for setting in (0, 1):
                comps.extend(_bloch_components(scenario.observable(party, setting).local))
            lines.append(" ".join(repr(c) for c in comps))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_scenario_file(path) -> MeasurementScenario:
    """Parse the plain-text scenario format.

    Line 1 is ``parties N family planar`` or ``parties N family bloch``,
    then N lines follow: two angles (radians) for planar, or six reals
    (direction for setting 0, then setting 1) for bloch.
    """
    lines = _data_lines(path, "scenario")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "parties" or head[2] != "family":
        raise FileFormatError(f"bad scenario header {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise FileFormatError(f"bad party count {head[1]!r}") from exc
    if not 1 <= n <= 12:
        raise FileFormatError(f"party count {n} outside [1, 12]")
    family = head[3]
    if family not in ("planar", "bloch"):
        raise FileFormatError(f"unknown family {family!r}")
    body = lines[1:]
    if len(body) != n:
        raise FileFormatError(f"expected {n} party rows, got {len(body)}")
    width = 2 if family == "planar" else 6
    rows = []
    for index, line in enumerate(body):
        parts = line.split()
        if len(parts) != width:
            raise FileFormatError(
                f"party row {index + 1}: expected {width} numbers, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise FileFormatError(f"party row {index + 1}: bad number: {exc}") from exc
    try:
        if family == "planar":
            return MeasurementScenario.planar([(r[0], r[1]) for r in rows])
        return MeasurementScenario.bloch([((r[0], r[1], r[2]), (r[3], r[4], r[5])) for r in rows])
    except ValueError as exc:  # includes InvariantViolation
        raise FileFormatError(f"scenario file rejected: {exc}") from exc
