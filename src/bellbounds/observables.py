"""Per-party dichotomic (+/-1 outcome) observables.

Parties are numbered 1..N, matching the superscripts used throughout;
party 1 sits in the leftmost tensor slot.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DIM_CAP,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    FileFormatError,
    InvariantViolation,
    _data_lines,
    _rows,
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


def _hermitian_part(stack: np.ndarray) -> np.ndarray:
    """Each 2x2 A of a (..., 2, 2) stack if it equals A^H exactly, else (A + A^H) / 2."""
    adjoint = stack.conj().swapaxes(-1, -2)
    exact = (stack == adjoint).all(axis=(-2, -1), keepdims=True)
    return np.where(exact, stack, (stack + adjoint) / 2.0)


def planar_observable(theta) -> np.ndarray:
    """cos(theta) sigma_x + sin(theta) sigma_y, the equatorial qubit observable;
    an array of angles gives the (..., 2, 2) stack of them."""
    thetas = np.asarray(theta, dtype=float)
    flat = thetas.ravel().tolist()
    for value in flat:
        if not math.isfinite(value):
            raise ValueError(f"theta must be finite, got {value!r}")
    cos, sin = (np.reshape(list(map(f, flat)), thetas.shape + (1, 1)) for f in (math.cos, math.sin))
    return cos * SIGMA_X + sin * SIGMA_Y


def bloch_observable(nx, ny, nz) -> np.ndarray:
    """n.sigma for the direction (nx, ny, nz), normalized here; arrays of
    components give the (..., 2, 2) stack of them."""
    x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (nx, ny, nz)))
    with np.errstate(over="ignore"):  # inf, as the sum of Python floats gives
        norm = np.sqrt((x * x + y * y) + z * z)
    if not ((0.0 < norm) & (norm < math.inf)).all():  # name the first bad direction
        for comps, length in zip(zip(*(c.ravel().tolist() for c in (x, y, z))), norm.ravel().tolist()):
            if not all(math.isfinite(c) for c in comps):
                raise ValueError(f"direction must be finite, got {comps!r}")
            if length == 0.0:
                raise ValueError("direction must be nonzero")
    x, y, z, norm = (a[..., None, None] for a in (x, y, z, norm))
    return (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / norm


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
        self.local = _hermitian_part(arr)
        self.local.setflags(write=False)
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

    Built from each party's (setting 0, setting 1) 2x2 locals, party 1
    first, as one (N, 2, 2, 2) stack.  A vectorized screen passes the slots
    within DICHOTOMIC_TOL / 2; each other slot, in party order, is checked
    as a ``DichotomicObservable``, which alone decides.  Only the checked
    locals (their Hermitian parts) are kept, as one read-only (N, 2, 2, 2)
    complex array ``locals``, ``locals[p - 1, s]`` being party p's setting
    s, which every route reads.
    ``angles`` records the per-party (theta0, theta1) pairs when
    :meth:`planar` built the scenario, and is None otherwise.
    """

    __slots__ = ("locals", "angles")

    def __init__(self, pairs):
        stack = np.array(pairs, dtype=complex)
        if not len(stack):
            raise ValueError("scenario needs at least one party")
        if stack.shape[1:] != (2, 2, 2):
            raise ValueError(f"scenario locals must have shape (N, 2, 2, 2), got {stack.shape}")
        with np.errstate(all="ignore"):  # a NaN or inf slot fails the screen
            residues = np.abs([stack - stack.conj().swapaxes(-1, -2), stack @ stack - ID2])
        flagged = ~(residues.max(axis=(0, 3, 4)) <= DICHOTOMIC_TOL / 2)
        for party, setting in np.argwhere(flagged).tolist():
            DichotomicObservable(stack[party, setting], party + 1, setting)  # raises or accepts
        self.locals = _hermitian_part(stack)
        self.locals.setflags(write=False)
        self.angles = None

    @property
    def n_parties(self) -> int:
        return len(self.locals)

    def observable(self, party: int, setting: int) -> DichotomicObservable:
        if not 1 <= party <= self.n_parties:
            raise ValueError(f"party {party} out of range 1..{self.n_parties}")
        if setting not in (0, 1):
            raise ValueError(f"setting must be 0 or 1, got {setting}")
        obs = object.__new__(DichotomicObservable)  # a view of the checked slot, not rechecked
        obs.local, obs.party, obs.setting = self.locals[party - 1, setting], int(party), int(setting)
        return obs

    @classmethod
    def planar(cls, angles) -> "MeasurementScenario":
        """Build from per-party (theta0, theta1) radians, recording the angles."""
        angle_pairs = tuple((float(t0), float(t1)) for t0, t1 in angles)
        scenario = cls(planar_observable(angle_pairs))
        scenario.angles = angle_pairs
        return scenario

    @classmethod
    def bloch(cls, directions) -> "MeasurementScenario":
        """Build from per-party ((nx, ny, nz) for setting 0, same for setting 1)."""
        components = np.asarray(directions, dtype=float)
        return cls(bloch_observable(*np.moveaxis(components, -1, 0)) if len(components) else components)

    def __repr__(self):
        family = "planar" if self.angles is not None else "general"
        return f"MeasurementScenario(n_parties={self.n_parties}, family={family!r})"


def _bloch_form(locals_) -> tuple:
    """(a0, a) of Hermitian 2x2 locals a0 I + a.sigma, over the leading axes
    of a (..., 2, 2) stack: arrays of shapes (...) and (..., 3)."""
    top, bottom = locals_[..., 0, 0].real, locals_[..., 1, 1].real
    vector = [locals_[..., 0, 1].real, locals_[..., 1, 0].imag, (top - bottom) / 2.0]
    return (top + bottom) / 2.0, np.stack(vector, axis=-1)


def write_scenario_file(scenario: MeasurementScenario, path) -> None:
    """Serialize to the plain-text scenario format (see read_scenario_file),
    one row at a time, after every row has been checked."""
    n = scenario.n_parties
    if scenario.angles is not None:
        lines = [f"parties {n} family planar"]
        lines += [f"{t0!r} {t1!r}" for t0, t1 in scenario.angles]
    else:
        directions = _bloch_form(scenario.locals)[1]
        rebuilt = np.tensordot(directions, np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]), 1)
        if np.max(np.abs(rebuilt - scenario.locals)) > 1e-10:
            raise ValueError("local operator is not of the Bloch form n.sigma")
        lines = [f"parties {n} family bloch"]
        lines += [" ".join(map(repr, row)) for row in directions.reshape(n, 6).tolist()]
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.writelines(line + "\n" for line in lines)


def read_scenario_file(path) -> MeasurementScenario:
    """Parse the plain-text scenario format.

    Line 1 is ``parties N family planar`` or ``parties N family bloch``,
    then N lines follow: two angles (radians) for planar, or six reals
    (direction for setting 0, then setting 1) for bloch.  Of several
    faults, the first in the file is raised.
    """
    lines = _data_lines(path, "scenario")
    head = (first := next(lines)).split()
    if len(head) != 4 or head[0] != "parties" or head[2] != "family":
        raise FileFormatError(f"bad scenario header {first!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise FileFormatError(f"bad party count {head[1]!r}") from exc
    if not 1 <= n <= 12:
        raise FileFormatError(f"party count {n} outside [1, 12]")
    family = head[3]
    if family not in ("planar", "bloch"):
        raise FileFormatError(f"unknown family {family!r}")
    width = 2 if family == "planar" else 6
    rows = []
    for index, line in _rows(lines, n, "party rows"):
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
