"""The benchmark workloads: their inputs, their ops and the check on each op.

Every op is one CLI verb run in-process through ``bellbounds.cli.run``.
A workload's ``prepare`` is its timed set-up, after a fresh import: the
polynomials and inputs its ops need, made before the ops run (``harness``
has none, since ``verify`` builds its own).  ``expect`` then computes the
reference values its checks need, untimed.  ``check`` returns the op's
work count (trials, objective evaluations or bounds evaluations) and the
reason the output is wrong, or None when it is right.

References come from outside the package: the closed forms in
``tests/oracles.py`` and a correlation-tensor contraction written here
with numpy alone, so a defect in the evaluated code cannot also hide in
its reference.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

VALUE_TOL = 1e-9  # absolute, on values of magnitude up to 2**(N-1) sqrt(2)
OPTIMUM_TOL = 1e-6

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    mixed: bool = False


def load_oracles(root: Path):
    """The closed-form references that the test suite also uses."""
    spec = importlib.util.spec_from_file_location(
        "bellbounds_oracles", root / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_fields(text: str) -> dict:
    """``key=value`` lines of a verb's stdout."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def correlator_value(poly, rho: np.ndarray, locals_) -> float:
    """sum_s c_s Tr(rho A_1[s_1] x ... x A_N[s_N]), one party at a time.

    ``locals_[p]`` stacks party p+1's two 2x2 settings.  Each step contracts
    one party's row and column axes of rho with both settings, so the cost
    is about 4**N rather than the 8**N of a dense operator.
    """
    n = len(locals_)
    t = rho.reshape((2,) * (2 * n))
    for p, pair in enumerate(locals_):
        remaining = n - p
        # Tr(rho A) = sum rho[r, c] A[c, r]
        t = np.tensordot(t, pair, axes=([p, p + remaining], [2, 1]))
        t = np.moveaxis(t, -1, p)
    value = sum(float(c) * t[s] for s, c in poly.terms.items())
    return float(np.real(value))


def planar_locals(angles):
    return [
        np.stack([math.cos(t) * PAULI[0] + math.sin(t) * PAULI[1] for t in pair])
        for pair in angles
    ]


def bloch_locals(directions):
    return [
        np.stack([np.tensordot(d / np.linalg.norm(d), PAULI, axes=1) for d in pair])
        for pair in directions
    ]


class Harness:
    """``verify`` over N = 2..5: pure and mixed states, both bound families,
    the covariance inequalities and the Jacobi PSD step."""

    name = "harness"

    def __init__(self, trials: int = 400):
        self.trials = trials

    def prepare(self, bb, seed: int, workdir: Path) -> None:
        # verify builds its operators and draws its inputs from the seed
        self.ops = [
            Op(
                "verify",
                ("verify", "--seed", str(seed), "--trials", str(self.trials),
                 "--n-min", "2", "--n-max", "5"),
            )
        ]
        self.first_output = None

    def expect(self, oracles) -> None:
        pass

    def check(self, op: Op, code: int, out: str):
        fields = parse_fields(out)
        if code != 0:
            return self.trials, f"exit code {code}"
        if fields.get("violations") != "0":
            return self.trials, f"violations={fields.get('violations')}"
        if fields.get("trials") != str(self.trials):
            return self.trials, f"trials={fields.get('trials')}"
        if self.first_output is None:
            self.first_output = out
        elif out != self.first_output:
            return self.trials, "report differs from the first run of this seed"
        return self.trials, None


class Optimize:
    """``optimize --n N`` (planar, max-svetlichny) on GHZ: thousands of small
    realize+expectation calls, and no bounds, Jacobi or state draws."""

    name = "optimize"

    def __init__(self, sizes=(3, 4)):
        self.sizes = tuple(sizes)

    def prepare(self, bb, seed: int, workdir: Path) -> None:
        # OptimizerConfig has no seed: the inputs are the same for every seed
        self.polys = {n: bb.svetlichny(n, "-") for n in self.sizes}
        self.ops = [Op(f"n{n}", ("optimize", "--n", str(n))) for n in self.sizes]

    def expect(self, oracles) -> None:
        self.oracles = oracles

    def check(self, op: Op, code: int, out: str):
        fields = parse_fields(out)
        try:
            evals = int(fields["evals"])
            value = float(fields["value"])
            angles = [float(a) for a in fields["angles"].split(",")]
        except (KeyError, ValueError):
            return 0, f"exit code {code}, unparsable output"
        if code != 0:
            return evals, f"exit code {code}"
        n = int(op.argv[2])
        target = 2.0 ** (n - 1) * math.sqrt(2.0)
        if abs(value - target) > OPTIMUM_TOL:
            return evals, f"value {value!r} is not within {OPTIMUM_TOL} of {target!r}"
        pairs = SimpleNamespace(angles=[angles[2 * p: 2 * p + 2] for p in range(n)])
        reached = abs(self.oracles.poly_ghz_value(self.polys[n], pairs))
        if abs(reached - value) > VALUE_TOL:
            return evals, f"angles reach {reached!r}, reported {value!r}"
        return evals, None


class LargeN:
    """``bounds`` at N = 9 on generated files: GHZ with a planar scenario and
    mk (chi scan), and a Haar pure state and a two-term Haar mixture, each
    with a bloch scenario and svetlichny- (eta scan)."""

    name = "large_n"

    def __init__(self, n: int = 9):
        self.n = n

    def prepare(self, bb, seed: int, workdir: Path) -> None:
        n, dim = self.n, 1 << self.n
        rng = np.random.default_rng(seed % (1 << 64))

        def haar():
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            return amps / np.linalg.norm(amps)

        def bloch_file(tag):
            directions = rng.normal(size=(n, 2, 3))
            scenario = bb.MeasurementScenario.bloch(
                [(tuple(d0), tuple(d1)) for d0, d1 in directions]
            )
            path = workdir / f"{tag}.scenario"
            bb.write_scenario_file(scenario, path)
            return path, directions

        angles = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2))
        ghz_scenario = workdir / "ghz.scenario"
        bb.write_scenario_file(bb.MeasurementScenario.planar(angles), ghz_scenario)
        pure_scenario, pure_dirs = bloch_file("pure")
        pure = haar()
        bb.write_state_file(bb.QuantumState.pure(pure), workdir / "pure.state")
        mixed_scenario, mixed_dirs = bloch_file("mixed")
        weight = rng.uniform()
        first, second = haar(), haar()
        rho = weight * np.outer(first, first.conj())
        rho += (1.0 - weight) * np.outer(second, second.conj())
        rho = (rho + rho.conj().T) / 2.0
        bb.write_state_file(bb.QuantumState.mixed(rho), workdir / "mixed.state")
        ghz = np.zeros(dim, dtype=complex)
        ghz[0] = ghz[-1] = math.sqrt(0.5)

        self.mk = bb.mk(n)
        self.svetlichny = bb.svetlichny(n, "-")
        self.angles = angles
        self.inputs = {
            "ghz_mk": (self.mk, ghz, planar_locals(angles), None),
            "pure_svetlichny": (self.svetlichny, pure, bloch_locals(pure_dirs), pure_dirs),
            "mixed_svetlichny": (self.svetlichny, rho, bloch_locals(mixed_dirs), mixed_dirs),
        }
        self.ops = [
            Op("ghz_mk", ("bounds", "--scenario", str(ghz_scenario), "--operator", "mk")),
            Op("pure_svetlichny", ("bounds", "--scenario", str(pure_scenario),
                                   "--state", str(workdir / "pure.state"),
                                   "--operator", "svetlichny-")),
            Op("mixed_svetlichny", ("bounds", "--scenario", str(mixed_scenario),
                                    "--state", str(workdir / "mixed.state"),
                                    "--operator", "svetlichny-"), mixed=True),
        ]

    def expect(self, oracles) -> None:
        self.oracles = oracles
        self.expected = {}
        for name, (poly, state, locals_, dirs) in self.inputs.items():
            rho = state if state.ndim == 2 else np.outer(state, state.conj())
            value = correlator_value(poly, rho, locals_)
            bound = None
            if dirs is not None:
                # {a.sigma, b.sigma} = 2 (a.b) I, so eta = (a.b)**2 for any state
                units = dirs / np.linalg.norm(dirs, axis=2, keepdims=True)
                eta = float(np.max(np.sum(units[:, 0] * units[:, 1], axis=1) ** 2))
                bound = 2.0 ** (self.n - 1) * math.sqrt(1.0 + math.sqrt(1.0 - eta))
            self.expected[name] = (value, bound)
        ghz_value = oracles.poly_ghz_value(self.mk, SimpleNamespace(angles=self.angles))
        if abs(ghz_value - self.expected["ghz_mk"][0]) > VALUE_TOL:
            raise RuntimeError("the two GHZ references disagree")

    def check(self, op: Op, code: int, out: str):
        if code != 0:
            return 1, f"exit code {code}"
        fields = parse_fields(out)
        try:
            value = float(fields["operator_value"])
            bound = float(fields["value"])
        except (KeyError, ValueError):
            return 1, "unparsable output"
        expected_value, expected_bound = self.expected[op.name]
        if bound < abs(value) - VALUE_TOL:
            return 1, f"bound {bound!r} below |value| {abs(value)!r}"
        if abs(value - expected_value) > VALUE_TOL:
            return 1, f"value {value!r}, reference {expected_value!r}"
        if expected_bound is not None and abs(bound - expected_bound) > VALUE_TOL:
            return 1, f"bound {bound!r}, reference {expected_bound!r}"
        if op.name == "ghz_mk":
            return 1, self._check_chi(fields)
        return 1, None

    def _check_chi(self, fields):
        try:
            first, second = (int(p) for p in fields["witness_pair"].split(","))
            reported = {"+": float(fields["witness_chi_plus"]),
                        "-": float(fields["witness_chi_minus"])}
        except (KeyError, ValueError):
            return "unparsable chi witness"
        gaps = [t0 - t1 for t0, t1 in self.angles]
        for sign, got in reported.items():
            want = self.oracles.chi_ghz_pair(gaps[first - 1], gaps[second - 1], sign)
            if abs(got - want) > VALUE_TOL:
                return f"chi{sign}({first},{second}) {got!r}, closed form {want!r}"
        return None


WORKLOADS = {w.name: w for w in (Harness, Optimize, LargeN)}
