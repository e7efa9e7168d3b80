import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellbounds import (
    BellPolynomial,
    FileFormatError,
    InvariantViolation,
    MeasurementScenario,
    check_equivalence_even,
    dump_terms,
    expectation,
    ghz_state,
    mk,
    parse_terms,
    realize,
    svetlichny,
)
from bellbounds.polynomials import EvenEquivalence, is_permutation_invariant
from bellbounds.rng import SplitMix64

from oracles import (
    dense_realize,
    enumerated_permutation_invariance,
    poly_ghz_value,
    random_scenario,
    recursive_mk,
    recursive_svetlichny,
)

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def planar_scenario(flat_angles):
    pairs = tuple(
        (flat_angles[2 * k], flat_angles[2 * k + 1])
        for k in range(len(flat_angles) // 2)
    )
    return MeasurementScenario.planar(pairs)


def bloch_scenario(flat_angles):
    """Two (polar, azimuth) angle pairs per party, one per setting."""
    dirs = [
        (
            math.sin(flat_angles[2 * k]) * math.cos(flat_angles[2 * k + 1]),
            math.sin(flat_angles[2 * k]) * math.sin(flat_angles[2 * k + 1]),
            math.cos(flat_angles[2 * k]),
        )
        for k in range(len(flat_angles) // 2)
    ]
    return MeasurementScenario.bloch(list(zip(dirs[0::2], dirs[1::2])))


_DYADIC = (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 8), 0, 3, Fraction(-1, 4))


def dyadic_polynomial(n):
    """Non-unit dyadic coefficients on most settings, zero on every 6th."""
    settings = sorted(itertools.product((0, 1), repeat=n))
    return BellPolynomial(
        n, {key: _DYADIC[k % len(_DYADIC)] for k, key in enumerate(settings)}
    )


def realize_test_polynomials(n):
    """svetlichny(n, +/-), mk(n), a non-unit dyadic and a one-term polynomial."""
    polys = [mk(n), dyadic_polynomial(n), parse_terms("+1 " + "0" * (n - 1) + "1\n")]
    if n >= 2:
        polys += [svetlichny(n, "+"), svetlichny(n, "-")]
    return polys


class TestConstruction:
    def test_base_pair(self):
        minus = svetlichny(2, "-")
        assert dict(minus.terms) == {
            (0, 0): 1,
            (0, 1): 1,
            (1, 0): 1,
            (1, 1): -1,
        }
        plus = svetlichny(2, "+")
        assert dict(plus.terms) == {
            (0, 0): 1,
            (0, 1): -1,
            (1, 0): -1,
            (1, 1): -1,
        }

    def test_three_party_minus(self):
        got = dict(svetlichny(3, "-").terms)
        assert got == {
            (0, 0, 0): 1,
            (0, 1, 0): 1,
            (1, 0, 0): 1,
            (1, 1, 0): -1,
            (0, 0, 1): 1,
            (0, 1, 1): -1,
            (1, 0, 1): -1,
            (1, 1, 1): -1,
        }

    def test_mk_three_party(self):
        got = dict(mk(3).terms)
        assert got == {
            (0, 0, 1): 1,
            (0, 1, 0): 1,
            (1, 0, 0): 1,
            (1, 1, 1): -1,
        }

    @pytest.mark.parametrize("n", range(2, 11))
    def test_term_counts(self, n):
        assert len(svetlichny(n, "+").terms) == 2**n
        assert len(svetlichny(n, "-").terms) == 2**n
        expected_mk = 2 ** (n - 1) if n % 2 else 2**n
        assert len(mk(n).terms) == expected_mk

    @pytest.mark.parametrize("n", range(2, 11))
    def test_unit_coefficients(self, n):
        for poly in (svetlichny(n, "+"), svetlichny(n, "-"), mk(n)):
            assert all(abs(c) == 1 for c in poly.terms.values())

    @pytest.mark.parametrize("n", range(1, 13))
    def test_each_builder_constructs_one_polynomial(self, n, monkeypatch):
        # each builder fills one term dict from its weight table, so only
        # the result is validated and given a coefficient table
        built = []
        init = BellPolynomial.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BellPolynomial, "__init__", counting)
        calls = [(mk, n)] + [(svetlichny, n, parity) for parity in "+-" if n >= 2]
        for builder, *args in calls:
            built.clear()
            builder(*args)
            assert len(built) == 1, (builder.__name__, args)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_builders_match_the_recursions(self, n):
        cases = [(mk(n), "mk", recursive_mk(n))]
        if n >= 2:
            cases += [
                (svetlichny(n, p), f"svetlichny{p}", recursive_svetlichny(n, p))
                for p in "+-"
            ]
        for poly, label, terms in cases:
            assert dict(poly.terms) == terms, label
            assert all(type(c) is Fraction for c in poly.terms.values())
            assert poly.label == label
            want = np.zeros((2,) * n)
            for settings, coeff in terms.items():
                want[settings] = float(coeff)
            assert poly.table.tobytes() == want.tobytes(), label

    @pytest.mark.parametrize(
        ("build", "match"),
        [
            (lambda: svetlichny(1, "-"), "party count"),
            (lambda: svetlichny(3, "x"), "parity"),
            (lambda: mk(0), "party count"),
            # 0.7 would truncate to the valid key (0, 1) and merge two terms
            (lambda: BellPolynomial(2, {(0.7, 1): 1, (0, 1): 1}), r"\(0\.7, 1\)"),
            (lambda: BellPolynomial(1, {(0,): float("inf")}), r"inf.*\(0,\)"),
            (lambda: BellPolynomial(1, {(1,): float("nan")}), r"nan.*\(1,\)"),
        ],
        ids=["svetlichny-n1", "parity", "mk-n0", "fractional-setting", "inf", "nan"],
    )
    def test_validation_errors(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_rejects_non_dyadic_coefficient(self):
        with pytest.raises(ValueError):
            BellPolynomial(2, {(0, 0): Fraction(1, 3)}, label="custom")

    def test_drops_zero_coefficients(self):
        poly = BellPolynomial(
            1, {(0,): Fraction(1), (1,): Fraction(0)}, label="custom"
        )
        assert (1,) not in poly.terms

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_coefficient_table_holds_float_terms(self, n):
        poly = dyadic_polynomial(n)
        want = np.zeros((2,) * n)
        for settings, coeff in poly.terms.items():
            want[settings] = float(coeff)
        assert poly.table.dtype == np.float64
        assert np.array_equal(poly.table, want)
        with pytest.raises(ValueError):
            poly.table[(0,) * n] = 1.0

    def test_no_coefficient_table_above_twelve_parties(self):
        # realize rejects N > 12, and a (2,)*N table would grow without bound
        assert BellPolynomial(40, {(0,) * 40: 1}).table is None

    def test_equality_ignores_label(self):
        a = BellPolynomial(1, {(0,): Fraction(1)}, label="first")
        b = BellPolynomial(1, {(0,): Fraction(1)}, label="second")
        assert a == b
        assert a != -a


class TestRealize:
    @given(st.lists(angles, min_size=6, max_size=6))
    def test_matches_ghz_oracle_three_parties(self, flat):
        scenario = planar_scenario(flat)
        state = ghz_state(3)
        for poly in (svetlichny(3, "-"), svetlichny(3, "+"), mk(3)):
            got = expectation(state, realize(poly, scenario))
            assert abs(got - poly_ghz_value(poly, scenario)) < 1e-10

    # Both identities rest on each setting sum being one two-term IEEE add;
    # a contraction over the setting axis (einsum, matmul) may round the
    # two orders differently.
    @given(
        st.integers(min_value=2, max_value=6),
        st.booleans(),
        st.lists(angles, min_size=24, max_size=24),
    )
    def test_relabel_equals_swapped_settings_bitwise(self, n, bloch, flat):
        # the prime operation: every setting label 0 <-> 1, on the terms or
        # on the scenario
        build = bloch_scenario if bloch else planar_scenario
        scenario = build(flat[: (4 if bloch else 2) * n])
        swapped = MeasurementScenario([(a1.local, a0.local) for a0, a1 in scenario.pairs])
        polys = (svetlichny(n, "-"), svetlichny(n, "+"), mk(n), dyadic_polynomial(n))
        for poly in polys:
            flipped = {tuple(1 - b for b in k): c for k, c in poly.terms.items()}
            assert np.array_equal(
                realize(BellPolynomial(n, flipped), scenario),
                realize(poly, swapped),
            )

    def test_realized_operator_is_hermitian_bitwise(self):
        for n in range(1, 8):
            for family in ("planar", "bloch"):
                scenario = random_scenario(7100 + n, n, family)
                for poly in realize_test_polynomials(n):
                    op = realize(poly, scenario)
                    assert np.array_equal(op, op.conj().T), (n, family, poly)

    @pytest.mark.parametrize("family", ["planar", "bloch"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_oracle(self, n, family):
        # u = eps / 2.  Every local entry has modulus <= 1.  Per term, the
        # factored route rounds one complex product (sqrt(5) u) and one add
        # (u) per party; the oracle rounds N - 1 Kronecker products and the
        # coefficient product, then N levels of its summation tree.  Both
        # together stay below 8 N u = 4 N eps per term, and the terms sum
        # to at most sum|c| <= 2**N max|c|.
        eps = np.finfo(float).eps
        scenario = random_scenario(9300 + n, n, family)
        for poly in realize_test_polynomials(n):
            weight = float(sum(abs(c) for c in poly.terms.values()))
            gap = np.max(np.abs(realize(poly, scenario) - dense_realize(poly, scenario)))
            assert gap <= 4 * n * eps * weight, (poly, gap)

    def test_rejects_more_than_twelve_parties_before_allocating(self):
        poly = BellPolynomial(13, {(0,) * 13: 1})
        scenario = planar_scenario([0.0, 1.0] * 13)
        tracemalloc.start()
        try:
            with pytest.raises(InvariantViolation, match="cap"):
                realize(poly, scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_empty_polynomial_is_zero_matrix(self):
        op = realize(BellPolynomial(3, {}), random_scenario(5, 3, "bloch"))
        assert op.shape == (8, 8) and op.dtype == complex
        assert not np.any(op)

    @pytest.mark.parametrize("n", [7, 9, 10])
    def test_ghz_closed_form_at_large_n(self, n):
        # Each realized entry sums 2**N unit-modulus terms, each rounded by
        # N products, N adds and the N planar locals' own cos/sin: at most
        # (sqrt(5) + 1 + sqrt(2)) N u < 5 N u per term.  The GHZ mean reads
        # four corner entries with weight 1/2, doubling that.  The angles
        # lie in [0, 2 pi), so the fsum oracle is off by at most
        # (2 pi N + 2) u per term.  Together below 24 N 2**N u.
        tol = 12 * n * 2**n * np.finfo(float).eps
        scenario = random_scenario(8800 + n, n, "planar")
        state = ghz_state(n)
        for poly in (mk(n), svetlichny(n, "-")):
            got = expectation(state, realize(poly, scenario))
            assert abs(got - poly_ghz_value(poly, scenario)) <= tol

    def test_party_count_mismatch(self):
        scenario = planar_scenario([0.0, 1.0])
        with pytest.raises(ValueError):
            realize(svetlichny(3, "-"), scenario)


class TestEvenEquivalence:
    # MK for even N is a relabeled Svetlichny operator up to a sign
    EXPECTED = {
        2: EvenEquivalence("-", 1),
        4: EvenEquivalence("+", -1),
        6: EvenEquivalence("-", -1),
        8: EvenEquivalence("+", 1),
        10: EvenEquivalence("-", 1),
    }

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_pattern(self, n):
        assert check_equivalence_even(n) == self.EXPECTED[n]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_equivalence_is_numeric_not_just_symbolic(self, n):
        result = check_equivalence_even(n)
        flat = [0.37 * k - 1.0 for k in range(2 * n)]
        scenario = planar_scenario(flat)
        lhs = realize(mk(n), scenario)
        rhs = result.sign * realize(svetlichny(n, result.parity), scenario)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            check_equivalence_even(3)


def family_polynomials(n):
    return (svetlichny(n, "+"), svetlichny(n, "-"), mk(n))


class TestPermutationInvariance:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_families_are_invariant(self, n):
        for poly in family_polynomials(n):
            assert is_permutation_invariant(poly), poly

    @pytest.mark.parametrize("n", range(7, 13))
    def test_one_flipped_sign_breaks_invariance(self, n):
        for poly in family_polynomials(n):
            terms = dict(poly.terms)
            # a word of weight 0 or N is its own class, so flip a mixed one
            key = next(k for k in terms if 0 < sum(k) < n)
            terms[key] = -terms[key]
            assert not is_permutation_invariant(BellPolynomial(n, terms)), poly

    def test_detects_asymmetry(self):
        lopsided = parse_terms("+1 01\n", label="custom")
        assert not is_permutation_invariant(lopsided)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_weight_rule_matches_enumeration(self, n):
        # Weight-symmetric maps, then each with one word changed or dropped.
        # The coefficient 0 empties a weight class, and 2 is a non-unit value.
        rng = SplitMix64(4000 + n)
        values = (0, 1, -1, 2, Fraction(1, 2))
        words = list(itertools.product((0, 1), repeat=n))
        outcomes = set()
        for _ in range(200):
            by_weight = [values[rng.below(len(values))] for _ in range(n + 1)]
            symmetric = {key: by_weight[sum(key)] for key in words}
            changed = dict(symmetric)
            changed[words[rng.below(len(words))]] = values[rng.below(len(values))]
            dropped = dict(symmetric)
            del dropped[words[rng.below(len(words))]]
            for terms in (symmetric, changed, dropped):
                poly = BellPolynomial(n, terms)
                want = enumerated_permutation_invariance(poly)
                assert is_permutation_invariant(poly) == want, terms
                outcomes.add(want)
            assert is_permutation_invariant(BellPolynomial(n, symmetric))
        # one party has only the identity permutation
        assert outcomes == ({True} if n == 1 else {True, False})


class TestTermFiles:
    def test_dump_format(self):
        assert dump_terms(mk(3)) == "+1 001\n+1 010\n+1 100\n-1 111\n"
        assert dump_terms(svetlichny(2, "-")) == (
            "+1 00\n+1 01\n+1 10\n-1 11\n"
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip(self, n):
        for poly in (svetlichny(n, "+"), svetlichny(n, "-"), mk(n)):
            assert parse_terms(dump_terms(poly)) == poly

    def test_dump_rejects_a_polynomial_without_terms(self):
        # "" would not parse back, and the party count would be lost
        with pytest.raises(ValueError, match="at least one term"):
            dump_terms(BellPolynomial(3, {}))

    def test_dump_rejects_scaled_terms(self):
        halved = BellPolynomial(1, {(0,): Fraction(1, 2)}, label="custom")
        with pytest.raises(ValueError):
            dump_terms(halved)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "+2 00\n",
            "+1 02\n",
            "+1 0a\n",
            "+1 00\n+1 0\n",
            "+1 00\n+1 00\n",
            "+1\n",
        ],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(FileFormatError):
            parse_terms(text)
