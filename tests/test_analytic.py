from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ferroent.analytic import (
    UNIVERSAL_ENTRIES,
    concurrence_pairwise_mixed,
    concurrence_symmetric,
    figure1_data,
    figure2_data,
    ground_mixture_entries,
    mean_entries,
    symmetric_rdm_entries,
    zone,
    zone_mixture_concurrence,
    zone_mixture_entries,
)
from ferroent.hilbert import sector_basis
from oracles import XStateRDM, concurrence_x, dicke_vector, pair_rdm_pure, x_state_from_matrix

UNIVERSAL = XStateRDM(*map(float, UNIVERSAL_ENTRIES))


class TestSymmetricEntries:
    def test_all_down(self):
        e = symmetric_rdm_entries(5, 0)
        assert (e.alpha, e.beta, e.gamma, e.delta, e.epsilon) == (0, 0, 0, 0, 1)

    def test_half_filled_four(self):
        e = symmetric_rdm_entries(4, 2)
        assert e.alpha == Fraction(1, 6)
        assert e.beta == e.gamma == e.delta == Fraction(1, 3)
        assert e.epsilon == Fraction(1, 6)

    def test_large_system_direct_formula(self):
        e = symmetric_rdm_entries(100, 50)
        assert e.alpha == Fraction(2450, 9900)

    def test_exact_normalization_and_symmetry(self):
        for n_total in range(2, 30):
            for n_up in range(n_total + 1):
                e = symmetric_rdm_entries(n_total, n_up)
                assert e.alpha + e.beta + e.delta + e.epsilon == 1
                assert e.beta == e.gamma == e.delta

    def test_matches_numeric_dicke_partial_trace_everywhere(self):
        for n_total in range(2, 9):
            for n_up in range(n_total + 1):
                expected = symmetric_rdm_entries(n_total, n_up)
                basis = sector_basis(n_total, n_up)
                v = dicke_vector(n_total, n_up)
                reference = None
                for pair in [(a, b) for a in range(n_total) for b in range(a + 1, n_total)]:
                    state = x_state_from_matrix(pair_rdm_pure(v, basis, pair))
                    entries = np.array(
                        [state.alpha, state.beta, state.gamma.real, state.delta, state.epsilon]
                    )
                    target = np.array(
                        [float(x) for x in (expected.alpha, expected.beta, expected.gamma,
                                            expected.delta, expected.epsilon)]
                    )
                    assert entries == pytest.approx(target, abs=1e-12)
                    # pair independence
                    if reference is None:
                        reference = entries
                    else:
                        assert entries == pytest.approx(reference, abs=1e-12)


class TestUniversalForm:
    def test_exact_ground_mixture_collapse(self):
        for n_total in range(2, 65):
            assert ground_mixture_entries(n_total) == UNIVERSAL_ENTRIES

    def test_universal_concurrence_is_zero(self):
        assert concurrence_x(UNIVERSAL) == 0.0

    def test_matrix_entries(self):
        rho = UNIVERSAL.matrix()
        assert rho[0, 0] == pytest.approx(1 / 3)
        assert rho[1, 2] == pytest.approx(1 / 6)
        assert rho[3, 3] == pytest.approx(1 / 3)


class TestConcurrenceSymmetric:
    def test_boundary_states_separable(self):
        for n_total in (2, 5, 17, 100):
            assert concurrence_symmetric(n_total, 0) == 0.0
            assert concurrence_symmetric(n_total, n_total) == 0.0

    def test_two_spin_bell(self):
        assert concurrence_symmetric(2, 1) == pytest.approx(1.0)

    def test_half_filled_four(self):
        assert concurrence_symmetric(4, 2) == pytest.approx(1 / 3, abs=1e-15)

    def test_matches_x_formula_up_to_200(self):
        for n_total in list(range(2, 31)) + [64, 100, 150, 200]:
            for n_up in range(n_total + 1):
                entries = symmetric_rdm_entries(n_total, n_up)
                state = XStateRDM(*map(float, (entries.alpha, entries.beta, entries.gamma,
                                               entries.delta, entries.epsilon)))
                assert abs(
                    concurrence_symmetric(n_total, n_up) - concurrence_x(state)
                ) <= 1e-12

    def test_mirror_symmetry(self):
        for n_total in (5, 12, 33):
            for n_up in range(n_total + 1):
                assert concurrence_symmetric(n_total, n_up) == pytest.approx(
                    concurrence_symmetric(n_total, n_total - n_up), abs=1e-14
                )


class TestConcurrencePairwiseMixed:
    def test_even_peak(self):
        assert concurrence_pairwise_mixed(100, 50) == pytest.approx(1 / 99, abs=1e-15)

    def test_odd_peak(self):
        assert concurrence_pairwise_mixed(101, 50) == pytest.approx(1 / 101, abs=1e-15)

    def test_threshold_is_exactly_zero(self):
        # n = (N - sqrt(N))/2 with N a perfect square sits on the boundary
        assert concurrence_pairwise_mixed(9, 3) == 0.0
        assert concurrence_pairwise_mixed(9, 6) == 0.0
        assert concurrence_pairwise_mixed(16, 6) == 0.0
        assert concurrence_pairwise_mixed(16, 10) == 0.0

    def test_zero_outside_zone_positive_inside(self):
        for n_total in range(2, 60):
            members = set(zone(n_total).members)
            for n_up in range(n_total + 1):
                value = concurrence_pairwise_mixed(n_total, n_up)
                if n_up in members:
                    assert value > 0.0
                else:
                    assert value == 0.0

    def test_matches_two_state_average(self):
        for n_total in range(2, 25):
            for n_up in range(n_total + 1):
                pair_average = mean_entries(
                    [
                        symmetric_rdm_entries(n_total, n_up),
                        symmetric_rdm_entries(n_total, n_total - n_up),
                    ]
                )
                alpha, beta, gamma, delta, epsilon = (float(x) for x in pair_average)
                state_value = concurrence_x(
                    x_state_from_matrix(
                        np.array(
                            [
                                [alpha, 0, 0, 0],
                                [0, beta, gamma, 0],
                                [0, gamma, delta, 0],
                                [0, 0, 0, epsilon],
                            ],
                            dtype=complex,
                        )
                    )
                )
                assert abs(concurrence_pairwise_mixed(n_total, n_up) - state_value) <= 1e-12


class TestZone:
    def test_four_spins(self):
        spec = zone(4)
        assert spec.members == (2,)
        assert spec.lower == pytest.approx(1.0)
        assert spec.upper == pytest.approx(3.0)

    def test_six_spins(self):
        assert zone(6).members == (2, 3, 4)

    def test_hundred_spins(self):
        spec = zone(100)
        assert spec.members == tuple(range(46, 55))
        assert spec.lower == pytest.approx(45.0)
        assert spec.upper == pytest.approx(55.0)

    def test_perfect_square_boundaries_excluded(self):
        for n_total in (4, 9, 16, 25, 36, 49):
            root = int(sqrt(n_total))
            spec = zone(n_total)
            assert (n_total - root) // 2 not in spec.members
            assert (n_total + root) // 2 not in spec.members

    @given(n_total=st.integers(2, 500))
    def test_members_nonempty_and_strictly_inside(self, n_total):
        spec = zone(n_total)
        assert spec.members
        for n_up in spec.members:
            assert spec.lower < n_up < spec.upper


class TestZoneMixture:
    def test_six_spins_equals_one_ninth(self):
        assert zone_mixture_concurrence(6) == pytest.approx(1 / 9, abs=1e-15)

    def test_two_spins_is_bell(self):
        assert zone(2).members == (1,)
        assert zone_mixture_concurrence(2) == pytest.approx(1.0)

    def test_four_spins_single_member(self):
        assert zone_mixture_concurrence(4) == pytest.approx(
            concurrence_symmetric(4, 2), abs=1e-15
        )

    def test_entries_stay_exact(self):
        alpha, beta, gamma, delta, epsilon = zone_mixture_entries(6)
        assert alpha == Fraction(2, 9)
        assert gamma == Fraction(5, 18)
        assert alpha + beta + delta + epsilon == 1


class TestFigureData:
    def test_figure1_rows(self):
        rows = figure1_data(100)
        assert len(rows) == 101
        assert rows[0] == (0, 0.0, 0.0)
        assert rows[50][2] == pytest.approx(1 / 99, abs=1e-15)
        for n_up, upper, lower in rows:
            assert upper >= lower - 1e-15
            assert upper == pytest.approx(concurrence_symmetric(100, n_up))
            assert lower == pytest.approx(concurrence_pairwise_mixed(100, n_up))

    def test_figure2_rows(self):
        rows = figure2_data(2, 50)
        values = dict(rows)
        assert values[6] == pytest.approx(1 / 9, abs=1e-15)
        assert all(v >= 0.0 for v in values.values())

    def test_figure2_decay_band(self):
        for n_total, value in figure2_data(20, 400):
            assert 0.3 <= n_total * value <= 3.0

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            figure2_data(5, 3)
        with pytest.raises(ValueError):
            figure1_data(1)


def test_margin_ceiling_from_exact_rationals():
    # the T -> 0, B > 0 pair state's ceiling: the one-magnon coherence against
    # the two-magnon and all-down populations, gamma^2 / (alpha epsilon) = (N - 1) / (2N)
    for n in range(2, 41):
        ratio = symmetric_rdm_entries(n, 1).gamma ** 2 / (
            symmetric_rdm_entries(n, 2).alpha * symmetric_rdm_entries(n, 0).epsilon
        )
        assert isinstance(ratio, Fraction)
        assert ratio == Fraction(n - 1, 2 * n)
