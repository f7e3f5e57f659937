import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratecalc import (
    ConfigError,
    FiniteDirichletForm,
    MathDomainError,
    SingularityError,
    build_birth_death,
    entropy,
    level_data,
    spectral_gap,
    truncation_sequence,
)

from conftest import random_form


class TestEnergy:
    def test_constant_function_zero(self, two_point_uniform):
        assert two_point_uniform.energy(np.array([3.0, 3.0])) == 0.0

    def test_single_edge(self, two_point_uniform):
        assert two_point_uniform.energy(np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_contraction_under_abs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            form = random_form(rng)
            f = rng.standard_normal(form.n) * rng.uniform(0.5, 3.0)
            assert form.energy(np.abs(f)) <= form.energy(f) + 1e-12

    def test_length_mismatch(self, two_point_uniform):
        with pytest.raises(MathDomainError):
            two_point_uniform.energy(np.array([1.0, 2.0, 3.0]))

    def test_energy_many_matches_scalar(self):
        rng = np.random.default_rng(6)
        form = random_form(rng)
        F = rng.standard_normal((10, form.n))
        batch = form.energy_many(F)
        singles = [form.energy(F[i]) for i in range(10)]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestFormValidation:
    def test_asymmetric_rejected(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ConfigError):
            FiniteDirichletForm(mu=np.array([0.5, 0.5]), weights=w)

    def test_nonzero_diagonal_rejected(self):
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConfigError):
            FiniteDirichletForm(mu=np.array([0.5, 0.5]), weights=w)

    def test_negative_weight_rejected(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ConfigError):
            FiniteDirichletForm(mu=np.array([0.5, 0.5]), weights=w)

    def test_zero_mass_rejected(self):
        w = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            FiniteDirichletForm(mu=np.array([0.0, 1.0]), weights=w)

    def test_unnormalised_mu_rejected(self):
        w = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            FiniteDirichletForm(mu=np.array([0.5, 0.6]), weights=w)

    def test_json_round_trip(self):
        rng = np.random.default_rng(7)
        form = random_form(rng)
        back = FiniteDirichletForm.from_json_dict(form.to_json_dict())
        np.testing.assert_allclose(back.mu, form.mu, rtol=1e-15)
        np.testing.assert_allclose(back.weights, form.weights, rtol=1e-15)

    @pytest.mark.parametrize(
        "d",
        [
            {"mu": [0.5, 0.5], "edges": [[0, 1]]},
            {"mu": ["a", 0.5], "edges": [[0, 1, 1.0]]},
            {"mu": [0.5, 0.5], "edges": 5},
            {"mu": [0.5, 0.5], "edges": [[0, 1, True]]},
            {"mu": [0.5, 0.5], "edges": [[0, 1, "2"]]},
            {"mu": [0.5, 0.5], "edges": [["0", 1, 1.0]]},
            {"mu": [0.5, 0.5], "edges": [[0.5, 1, 1.0]]},
        ],
    )
    def test_malformed_json_is_config_error(self, d):
        with pytest.raises(ConfigError):
            FiniteDirichletForm.from_json_dict(d)

    @pytest.mark.parametrize(
        "edges,first,second",
        [
            ([[0, 1, 1.0], [1, 0, 3.0]], "edges[0] = [0, 1, 1.0]", "edges[1] = [1, 0, 3.0]"),
            ([[0, 1, 1.0], [1, 2, 1.0], [0, 1, 1.0]], "edges[0] = [0, 1, 1.0]", "edges[2] = [0, 1, 1.0]"),
        ],
    )
    def test_repeated_edge_is_config_error(self, edges, first, second):
        with pytest.raises(ConfigError) as err:
            FiniteDirichletForm.from_json_dict({"mu": [0.4, 0.3, 0.3], "edges": edges})
        assert first in str(err.value) and second in str(err.value)
        assert "join states 0 and 1" in str(err.value)

    @pytest.mark.parametrize("n", [3, 41, 201])
    def test_json_dict_matches_pair_loop(self, n):
        rng = np.random.default_rng(n)
        for form in (build_birth_death(4.0, 1.0, 2.0, n), random_form(rng, n_max=n)):
            assert json.dumps(form.to_json_dict()) == json.dumps(_loop_json_dict(form))


class TestEntropy:
    def test_constant_is_zero(self):
        mu = np.array([0.25, 0.75])
        assert entropy(mu, np.array([2.0, 2.0])) == 0.0

    def test_two_point_hand_value(self):
        mu = np.array([0.5, 0.5])
        assert entropy(mu, np.array([2.0, 0.0])) == pytest.approx(math.log(2.0), rel=1e-12)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_homogeneity(self, c):
        mu = np.array([0.2, 0.3, 0.5])
        g = np.array([0.7, 0.0, 2.4])
        ent = entropy(mu, g)
        assert entropy(mu, c * g) == pytest.approx(c * ent, rel=1e-9, abs=1e-12)

    def test_nonnegative_on_random(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            mu = rng.uniform(0.05, 1.0, n)
            mu /= mu.sum()
            g = np.abs(rng.standard_normal(n)) ** 2
            assert entropy(mu, g) >= 0.0

    def test_negative_entry_rejected(self):
        with pytest.raises(MathDomainError):
            entropy(np.array([0.5, 0.5]), np.array([1.0, -0.1]))


class TestTruncationSequence:
    def test_small_function_vanishes_at_level_zero(self):
        f = np.array([0.5, -0.9, 1.0])
        assert np.all(truncation_sequence(f, 4.0, 0) == 0.0)

    def test_hand_values_level_zero_and_one(self):
        f = np.array([1.0, 2.0])
        np.testing.assert_allclose(truncation_sequence(f, 4.0, 0), [0.0, 1.0])
        np.testing.assert_allclose(truncation_sequence(f, 4.0, 1), [0.0, 0.0])

    def test_clipped_by_level_width(self):
        out = truncation_sequence(np.array([5.0]), 4.0, 1)
        assert out[0] == pytest.approx(2.0)

    def test_delta_validated(self):
        with pytest.raises(ConfigError):
            truncation_sequence(np.array([1.0]), 1.5, 0)

    def test_energy_sum_bound_smoke(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            form = random_form(rng)
            f = rng.standard_normal(form.n) * 5.0
            delta = rng.uniform(2.01, 8.0)
            n_cap = int(math.ceil(2 * math.log(max(np.max(np.abs(f)), 1.0)) / math.log(delta))) + 2
            total = sum(form.energy(truncation_sequence(f, delta, n)) for n in range(n_cap + 1))
            assert total <= form.energy(f) * (1 + 1e-10) + 1e-12


class TestLevelData:
    def test_zero_function(self):
        data = level_data(np.zeros(3), np.full(3, 1 / 3), 4.0, 5)
        assert all(m == 0.0 for m in data.masses_A)
        assert all(m == 0.0 for m in data.masses_Bc)

    def test_hand_enumeration(self):
        data = level_data(np.array([1.0, 3.0]), np.array([0.5, 0.5]), 4.0, 3)
        assert data.masses_A[0] == pytest.approx(0.5)  # f^2 = 1 in [1, 4)
        assert data.masses_A[1] == pytest.approx(0.5)  # f^2 = 9 in [4, 16)
        assert data.masses_A[2] == 0.0

    def test_partition_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            mu = rng.uniform(0.05, 1.0, n)
            mu /= mu.sum()
            f = rng.standard_normal(n) * rng.uniform(0.5, 10)
            data = level_data(f, mu, 4.0, 40)
            # mu(B_0) + sum_n mu(A_n) = 1
            b0 = float(mu[f * f < 1.0].sum())
            assert b0 + sum(data.masses_A) == pytest.approx(1.0, abs=1e-12)

    def test_markov_bound_smoke(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            mu = rng.uniform(0.05, 1.0, n)
            mu /= mu.sum()
            f = rng.standard_normal(n) * rng.uniform(0.5, 10)
            m2 = float(mu @ (f * f))
            data = level_data(f, mu, 4.0, 20)
            for lvl, mass in enumerate(data.masses_Bc):
                assert mass <= 4.0**-lvl * m2 + 1e-12


class TestSpectralGap:
    def test_two_point_uniform_exact(self, two_point_uniform):
        assert spectral_gap(two_point_uniform).gap == pytest.approx(4.0, abs=1e-10)

    def test_weighted_two_point_closed_form(self):
        for p, w in ((0.3, 1.0), (0.1, 2.5), (0.45, 0.2)):
            form = FiniteDirichletForm(
                mu=np.array([p, 1 - p]),
                weights=np.array([[0.0, w], [w, 0.0]]),
            )
            gap = spectral_gap(form).gap
            # brute force the Rayleigh quotient over the circle
            phis = np.arange(0.0, math.pi, 1e-3)
            best = math.inf
            for phi in phis:
                f = np.array([math.cos(phi), math.sin(phi)])
                var = p * (1 - p) * (f[0] - f[1]) ** 2
                if var < 1e-18:
                    continue
                best = min(best, w * (f[0] - f[1]) ** 2 / var)
            assert gap == pytest.approx(w / (p * (1 - p)), rel=1e-9)
            assert gap == pytest.approx(best, rel=1e-6)

    def test_weight_scaling_doubles_gap(self):
        rng = np.random.default_rng(12)
        form = random_form(rng)
        doubled = FiniteDirichletForm(mu=form.mu, weights=2.0 * form.weights)
        assert spectral_gap(doubled).gap == pytest.approx(2.0 * spectral_gap(form).gap, rel=1e-9)

    def test_certificate_achieves_gap(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            form = random_form(rng)
            sg = spectral_gap(form)
            f = sg.certificate
            var = float(form.mu @ (f - form.mu @ f) ** 2)
            assert form.energy(f) / var == pytest.approx(sg.gap, rel=1e-8)

    def test_poincare_bound_on_random_functions(self):
        rng = np.random.default_rng(14)
        form = random_form(rng)
        sg = spectral_gap(form)
        for _ in range(100):
            f = rng.standard_normal(form.n)
            var = float(form.mu @ (f - form.mu @ f) ** 2)
            assert var <= sg.poincare_constant * form.energy(f) * (1 + 1e-10) + 1e-12

    def test_disconnected_raises(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        form = FiniteDirichletForm(mu=np.full(4, 0.25), weights=w)
        with pytest.raises(SingularityError):
            spectral_gap(form)

    def test_gap_against_characteristic_polynomial(self):
        # The mu-symmetrised generator B of a 2-state form has the
        # characteristic polynomial x^2 - tr(B) x + det(B).
        form = FiniteDirichletForm(mu=np.array([0.3, 0.7]), weights=np.array([[0.0, 2.0], [2.0, 0.0]]))
        d = 1.0 / np.sqrt(form.mu)
        B = d[:, None] * form.laplacian * d[None, :]
        tr, det = float(np.trace(B)), float(np.linalg.det(B))
        disc = math.sqrt(tr * tr - 4.0 * det)
        sg = spectral_gap(form)
        assert sg.gap == pytest.approx(0.5 * (tr + disc), rel=1e-12)
        # The certificate solves the generalised problem L f = gap * mu * f.
        f = sg.certificate
        np.testing.assert_allclose(form.laplacian @ f, sg.gap * form.mu * f, atol=1e-10)

    def test_random_forms_certificate_attains_gap(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            form = random_form(rng)
            sg = spectral_gap(form)
            cert = sg.certificate
            var = float(form.mu @ (cert - form.mu @ cert) ** 2)
            assert sg.gap * var == pytest.approx(form.energy(cert), rel=1e-9)
            for _ in range(20):
                f = rng.standard_normal(form.n)
                var = float(form.mu @ (f - form.mu @ f) ** 2)
                assert sg.gap * var <= form.energy(f) * (1 + 1e-10) + 1e-12

    def test_degenerate_spectrum_certificate(self, fixture_forms):
        # On the uniform triangle the eigenvalue 9 is double, so the
        # certificate may be any vector of its eigenspace: check what it
        # must satisfy, not which vector it is.
        form = fixture_forms["tri_uniform"]
        sg = spectral_gap(form)
        assert sg.gap == pytest.approx(9.0, rel=1e-12)
        cert = sg.certificate
        var = float(form.mu @ (cert - form.mu @ cert) ** 2)
        assert form.energy(cert) == pytest.approx(sg.gap * var, rel=1e-9)
        assert np.linalg.norm(cert) == pytest.approx(1.0, rel=1e-12)
        lead = cert[np.flatnonzero(np.abs(cert) > 1e-12 * np.max(np.abs(cert)))[0]]
        assert lead > 0


def _loop_json_dict(form):
    """to_json_dict written as a loop over all index pairs, kept as a reference."""
    edges = []
    for i in range(form.n):
        for j in range(i + 1, form.n):
            if form.weights[i, j] > 0:
                edges.append([i, j, float(form.weights[i, j])])
    return {"mu": [float(x) for x in form.mu], "edges": edges}


def _loop_birth_death(kappa, c0, half_width, n):
    """build_birth_death with its weights filled edge by edge, kept as a reference."""
    x = np.linspace(-half_width, half_width, n)
    h = x[1] - x[0]
    log_mu = -(c0 * np.abs(x) ** kappa)
    log_mu -= log_mu.max()
    mu = np.exp(log_mu)
    mu /= mu.sum()
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = (mu[i] + mu[i + 1]) / (2.0 * h * h)
    return FiniteDirichletForm(mu=mu, weights=w)


class TestBirthDeath:
    @pytest.mark.parametrize("n", [3, 41, 201])
    def test_matches_edge_loop(self, n):
        for kappa, c0, half_width in ((4.0, 1.0, 2.0), (2.0, 0.5, 7.0), (1.5, 3.0, 0.3)):
            form = build_birth_death(kappa, c0, half_width, n)
            ref = _loop_birth_death(kappa, c0, half_width, n)
            assert form.mu.tobytes() == ref.mu.tobytes()
            assert form.weights.tobytes() == ref.weights.tobytes()

    def test_symmetry_of_measure(self):
        form = build_birth_death(kappa=2.0, c0=0.5, half_width=4.0, n=41)
        np.testing.assert_allclose(form.mu, form.mu[::-1], rtol=1e-13)

    def test_nearest_neighbour_only(self):
        form = build_birth_death(kappa=4.0, c0=1.0, half_width=2.0, n=11)
        w = form.weights
        for i in range(form.n):
            for j in range(form.n):
                if abs(i - j) > 1:
                    assert w[i, j] == 0.0

    def test_quartic_tails_lighter_than_gaussian(self):
        g2 = build_birth_death(kappa=2.0, c0=1.0, half_width=2.0, n=21)
        g4 = build_birth_death(kappa=4.0, c0=1.0, half_width=2.0, n=21)
        assert g4.mu[0] < g2.mu[0]

    def test_gaussian_gap_near_one_medium_grid(self):
        form = build_birth_death(kappa=2.0, c0=0.5, half_width=7.0, n=101)
        assert spectral_gap(form).gap == pytest.approx(1.0, rel=0.25)

    def test_even_state_count_rejected(self):
        with pytest.raises(ConfigError):
            build_birth_death(kappa=2.0, c0=1.0, half_width=1.0, n=10)

    def test_too_few_states_rejected(self):
        with pytest.raises(ConfigError):
            build_birth_death(kappa=2.0, c0=1.0, half_width=1.0, n=1)
