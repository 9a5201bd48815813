import numpy as np
import pytest

from dgdlab import config, topology
from dgdlab.errors import MixingMatrixError


def test_quarter_matrix_summary(mix_quarter):
    s = mix_quarter.spectral
    assert s.lambda_min == pytest.approx(0.25, abs=1e-10)
    assert s.beta == pytest.approx(0.25, abs=1e-10)
    assert s.spectral_gap == pytest.approx(0.75, abs=1e-10)


def test_skewed_matrix_summary(mix_skewed):
    s = mix_skewed.spectral
    assert s.lambda_min == pytest.approx(-0.1, abs=1e-10)
    assert s.beta == pytest.approx(0.1, abs=1e-10)
    assert s.beta_abs == pytest.approx(0.1, abs=1e-10)


def test_beta_is_signed_not_magnitude():
    # ring-ish matrix where the most negative eigenvalue beats the second
    # largest in magnitude; beta must stay the signed second largest
    w = topology.metropolis_weights(1 - np.eye(2))
    s = w.spectral
    assert s.beta == pytest.approx(0.0, abs=1e-12)
    assert s.lambda_min == pytest.approx(0.0, abs=1e-12)


def test_single_agent_flagged(mix_single):
    s = mix_single.spectral
    assert s.single_agent
    assert s.lambda_min == pytest.approx(1.0)
    assert s.beta == 0.0


def test_lambda_min_never_exceeds_beta(mix_quarter, mix_skewed):
    for mix in (mix_quarter, mix_skewed):
        assert mix.spectral.lambda_min <= mix.spectral.beta


@pytest.mark.parametrize(
    "w, code",
    [
        (np.eye(3), "disconnected"),
        (np.array([[0.5, 0.5], [0.4, 0.6]]), "asymmetric"),
        (np.array([[0.5, 0.4], [0.4, 0.5]]), "row_sum"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "zero_diagonal"),
        (np.array([[1.5, -0.5], [-0.5, 1.5]]), "negative_weight"),
        (np.ones((2, 3)), "not_square"),
        (np.array([[np.nan, 1.0], [1.0, 0.0]]), "non_finite"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non_finite"),
        (np.array([[0.5, np.nan, 0.5]]), "non_finite"),  # checked before the shape
    ],
)
def test_validation_error_codes(w, code):
    with pytest.raises(MixingMatrixError) as err:
        topology.validate_mixing(w)
    assert err.value.code == code


def test_near_symmetric_matrix_stored_exactly_symmetric():
    w = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    w[0, 1] += 5e-13
    w[0, 0] -= 5e-13  # keep the row sum
    stored = topology.validate_mixing(w).w
    assert np.array_equal(stored, stored.T)
    assert np.max(np.abs(stored - w)) <= 5e-13


def test_matrix_is_readonly(mix_quarter):
    with pytest.raises(ValueError):
        mix_quarter.w[0, 0] = 0.9


class TestMetropolis:
    def test_path_two_nodes(self):
        mix = topology.metropolis_weights(np.array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(mix.w, [[0.5, 0.5], [0.5, 0.5]])

    def test_complete_three_nodes(self):
        # degree 2 everywhere: edges at 1/(1+2), diagonal fills to 1/3
        mix = topology.metropolis_weights(1 - np.eye(3))
        np.testing.assert_allclose(mix.w, np.full((3, 3), 1.0 / 3.0))

    def test_ring_four_nodes(self):
        adjacency = np.zeros((4, 4), dtype=int)
        for i in range(4):
            adjacency[i, (i + 1) % 4] = adjacency[(i + 1) % 4, i] = 1
        mix = topology.metropolis_weights(adjacency)
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i, (i + 1) % 4] = expected[i, (i - 1) % 4] = 1.0 / 3.0
            expected[i, i] = 1.0 / 3.0
        np.testing.assert_allclose(mix.w, expected)

    def test_weights_equal_the_pairwise_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            m = int(rng.integers(1, 12))
            adjacency = np.triu((rng.uniform(size=(m, m)) < 0.6).astype(int), 1)
            adjacency = adjacency + adjacency.T
            try:
                mix = topology.metropolis_weights(adjacency)
            except MixingMatrixError:
                continue
            deg = adjacency.sum(axis=1)
            expected = np.zeros((m, m))
            for i in range(m):
                for j in range(i + 1, m):
                    if adjacency[i, j]:
                        expected[i, j] = expected[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
            np.fill_diagonal(expected, 1.0 - expected.sum(axis=1))
            assert np.array_equal(mix.w, expected)

    @pytest.mark.parametrize(
        "adjacency, code",
        [
            ([0, 1, 1], "not_square"),
            ([[0, 1, 1], [1, 0, 1]], "not_square"),
            ([[0, 1], [0, 0]], "asymmetric"),
            ([[0, 2], [2, 0]], "negative_weight"),
            ([[0, -1], [-1, 0]], "negative_weight"),
            ([[1, 1], [1, 0]], "zero_diagonal"),
        ],
    )
    def test_adjacency_refusal_codes(self, adjacency, code):
        with pytest.raises(MixingMatrixError) as err:
            topology.metropolis_weights(np.array(adjacency))
        assert err.value.code == code

    def test_disconnected_rejected(self):
        adjacency = np.zeros((4, 4), dtype=int)
        adjacency[0, 1] = adjacency[1, 0] = 1
        adjacency[2, 3] = adjacency[3, 2] = 1
        with pytest.raises(MixingMatrixError) as err:
            topology.metropolis_weights(adjacency)
        assert err.value.code == "disconnected"

    def test_random_graphs_always_validate(self):
        rng = np.random.default_rng(5)
        built = 0
        while built < 25:
            m = int(rng.integers(2, 9))
            adjacency = (rng.uniform(size=(m, m)) < 0.5).astype(int)
            adjacency = np.triu(adjacency, 1)
            adjacency = adjacency + adjacency.T
            try:
                mix = topology.metropolis_weights(adjacency)
            except MixingMatrixError as exc:
                assert exc.code == "disconnected"
                continue
            built += 1
            assert mix.spectral.beta < 1.0


def test_disagreement_quadratic_form_bound():
    """y'(I - W)y >= (1 - beta) ||y||^2 for every y orthogonal to ones."""
    rng = np.random.default_rng(41)
    for trial in range(30):
        m = int(rng.integers(2, 8))
        adjacency = np.triu((rng.uniform(size=(m, m)) < 0.6).astype(int), 1)
        adjacency = adjacency + adjacency.T
        try:
            mix = topology.metropolis_weights(adjacency)
        except MixingMatrixError:
            continue
        gap = mix.spectral.spectral_gap
        for _ in range(10):
            y = rng.normal(size=m)
            y -= y.mean()
            lhs = y @ (np.eye(m) - mix.w) @ y
            assert lhs >= gap * (y @ y) - 1e-9


class TestMixingFromSpec:
    """The mixing spec reader, which lives in `config`."""

    def test_explicit(self, mix_quarter):
        mix = config.mixing_from_spec({"type": "explicit", "W": mix_quarter.w.tolist()})
        np.testing.assert_allclose(mix.w, mix_quarter.w)

    def test_bare_w_key(self, mix_quarter):
        mix = config.mixing_from_spec({"W": mix_quarter.w.tolist()})
        np.testing.assert_allclose(mix.w, mix_quarter.w)

    def test_metropolis(self):
        mix = config.mixing_from_spec(
            {"type": "metropolis", "adjacency": [[0, 1], [1, 0]]}
        )
        np.testing.assert_allclose(mix.w, [[0.5, 0.5], [0.5, 0.5]])

    def test_unknown_type(self):
        with pytest.raises(MixingMatrixError):
            config.mixing_from_spec({"type": "gossip"})
