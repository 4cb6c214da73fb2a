import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignersim import scenario as sc
from wignersim import symplectic as sym

RNG = np.random.default_rng(20240811)


def symplectic_defect(m: np.ndarray) -> float:
    om = sym.omega(m.shape[0] // 2)
    return float(np.max(np.abs(m @ om @ m.T - om)))


class TestBeamSplitter:
    def test_balanced_pattern(self):
        m = sym.make_beam_splitter(0.5).matrix
        s = 1.0 / math.sqrt(2.0)
        expected = s * np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=float
        )
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_full_transmission(self):
        np.testing.assert_allclose(
            sym.make_beam_splitter(1.0).matrix, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15
        )

    def test_symplectic_at_t03(self):
        assert symplectic_defect(sym.make_beam_splitter(0.3).matrix) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            sym.make_beam_splitter(bad)


class TestPhaseShifters:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(sym.make_phase_shifter(0.0).matrix, np.eye(2), atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            sym.make_phase_shifter(math.pi / 2).matrix, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15
        )

    def test_symmetric_inverse_pair(self):
        f = sym.compose(sym.make_symmetric_phase_shifter(0.7), sym.make_symmetric_phase_shifter(-0.7))
        np.testing.assert_allclose(f.matrix, np.eye(4), atol=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sym.make_phase_shifter(float("nan"))
        with pytest.raises(ValueError):
            sym.make_symmetric_phase_shifter(float("inf"))


class TestSqueezers:
    def test_zero_identity(self):
        np.testing.assert_allclose(sym.make_squeezer(0.0, 0.3).matrix, np.eye(2), atol=1e-15)

    def test_theta_zero_diagonal(self):
        np.testing.assert_allclose(
            sym.make_squeezer(1.0, 0.0).matrix, np.diag([math.e, 1.0 / math.e]), rtol=1e-15
        )

    def test_gain_form_matches_r_form(self):
        # a config squeeze given by its gain G = cosh^2 r
        g = math.cosh(0.8) ** 2
        spec = sc.ModificationSpec.from_dict({"op": "squeeze", "mode": 1, "gain": g}, "m")
        np.testing.assert_allclose(sc._gaussian_step(spec, 1).matrix, sym.make_squeezer(0.8, 0.0).matrix, atol=1e-12)

    def test_domains(self):
        with pytest.raises(ValueError):
            sym.make_squeezer(-0.1)

    def test_two_mode_differs_from_direct_sum(self):
        r = 0.5
        ds = sym.direct_sum([sym.make_squeezer(r, 0.0), sym.make_squeezer(r, 0.0)])
        s2 = sym.make_two_mode_squeezer(r, 0.0)
        assert np.max(np.abs(ds.matrix - s2.matrix)) > 0.1


class TestDisplacement:
    def test_zero(self):
        d = sym.make_displacement(0.0, 1.0)
        np.testing.assert_allclose(d.matrix, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(d.shift, np.zeros(2), atol=1e-15)

    def test_unit_real(self):
        np.testing.assert_allclose(
            sym.make_displacement(1.0, 0.0).shift, [math.sqrt(2.0), 0.0], atol=1e-15
        )

    def test_imaginary_axis(self):
        np.testing.assert_allclose(
            sym.make_displacement(2.0, math.pi / 2).shift, [0.0, 2.0 * math.sqrt(2.0)], atol=1e-14
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sym.make_displacement(-0.5, 0.0)


class TestDirectSumCompose:
    def test_displacement_block_example(self):
        # affine reading of the displaced-upper-mode example: identity matrix,
        # shift only on the first mode
        alpha, theta = 1.3, 0.4
        f = sym.direct_sum([sym.make_displacement(alpha, theta), sym.identity_transform(1)])
        np.testing.assert_allclose(f.matrix, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(
            f.shift,
            [math.sqrt(2) * alpha * math.cos(theta), math.sqrt(2) * alpha * math.sin(theta), 0.0, 0.0],
            atol=1e-15,
        )

    def test_identity_sum(self):
        f = sym.direct_sum([sym.identity_transform(1), sym.identity_transform(1)])
        np.testing.assert_allclose(f.matrix, np.eye(4), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sym.direct_sum([])

    def test_compose_identity(self):
        f = sym.make_beam_splitter(0.42)
        g = sym.compose(sym.identity_transform(2), f)
        np.testing.assert_allclose(g.matrix, f.matrix, atol=1e-15)

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sym.compose(sym.make_phase_shifter(0.1), sym.make_beam_splitter(0.5))

    def test_mzi_at_zero_is_identity(self):
        np.testing.assert_allclose(sym.make_mzi(0.0).matrix, np.eye(4), atol=1e-14)

    def test_mzi_at_pi_swaps_ports(self):
        # at phi = pi the chain routes input 1 to output 2 (and 2 to 1) up to
        # quarter-turn signs: antidiagonal 2x2 blocks, zero diagonal blocks
        m = sym.make_mzi(math.pi).matrix
        np.testing.assert_allclose(m[:2, :2], np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(m[2:, 2:], np.zeros((2, 2)), atol=1e-14)
        block = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(m[:2, 2:], block, atol=1e-14)
        np.testing.assert_allclose(m[2:, :2], block, atol=1e-14)

    @pytest.mark.parametrize("phi", [0.0, 0.4, 2.6, 3.14, 5.9])
    def test_mzi_phase_derivative_matches_central_difference(self, phi):
        h = 1e-4
        diffs = [(sym.make_mzi(phi + s).matrix - sym.make_mzi(phi - s).matrix) / (2 * s) for s in (h, h / 2)]
        richardson = (4 * diffs[1] - diffs[0]) / 3
        np.testing.assert_allclose(sym.mzi_phase_derivative(phi), richardson, rtol=0, atol=1e-10)

    @given(phi=st.floats(-6.3, 6.3), t=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_symplectic_preserved_under_composition(self, phi, t):
        f = sym.compose(sym.make_beam_splitter(t), sym.make_symmetric_phase_shifter(phi))
        assert symplectic_defect(f.matrix) < 1e-10


def _random_transform(rng) -> sym.SymplecticTransform:
    kind = rng.integers(0, 6)
    if kind == 0:
        return sym.make_beam_splitter(rng.uniform(0.0, 1.0))
    if kind == 1:
        return sym.direct_sum(
            [sym.make_phase_shifter(rng.uniform(-math.pi, math.pi)), sym.identity_transform(1)]
        )
    if kind == 2:
        return sym.make_symmetric_phase_shifter(rng.uniform(-math.pi, math.pi))
    if kind == 3:
        return sym.direct_sum(
            [sym.make_squeezer(rng.uniform(0.0, 1.2), rng.uniform(0.0, 2 * math.pi)), sym.identity_transform(1)]
        )
    if kind == 4:
        return sym.make_two_mode_squeezer(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi))
    return sym.direct_sum(
        [sym.make_displacement(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2 * math.pi)), sym.identity_transform(1)]
    )


class TestNonFinite:
    @pytest.mark.parametrize("matrix, shift", [
        ([[math.nan, 0.0], [0.0, 1.0]], None),
        ([[math.inf, 0.0], [0.0, 1.0]], None),
        (np.eye(2), [0.0, math.nan]),
        (np.eye(2), [math.inf, 0.0]),
    ])
    def test_rejected(self, matrix, shift):
        # nan > tol is False, so only an explicit check stops a NaN matrix
        with pytest.raises(ValueError, match="finite"):
            sym.SymplecticTransform(np.array(matrix), shift)


class TestInvariantProperties:
    def test_constructors_symplectic_and_unit_determinant(self):
        for _ in range(200):
            f = _random_transform(RNG)
            assert symplectic_defect(f.matrix) < 1e-10
            assert abs(np.linalg.det(f.matrix) - 1.0) < 1e-9

    def test_composition_associative(self):
        for _ in range(200):
            a, b, c = (_random_transform(RNG) for _ in range(3))
            lhs = sym.compose(sym.compose(a, b), c)
            rhs = sym.compose(a, sym.compose(b, c))
            assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-12
            assert np.max(np.abs(lhs.shift - rhs.shift)) < 1e-12

    def test_direct_sum_symplectic(self):
        for _ in range(200):
            f = sym.direct_sum([_random_transform(RNG), _random_transform(RNG)])
            assert symplectic_defect(f.matrix) < 1e-10

    def test_embed_matches_direct_sum(self):
        f = sym.make_squeezer(0.7, 0.2)
        lhs = sym.embed(f, [2], 3).matrix
        rhs = sym.direct_sum([sym.identity_transform(1), f, sym.identity_transform(1)]).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)
