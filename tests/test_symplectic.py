import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

import reference as ref
from wignersim import scenario as sc
from wignersim import symplectic as sym

RNG = np.random.default_rng(20240811)


def symplectic_defect(m: np.ndarray) -> float:
    om = sym.omega(m.shape[0] // 2)
    return float(np.max(np.abs(m @ om @ m.T - om)))


class TestBeamSplitter:
    def test_balanced_pattern(self):
        m = sym.beam_splitter_matrix(0.5)
        s = 1.0 / math.sqrt(2.0)
        expected = s * np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=float
        )
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_full_transmission(self):
        np.testing.assert_allclose(
            sym.beam_splitter_matrix(1.0), np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15
        )

    def test_symplectic_at_t03(self):
        assert symplectic_defect(sym.beam_splitter_matrix(0.3)) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain(self, bad):
        # a transmissivity is validated where a config gives it
        with pytest.raises(ValueError):
            sc.ModificationSpec.from_dict({"op": "subtract", "mode": 1, "T": bad}, "m")


class TestPhaseShifters:
    """The balanced phase inside the MZI: +phi/2 on mode 1, -phi/2 on mode 2."""

    def test_zero_is_identity(self):
        np.testing.assert_allclose(ref.symmetric_phase_matrix(0.0), np.eye(4), atol=1e-15)

    def test_quarter_turn(self):
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        m = ref.symmetric_phase_matrix(math.pi)
        np.testing.assert_allclose(m[:2, :2], quarter, atol=1e-15)
        np.testing.assert_allclose(m[2:, 2:], quarter.T, atol=1e-15)

    def test_symmetric_inverse_pair(self):
        f = ref.symmetric_phase_matrix(0.7) @ ref.symmetric_phase_matrix(-0.7)
        np.testing.assert_allclose(f, np.eye(4), atol=1e-14)

    def test_nonfinite_rejected(self):
        # a phase is validated where a config gives it
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sc._number(bad, "interferometer.phi")


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
        ds = sym.embed(sym.make_squeezer(r, 0.0), [1], 2).matrix @ sym.embed(sym.make_squeezer(r, 0.0), [2], 2).matrix
        s2 = sym.make_two_mode_squeezer(r, 0.0)
        assert np.max(np.abs(ds - s2.matrix)) > 0.1


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
        f = sym.embed(sym.make_displacement(alpha, theta), [1], 2)
        np.testing.assert_allclose(f.matrix, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(
            f.shift,
            [math.sqrt(2) * alpha * math.cos(theta), math.sqrt(2) * alpha * math.sin(theta), 0.0, 0.0],
            atol=1e-15,
        )

    def test_identity_sum(self):
        f = sym.embed(sym.SymplecticTransform(np.eye(2)), [2], 2)
        np.testing.assert_allclose(f.matrix, np.eye(4), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sym.SymplecticTransform(np.zeros((0, 0)))

    def test_compose_identity(self):
        f = sym.SymplecticTransform(sym.beam_splitter_matrix(0.42))
        np.testing.assert_allclose(sym.embed(f, [1, 2], 2).matrix, f.matrix, atol=1e-15)

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sym.embed(sym.make_squeezer(0.1), [1, 2], 2)

    def test_mzi_at_zero_is_identity(self):
        np.testing.assert_allclose(sym.mzi_matrix(0.0), np.eye(4), atol=1e-14)

    def test_mzi_at_pi_swaps_ports(self):
        # at phi = pi the chain routes input 1 to output 2 (and 2 to 1) up to
        # quarter-turn signs: antidiagonal 2x2 blocks, zero diagonal blocks
        m = sym.mzi_matrix(math.pi)
        np.testing.assert_allclose(m[:2, :2], np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(m[2:, 2:], np.zeros((2, 2)), atol=1e-14)
        block = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(m[:2, 2:], block, atol=1e-14)
        np.testing.assert_allclose(m[2:, :2], block, atol=1e-14)

    @pytest.mark.parametrize("phi", [0.0, 0.4, 2.6, 3.14, 5.9])
    def test_mzi_phase_derivative_matches_central_difference(self, phi):
        h = 1e-4
        diffs = [(sym.mzi_matrix(phi + s) - sym.mzi_matrix(phi - s)) / (2 * s) for s in (h, h / 2)]
        richardson = (4 * diffs[1] - diffs[0]) / 3
        np.testing.assert_allclose(sym.mzi_phase_derivative(phi), richardson, rtol=0, atol=1e-10)

    def test_mzi_stack_matches_the_product_form_and_keeps_the_bits_of_each_phase(self):
        # cos(phi/2) I + sin(phi/2) G against BS P(phi) BS, and its derivative against BS P'(phi) BS, where
        # P'(phi) = P(phi + pi) / 2; each matrix of a stack is the one phase's own, bit for bit
        phis = [-5.9, -1.3, 0.0, 0.4, math.pi / 2, 2.6, math.pi, 5.9]
        m, dm = sym.mzi_matrix(phis), sym.mzi_phase_derivative(np.array(phis))
        assert m.shape == dm.shape == (len(phis), 4, 4)
        for phi, m_phi, dm_phi in zip(phis, m, dm):
            np.testing.assert_allclose(m_phi, ref.mzi_product(phi), rtol=0, atol=1e-15)
            np.testing.assert_allclose(dm_phi, ref.mzi_product(phi + math.pi) / 2.0, rtol=0, atol=1e-15)
            assert m_phi.tobytes() == sym.mzi_matrix(phi).tobytes()
            assert dm_phi.tobytes() == sym.mzi_phase_derivative(phi).tobytes()

    @given(phi=st.floats(-6.3, 6.3), t=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_symplectic_preserved_under_composition(self, phi, t):
        assert symplectic_defect(sym.beam_splitter_matrix(t) @ ref.symmetric_phase_matrix(phi)) < 1e-10


def _random_transform(rng) -> sym.SymplecticTransform:
    kind = rng.integers(0, 6)
    if kind == 0:
        return sym.SymplecticTransform(sym.beam_splitter_matrix(rng.uniform(0.0, 1.0)))
    if kind == 1:
        return sym.SymplecticTransform(sym.mzi_matrix(rng.uniform(-math.pi, math.pi)))
    if kind == 2:
        return sym.SymplecticTransform(ref.symmetric_phase_matrix(rng.uniform(-math.pi, math.pi)))
    if kind == 3:
        return sym.embed(sym.make_squeezer(rng.uniform(0.0, 1.2), rng.uniform(0.0, 2 * math.pi)), [1], 2)
    if kind == 4:
        return sym.make_two_mode_squeezer(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi))
    return sym.embed(sym.make_displacement(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2 * math.pi)), [1], 2)


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

    def test_direct_sum_symplectic(self):
        # two transforms embedded on disjoint mode pairs of four modes, in any order, act as one
        for _ in range(200):
            a, b = sym.embed(_random_transform(RNG), [3, 1], 4), sym.embed(_random_transform(RNG), [2, 4], 4)
            f = a.matrix @ b.matrix
            assert symplectic_defect(f) < 1e-10

    def test_embed_matches_direct_sum(self):
        f = sym.make_squeezer(0.7, 0.2)
        lhs = sym.embed(f, [2], 3).matrix
        np.testing.assert_allclose(lhs, block_diag(np.eye(2), f.matrix, np.eye(2)), atol=1e-15)
