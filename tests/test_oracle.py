"""Self-checks of the Fock-basis oracle and pinning of its element conventions
against the engine's symplectic matrices.  If these fail, every oracle-based
comparison elsewhere in the suite is meaningless."""

import math

import numpy as np

import reference as ref
from fock_oracle import Mixture, Oracle, qfi_sld
from wignersim import gaussian as ga
from wignersim import symplectic as sym


def oracle_mean_vector(mix: Mixture) -> np.ndarray:
    out = []
    for mode in range(1, len(mix.oracle.dims) + 1):
        out.append(mix.quadrature_moments(mode, 0.0)[0])
        out.append(mix.quadrature_moments(mode, math.pi / 2.0)[0])
    return np.array(out)


class TestConventionPinning:
    def test_elements_match_engine_on_coherent_means(self):
        orc = Oracle([25, 25])
        alpha = 0.8
        mix = Mixture.from_product(orc, [("coherent", alpha), ("coherent", 0.3j)])
        state = ga.tensor([ga.coherent_state(alpha, 0.0), ga.coherent_state(0.3, math.pi / 2)])
        cases = [
            (sym.SymplecticTransform(sym.beam_splitter_matrix(0.7)), orc.bs(1, 2, 0.7)),
            (sym.SymplecticTransform(ref.symmetric_phase_matrix(0.9)), orc.ps2(1, 2, 0.9)),
            (sym.SymplecticTransform(sym.mzi_matrix(1.1)), orc.mzi(1.1)),
            (sym.embed(sym.make_squeezer(0.4, 0.7), [1], 2), orc.squeeze(1, 0.4, 0.7)),
            (sym.embed(sym.make_displacement(0.5, 1.2), [1], 2), orc.displace(1, 0.5, 1.2)),
        ]
        for f, steps in cases:
            want = f.matrix @ state.mean + f.shift
            got = oracle_mean_vector(mix.apply(steps))
            np.testing.assert_allclose(got, want, atol=5e-7)

    def test_two_mode_squeezer_covariance(self):
        orc = Oracle([30, 30])
        r, theta = 0.6, 0.5
        mix = Mixture.from_product(orc, [("vacuum",), ("vacuum",)]).apply(orc.tms(1, 2, r, theta))
        state = ga.propagate(ga.vacuum_state(2), sym.make_two_mode_squeezer(r, theta))
        for mode in (1, 2):
            for angle in (0.0, math.pi / 2, 0.7):
                _, x2 = mix.quadrature_moments(mode, angle)
                i = 2 * (mode - 1)
                u = np.array([math.cos(angle), math.sin(angle)])
                want = float(u @ state.cov[i : i + 2, i : i + 2] @ u) / 2.0
                assert abs(x2 - want) < 1e-8


class TestOracleSelfConsistency:
    def test_thermal_statistics(self):
        mix = Mixture.from_product(Oracle([130]), [("thermal", 2.0)])
        assert abs(mix.number_mean(1) - 2.0) < 1e-10
        n, n2 = mix.number_moments(1)
        assert abs((n2 - n**2) - (4.0 + 2.0)) < 1e-8
        assert abs(mix.parity_mean(1) - 0.2) < 1e-10

    def test_coherent_statistics(self):
        mix = Mixture.from_product(Oracle([40]), [("coherent", 1.5)])
        n, n2 = mix.number_moments(1)
        assert abs(n - 2.25) < 1e-10
        assert abs((n2 - n**2) - 2.25) < 1e-9

    def test_squeezed_vacuum(self):
        mix = Mixture.from_product(Oracle([60]), [("squeezed", 0.8)])
        assert abs(mix.number_mean(1) - math.sinh(0.8) ** 2) < 1e-9

    def test_herald_probabilities_sum(self):
        orc = Oracle([40, 12])
        mix = Mixture.from_product(orc, [("thermal", 1.0), ("vacuum",)]).apply(orc.bs(2, 1, 0.8))
        total = sum(mix.herald_fock(2, n)[1] for n in range(12))
        assert abs(total - 1.0) < 1e-10
        _, pc = mix.herald_click(2)
        _, p0 = mix.herald_fock(2, 0)
        assert abs(pc + p0 - 1.0) < 1e-10

    def test_loss_channel_trace_preserving(self):
        mix = Mixture.from_product(Oracle([40]), [("thermal", 1.5)]).loss(1, 0.6)
        assert abs(sum(mix.weights) - 1.0) < 1e-10
        assert abs(mix.number_mean(1) - 0.9) < 1e-7  # dim-40 thermal tail

    def test_sld_qfi_on_pure_rotation(self):
        # rotating coherent state: QFI = 4 |alpha|^2
        orc = Oracle([35])
        alpha = 1.1

        def rho(phi):
            return Mixture.from_product(orc, [("coherent", alpha * np.exp(1j * phi))]).dm()

        h = 1e-5
        f = qfi_sld(rho(0.3), (rho(0.3 + h) - rho(0.3 - h)) / (2 * h))
        assert abs(f - 4.0 * alpha**2) < 1e-6
