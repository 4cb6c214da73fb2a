"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The truncated Fock-basis oracle in fock_oracle.py is the independent
reference for every model-level check.
"""

import functools
import math

import numpy as np
import pytest

from fock_oracle import Mixture, Oracle
import reference as ref
from wignersim import conditional as cond
from wignersim import estimation as est
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import scenario as sc
from wignersim import symplectic as sym
from wignersim import wigner as wg


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def mzi_family(alpha2, r, L=0.0):
    alpha = math.sqrt(alpha2)

    def fam(phi):
        state = ga.tensor([ga.coherent_state(alpha, 0.0), ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))])
        out = ga.propagate(state, sym.SymplecticTransform(sym.mzi_matrix(phi)))
        if L > 0.0:
            out = ref.lossy(out, L)
        return out

    return fam


def scheme_variance(alpha2, r, scheme, phi):
    fam = mzi_family(alpha2, r)
    mom = lambda p: ref.measure(fam(p), scheme)
    return ref.phase_variance_error_prop(lambda p: mom(p).mean, lambda p: mom(p).variance, phi)


SCHEMES = {
    "parity": meas.DetectionScheme("parity", 1),
    "homodyne": meas.DetectionScheme("homodyne", 1, angle=0.0),
    "intensity_difference": meas.DetectionScheme("intensity_difference", 1, mode_b=2),
    "intensity": meas.DetectionScheme("intensity", 1),
}

CLOSED_FORMS = {
    "parity": est.parity_min_variance,
    "homodyne": est.homodyne_min_variance,
    "intensity_difference": est.intensity_difference_min_variance,
    "intensity": est.intensity_min_variance,
}


def test_criterion_1_closed_form_qcrb(gaussian_qfi):
    worst = 0.0
    for a2 in (1.0, 100.0, 500.0):
        for r in (0.5, 1.0):
            target = a2 * math.exp(2 * r) + math.sinh(r) ** 2
            fam = mzi_family(a2, r)
            fg = gaussian_qfi(fam, 0.9)
            fw = ref.qfi_pure_wigner(lambda p: wg.from_gaussian(fam(p)), 0.9)
            worst = max(worst, abs(fg - target) / target, abs(fw - target) / target)
    report("criterion 1 (QCRB closed form, both QFI routes)", worst < 1e-8, f"worst rel dev {worst:.2e}")


def test_criterion_2_detector_ranking_and_optima():
    a2, r = 500.0, 1.0
    optima = {
        "parity": math.pi,
        "homodyne": math.pi,
        "intensity_difference": math.pi / 2,
        "intensity": est.optimal_phase("intensity", a2, r),
    }
    values = {}
    worst = 0.0
    for name, scheme in SCHEMES.items():
        got = scheme_variance(a2, r, scheme, optima[name])
        want = CLOSED_FORMS[name](a2, r)
        values[name] = got
        worst = max(worst, abs(got - want) / want)
    ranked = (
        values["parity"] < values["homodyne"] < values["intensity_difference"] < values["intensity"]
    )
    # the engine must locate the intensity optimum on its own
    var_fn = lambda p: scheme_variance(a2, r, SCHEMES["intensity"], p)
    coarse = np.linspace(0.3, math.pi - 0.1, 40)
    seed = coarse[int(np.argmin([var_fn(p) for p in coarse]))]
    found, _ = ref.golden_minimize(var_fn, seed - 0.25, seed + 0.25, tol=1e-9)
    phi_dev = abs(found - optima["intensity"])
    ok = worst < 1e-8 and ranked and phi_dev < 1e-6
    report(
        "criterion 2 (detector closed forms, ranking, intensity optimum)",
        ok,
        f"worst rel dev {worst:.2e}, ranking {ranked}, optimum dev {phi_dev:.2e} rad",
    )


def test_criterion_3_high_power_convergence():
    a2, r = 1e5, 1.0
    bound = 1.0 / (a2 * math.exp(2 * r))
    optima = {
        "parity": math.pi,
        "homodyne": math.pi,
        "intensity_difference": math.pi / 2,
        "intensity": est.optimal_phase("intensity", a2, r),
    }
    ratios = {
        name: scheme_variance(a2, r, scheme, optima[name]) / bound for name, scheme in SCHEMES.items()
    }
    ok = all(v < 3.0 for v in ratios.values())
    report(
        "criterion 3 (high-power convergence to the optimal bound)",
        ok,
        "ratios " + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items()),
    )


def test_criterion_4_loss_consistency(gaussian_qfi):
    state = ga.tensor([ga.coherent_state(1.3, 0.0), ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.9, 0.0))])
    worst = 0.0
    for L in (0.0, 0.2, 0.5):
        uniform = ref.lossy(state, L)
        explicit = ref.inject_thermal(ref.inject_thermal(state, 1, 0.0, 1.0 - L), 2, 0.0, 1.0 - L)
        worst = max(
            worst,
            float(np.max(np.abs(uniform.cov - explicit.cov))),
            float(np.max(np.abs(uniform.mean - explicit.mean))),
        )
    lossless = gaussian_qfi(mzi_family(100.0, 1.0), 1.3)
    tiny_loss = gaussian_qfi(mzi_family(100.0, 1.0, 1e-6), 1.3)
    gap = abs(tiny_loss - lossless) / lossless
    ok = worst < 1e-12 and gap < 1e-3
    report("criterion 4 (loss-channel consistency)", ok, f"entrywise {worst:.2e}, QFI gap {gap:.2e}")


def test_criterion_5_heralded_models_vs_closed_forms():
    coh = wg.from_gaussian(ga.coherent_state(1.0, 0.0))
    th = wg.from_gaussian(ga.thermal_state(1.0))
    worst = 0.0
    for T in (0.5, 0.7, 0.9, 0.99):
        for m in (1, 2, 3):
            h = ref.herald(coh, 1, ("BS", T), m, 0)[0]
            worst = max(worst, abs(h[1] - cond.spacs_prob(1.0, m, T)))
            worst = max(worst, abs(meas.intensity(h[0]).mean - cond.spacs_mean_n(1.0, m, T)))
            s = ref.herald(th, 1, ("BS", T), 0, m)[0]
            worst = max(worst, abs(s[1] - cond.spsts_prob(1.0, m, T)))
            worst = max(worst, abs(meas.intensity(s[0]).mean - cond.spsts_mean_n(1.0, m, T)))
    h = ref.herald(coh, 1, ("BS", 1.0 - 1e-9), 1, 0)[0]
    s = ref.herald(th, 1, ("BS", 1.0 - 1e-9), 0, 1)[0]
    limit_ok = (
        abs(meas.intensity(h[0]).mean - 2.5) < 1e-6
        and abs(meas.intensity(s[0]).mean - 2.0) < 1e-6
        and h[1] < 1e-8
        and s[1] < 1e-8
    )
    ok = worst < 1e-9 and limit_ok
    report("criterion 5 (heralded models match closed forms)", ok, f"worst abs dev {worst:.2e}")


def test_criterion_6_snr_factorization():
    nbar = 4.0
    th = wg.from_gaussian(ga.thermal_state(nbar))
    base = cond.thermal_snr(nbar)
    worst = 0.0
    enhancement_ok = True
    for T in (0.5, 0.7, 0.9):
        for m in (1, 2, 3):
            s = ref.herald(th, 1, ("BS", T), 0, m)[0]
            got = est.snr(meas.intensity(s[0]))
            worst = max(worst, abs(got - math.sqrt(T * (m + 1)) * base))
            ratio = got / base
            floor = 1.0 - 1e-9 if (T == 0.5 and m == 1) else 1.0  # sqrt(T(m+1)) = 1 exactly there
            if not ratio >= floor:
                enhancement_ok = False
    ok = worst < 1e-8 and enhancement_ok
    report("criterion 6 (SNR factorization and enhancement)", ok, f"worst abs dev {worst:.2e}")


def _total_click_cfi(nbar: float, T: float, phi: float) -> float:
    @functools.lru_cache(maxsize=256)
    def branches(p: float):
        out = ga.propagate(ga.tensor([ga.thermal_state(nbar), ga.vacuum_state(1)]),
                           sym.SymplecticTransform(sym.mzi_matrix(p)))
        return tuple(ref.herald(wg.from_gaussian(out), 1, ("BS", T), 0, 0, click=c)[0] for c in (True, False))

    def herald(p):
        return branches(p)[0][1]

    def click(branch_idx, mode):
        return lambda p: ref.click_probability(branches(p)[branch_idx][0], mode)

    succ = [ref.two_outcome(click(0, 1)), ref.two_outcome(click(0, 2))]
    fail = [ref.two_outcome(click(1, 1)), ref.two_outcome(click(1, 2))]
    return ref.probabilistic_cfi(herald, succ, fail, phi)


def test_criterion_7_post_selection_no_free_lunch():
    # (a) total click CFI, maximized over phi, hits the SNL exactly
    grid = [0.004, 0.01, 0.03, 0.1, 0.3, 0.7, 1.2, 2.0, 2.8]
    devs = {}
    for nbar in (2.0, 4.0):
        best = max(_total_click_cfi(nbar, 0.9, p) for p in grid)
        devs[nbar] = abs(best - nbar) / nbar
    cfi_ok = all(v < 1e-4 for v in devs.values())

    # (b) weighted total parity information never beats the plain MZI
    nbar, gain, T = 1.0, 1.1, 0.95
    r = math.acosh(math.sqrt(gain))

    @functools.lru_cache(maxsize=512)
    def pair(phi: float):
        squeezed = ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))
        joint = wg.tensor_exprs(wg.from_gaussian(ga.thermal_state(nbar)), wg.from_gaussian(squeezed))
        s, f = (ref.herald(joint, 1, ("BS", T), 0, 1, click=c)[0] for c in (False, True))
        mzi = sym.SymplecticTransform(sym.mzi_matrix(phi))
        return (
            (s[1], ref.parity(ref.apply_symplectic(s[0], mzi), 2).mean),
            (f[1], ref.parity(ref.apply_symplectic(f[0], mzi), 2).mean),
        )

    branch_fns = [
        (lambda p: pair(p)[0][0], lambda p: pair(p)[0][1]),
        (lambda p: pair(p)[1][0], lambda p: pair(p)[1][1]),
    ]

    @functools.lru_cache(maxsize=512)
    def plain_parity(phi: float) -> float:
        state = ga.propagate(
            ga.tensor([ga.thermal_state(nbar), ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))]),
            sym.SymplecticTransform(sym.mzi_matrix(phi))
        )
        return ref.parity(state, 2).mean

    parity_ok = True
    margin = math.inf
    for phi in np.linspace(0.05, 0.8, 50):
        i_tot = ref.total_parity_information(branch_fns, float(phi))
        i_plain = ref.total_parity_information([(lambda p: 1.0, plain_parity)], float(phi))
        margin = min(margin, i_plain - i_tot)
        if i_tot > i_plain * (1.0 + 1e-9):
            parity_ok = False
    ok = cfi_ok and parity_ok
    report(
        "criterion 7 (post-selection no-free-lunch)",
        ok,
        f"click-CFI rel devs {devs[2.0]:.2e}/{devs[4.0]:.2e}, min info margin {margin:.3e}",
    )


def _compare_state(expr: wg.WignerExpr, mix: Mixture, modes, n_max: int = 40) -> float:
    worst = 0.0
    for mode in modes:
        dist = wg.photon_number_distribution(expr, mode, n_max)
        want = mix.number_distribution(mode)
        upto = min(n_max + 1, want.size)
        worst = max(worst, float(np.max(np.abs(dist.probs[:upto] - want[:upto]))))
        worst = max(worst, abs(ref.parity(expr, mode).mean - mix.parity_mean(mode)))
        nm, n2 = mix.number_moments(mode)
        got = meas.intensity(expr, mode)
        worst = max(worst, abs(got.mean - nm), abs(got.variance - (n2 - nm**2)))
        worst = max(worst, abs(ref.click_probability(expr, mode) - mix.click_probability(mode)))
    return worst


def test_criterion_8_oracle_equivalence():
    worst = 0.0
    # single-mode families, up to the full 6-photon budget
    singles = [
        ("vacuum", wg.from_gaussian(ga.vacuum_state(1)), [("vacuum",)], 40),
        ("coherent-1", wg.from_gaussian(ga.coherent_state(1.0, 0.0)), [("coherent", 1.0)], 60),
        ("coherent-4", wg.from_gaussian(ga.coherent_state(2.0, 0.0)), [("coherent", 2.0)], 70),
        ("thermal-2", wg.from_gaussian(ga.thermal_state(2.0)), [("thermal", 2.0)], 120),
        ("thermal-6", wg.from_gaussian(ga.thermal_state(6.0)), [("thermal", 6.0)], 220),
        ("fock-1", wg.fock_wigner(1), [("fock", 1)], 30),
        ("squeezed-0.8", wg.from_gaussian(ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.8, 0.0))),
         [("squeezed", 0.8)], 90),
    ]
    for name, expr, spec, dim in singles:
        mix = Mixture.from_product(Oracle([dim]), spec)
        worst = max(worst, _compare_state(expr, mix, [1]))

    # heralded single-mode states
    spacs = ref.herald(wg.from_gaussian(ga.coherent_state(1.0, 0.0)), 1, ("BS", 0.9), 1, 0)[0]
    orc = Oracle([50, 8])
    m = Mixture.from_product(orc, [("coherent", 1.0), ("fock", 1)]).apply(orc.bs(2, 1, 0.9))
    red, _ = m.herald_fock(2, 0)
    worst = max(worst, _compare_state(spacs[0], red, [1]))

    spsts = ref.herald(wg.from_gaussian(ga.thermal_state(2.0)), 1, ("BS", 0.9), 0, 1)[0]
    orc = Oracle([110, 16])
    m = Mixture.from_product(orc, [("thermal", 2.0), ("vacuum",)]).apply(orc.bs(2, 1, 0.9))
    red, _ = m.herald_fock(2, 1)
    worst = max(worst, _compare_state(spsts[0], red, [1]))

    # two-mode families through the interferometer
    orc = Oracle([60, 60])
    mix = Mixture.from_product(orc, [("thermal", 2.0), ("vacuum",)]).apply(orc.mzi(0.9))
    out = ga.propagate(ga.tensor([ga.thermal_state(2.0), ga.vacuum_state(1)]),
                       sym.SymplecticTransform(sym.mzi_matrix(0.9)))
    worst = max(worst, _compare_state(wg.from_gaussian(out), mix, [1, 2]))

    orc = Oracle([35, 35])
    mix = Mixture.from_product(orc, [("coherent", 1.0), ("squeezed", 0.6)]).apply(orc.mzi(0.7))
    out = ga.propagate(
        ga.tensor([ga.coherent_state(1.0, 0.0), ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.6, 0.0))]),
        sym.SymplecticTransform(sym.mzi_matrix(0.7))
    )
    worst = max(worst, _compare_state(wg.from_gaussian(out), mix, [1, 2]))

    report("criterion 8 (truncated Fock oracle equivalence)", worst < 1e-6, f"worst abs dev {worst:.2e}")


def test_criterion_9_non_gaussian_signatures():
    spacs = ref.herald(wg.from_gaussian(ga.coherent_state(math.sqrt(0.1225), 0.0)), 1, ("BS", 0.95), 1, 0)[0]
    xs = np.linspace(-2.5, 2.5, 51)
    wmin = min(ref.evaluate(spacs[0], (x, p)) for x in xs for p in xs)

    spsts = ref.herald(wg.from_gaussian(ga.thermal_state(2.0)), 1, ("BS", 0.95), 0, 1)[0]
    w0 = ref.evaluate(spsts[0], (0.0, 0.0))
    dip = all(
        ref.evaluate(spsts[0], pt) > w0
        for d in (0.3, 0.6)
        for pt in ((d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d))
    )
    ok = wmin < 0.0 and dip
    report("criterion 9 (SPACS negativity, SPSTS origin dip)", ok, f"SPACS min {wmin:.4e}, dip {dip}")


def test_criterion_10_simulated_data_protocol():
    # fixed seed realizing the typical protocol run; a 3-sigma kept-count
    # outlier among 38 binomial draws occurs for ~10% of seeds
    trials, seed = 3600, 42
    t_grid = [round(0.05 * k, 2) for k in range(1, 20)]
    rms = {}
    kept_ok = True
    for m in (1, 3):
        cfg = sc.ScenarioConfig.from_dict(
            {
                "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
                "modifications": [
                    {"op": "add", "stage": "output", "mode": 1, "m": m, "mechanism": "bs", "T": 0.9}
                ],
                "interferometer": {"phi": 0.0},
                "detection": [],
                "metrics": ["snr"],
            }
        )
        rep = sc.simulate_counts(cfg, trials=trials, seed=seed, t_grid=t_grid)
        sq, n = 0.0, 0
        for row in rep.rows:
            p = row["herald_probability"]
            sd = math.sqrt(trials * p * (1.0 - p))
            if abs(row["kept"] - trials * p) > 3.0 * sd + 1e-9:
                kept_ok = False
            if "sample_mean" in row:
                sq += (row["sample_mean"] - row["theory_mean"]) ** 2
                n += 1
        rms[m] = math.sqrt(sq / n)
    ok = rms[1] < rms[3] and kept_ok
    report(
        "criterion 10 (simulated counting protocol)",
        ok,
        f"rms m=1 {rms[1]:.4f} < rms m=3 {rms[3]:.4f}, kept within 3 sigma {kept_ok}",
    )


def test_criterion_11_determinism_and_invariants(tmp_path):
    cfg = sc.ScenarioConfig.from_dict(
        {
            "inputs": [{"kind": "thermal", "nbar": 2.0}, {"kind": "vacuum"}],
            "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": 1, "T": 0.9}],
            "interferometer": {"phi": 0.4},
            "detection": [{"scheme": "click", "mode": 1}],
            "metrics": ["cfi", "snr", "distributions"],
        }
    )
    d1, d2 = tmp_path / "a", tmp_path / "b"
    sc.emit(sc.simulate_counts(cfg, trials=400, seed=7, t_grid=[0.5, 0.9]), str(d1))
    sc.emit(sc.simulate_counts(cfg, trials=400, seed=7, t_grid=[0.5, 0.9]), str(d2))
    deterministic = all(
        (d1 / f).read_bytes() == (d2 / f).read_bytes() for f in ("report.json", "results.csv")
    )

    # compact 200-case randomized invariant sweep (the per-module property
    # tests in test_symplectic/test_gaussian/test_measurements/test_estimation
    # carry the full set)
    rng = np.random.default_rng(11)
    invariants_ok = True
    om = sym.omega(2)
    for _ in range(200):
        phi = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(0, 1)
        r = rng.uniform(0, 1)
        f = sym.SymplecticTransform(sym.embed(sym.make_squeezer(r, 0.3), [1], 2).matrix
                                    @ ref.symmetric_phase_matrix(phi) @ sym.beam_splitter_matrix(t))
        if np.max(np.abs(f.matrix @ om @ f.matrix.T - om)) > 1e-10:
            invariants_ok = False
        state = ga.propagate(ga.tensor([ga.coherent_state(rng.uniform(0, 1.5), 0.0), ga.thermal_state(rng.uniform(0, 2))]), f)
        w = wg.from_gaussian(state)
        if abs(w.norm - 1.0) > 1e-9:
            invariants_ok = False
        if np.linalg.eigvalsh(state.cov)[0] <= 0:
            invariants_ok = False
    ok = deterministic and invariants_ok
    report(
        "criterion 11 (byte determinism and randomized invariants)",
        ok,
        f"deterministic {deterministic}, invariants {invariants_ok}",
    )
