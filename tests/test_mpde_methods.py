"""Cross-validation of the MPDE method family (paper sec. 2.2).

The strongest correctness argument for the multi-time engines is that
four independent discretizations — two-tone HB, MFDTD, MMFT, and
hierarchical shooting — agree on the same circuit, and all agree with
brute-force univariate shooting where that is affordable.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.analysis import dc_analysis, shooting_analysis
from repro.hb import FrequencyDomainBlock, harmonic_balance, hb_grid
from repro.mpde import (
    Axis,
    MPDEGrid,
    MPDEOptions,
    envelope_analysis,
    hierarchical_shooting,
    solve_mfdtd,
    solve_mmft,
)
from repro.mpde.mpde_core import _MPDEProblem
from repro.netlist import Circuit, Sine
from repro.rf import ModulatorSpec, quadrature_modulator


def small_mixer(f_rf=100e3, f_lo=10e6):
    """Scaled-down switch mixer (fast to solve with every method)."""
    ckt = Circuit("mini mixer")
    ckt.vsource("Vrf", "rf", "0", Sine(0.1, f_rf))
    ckt.vsource("Vlo", "lo", "0", Sine(1.0, f_lo))
    ckt.resistor("Rs", "rf", "a", 50.0)
    ckt.switch("S1", "a", "out", "lo", "0", g_on=1e-2, g_off=1e-8, sharpness=10.0)
    ckt.resistor("RL", "out", "0", 1e3)
    ckt.capacitor("CL", "out", "0", 20e-12)
    return ckt.compile()


@pytest.fixture(scope="module")
def mixer_system():
    return small_mixer()


@pytest.fixture(scope="module")
def hb_reference(mixer_system):
    hb = harmonic_balance(mixer_system, freqs=[100e3, 10e6], harmonics=[3, 8])
    return hb.amplitude_at("out", (1, 1))


class TestMethodAgreement:
    def test_mmft_matches_hb(self, mixer_system, hb_reference):
        mm = solve_mmft(mixer_system, 100e3, 10e6, slow_harmonics=3, fast_steps=128, fd_order=2)
        np.testing.assert_allclose(
            mm.mix_amplitude("out", 1, 1), hb_reference, rtol=2e-2
        )

    def test_mfdtd_matches_hb(self, mixer_system, hb_reference):
        sol = solve_mfdtd(mixer_system, freqs=[100e3, 10e6], sizes=[16, 128], order=2)
        H = np.fft.fft2(sol.grid_waveform("out")) / (16 * 128)
        amp = 2 * abs(H[1, 1])
        np.testing.assert_allclose(amp, hb_reference, rtol=5e-2)

    def test_hierarchical_shooting_matches_hb(self, mixer_system, hb_reference):
        hs = hierarchical_shooting(
            mixer_system, 100e3, 10e6, slow_steps=24, fast_steps=64
        )
        np.testing.assert_allclose(
            hs.mix_amplitude("out", 1, 1), hb_reference, rtol=5e-2
        )

    def test_univariate_shooting_matches_hb(self, hb_reference):
        # smaller scale separation so brute force stays cheap: 100 kHz/2 MHz
        sys = small_mixer(f_lo=2e6)
        hb = harmonic_balance(sys, freqs=[100e3, 2e6], harmonics=[3, 8])
        ref = hb.amplitude_at("out", (1, 1))
        sh = shooting_analysis(sys, period=1e-5, steps_per_period=2000)
        v = sh.voltage(sys, "out")
        t = sh.t[:-1]
        comp = np.mean(v[:-1] * np.exp(-2j * np.pi * 2.1e6 * t))
        np.testing.assert_allclose(2 * abs(comp), ref, rtol=3e-2)


class TestMFDTDProperties:
    def test_converges_with_grid_refinement(self, mixer_system, hb_reference):
        errs = []
        for n2 in (32, 128):
            sol = solve_mfdtd(mixer_system, freqs=[100e3, 10e6], sizes=[8, n2], order=1)
            H = np.fft.fft2(sol.grid_waveform("out")) / (8 * n2)
            errs.append(abs(2 * abs(H[1, 1]) - hb_reference))
        assert errs[1] < errs[0]

    def test_residual_converged(self, mixer_system):
        sol = solve_mfdtd(mixer_system, freqs=[100e3, 10e6], sizes=[8, 32])
        assert sol.residual_norm < 1e-8


class TestMMFTProperties:
    def test_time_varying_harmonic_periodic(self, mixer_system):
        mm = solve_mmft(mixer_system, 100e3, 10e6, slow_harmonics=3, fast_steps=64)
        X1 = mm.time_varying_harmonic("out", 1)
        assert X1.shape == (64,)
        # harmonics are conjugate-symmetric in the slow index
        Xm1 = mm.time_varying_harmonic("out", -1)
        np.testing.assert_allclose(X1, np.conj(Xm1), atol=1e-12)

    def test_more_slow_harmonics_refine(self, mixer_system, hb_reference):
        # refinement in the slow Fourier order must not move the answer
        # away from the converged reference (it saturates once the fast
        # axis dominates the residual error)
        errs = [
            abs(
                solve_mmft(mixer_system, 100e3, 10e6, h, 64).mix_amplitude("out", 1, 1)
                - hb_reference
            )
            for h in (1, 3, 5)
        ]
        assert errs[1] <= errs[0] * 1.05 + 1e-12
        assert errs[2] <= errs[0] * 1.05 + 1e-12


class TestEnvelope:
    def test_rc_charging_envelope(self):
        """Carrier amplitude envelope follows the RC charging curve."""
        ckt = Circuit()
        ckt.vsource("V1", "in", "0", Sine(1.0, 10e6))
        ckt.resistor("R1", "in", "out", 1e3)
        ckt.capacitor("C1", "out", "0", 10e-9)
        sys = ckt.compile()
        env = envelope_analysis(
            sys, fast_freq=10e6, t_stop=40e-6, dt=2e-6, fast_steps=16, initial="dc"
        )
        e = env.harmonic_envelope("out", 1)
        w = 2 * np.pi * 10e6
        steady = 1.0 / np.sqrt(1 + (w * 1e3 * 10e-9) ** 2)
        assert e[0] < 0.1 * steady
        np.testing.assert_allclose(e[-1], steady, rtol=5e-2)

    def test_periodic_initial_condition_stays_steady(self):
        # with no slow modulation, the fast-PSS initial condition is the
        # exact solution and the envelope must not drift
        ckt = Circuit()
        ckt.vsource("V1", "in", "0", Sine(1.0, 10e6))
        ckt.resistor("R1", "in", "out", 1e3)
        ckt.capacitor("C1", "out", "0", 10e-9)
        sys = ckt.compile()
        env = envelope_analysis(
            sys, fast_freq=10e6, t_stop=5e-6, dt=1e-6,
            fast_steps=16, initial="periodic",
        )
        e = env.harmonic_envelope("out", 1)
        np.testing.assert_allclose(e, e[0], rtol=1e-3)

    def test_invalid_initial_rejected(self, mixer_system):
        with pytest.raises(ValueError):
            envelope_analysis(mixer_system, 10e6, 1e-6, 0.5e-6, initial="warm")


# --- averaged-circuit preconditioner -----------------------------------


def _fig1_case():
    spec = ModulatorSpec()
    grid = hb_grid([spec.f_bb, spec.f_ref], [3, 10])
    return quadrature_modulator(spec), grid, None


def _fd_block_case():
    """Diode stage loaded by a coupled two-port known only as Y(omega)."""
    ckt = Circuit("fd-block stage")
    ckt.vsource("V1", "in", "0", Sine(0.5, 1e6))
    ckt.resistor("Rs", "in", "mid", 100.0)
    ckt.diode("D1", "mid", "out")
    ckt.resistor("Rl", "out", "0", 1e3)
    system = ckt.compile()

    def admittance(omega):
        jwc = 1j * np.atleast_1d(omega) * 2e-9
        return np.stack(
            [np.stack([5e-3 + jwc, -jwc], -1), np.stack([-jwc, 1e-3 + jwc], -1)], -2
        )

    blk = FrequencyDomainBlock(
        ports=[system.node("mid"), system.node("out")], admittance=admittance
    )
    grid = MPDEGrid([Axis("fourier", 1e6, 8), Axis("fourier", 1.3e6, 9)])
    return system, grid, [blk]


PRECOND_CASES = {
    "fig1-modulator": _fig1_case,
    "fourier-odd-last-axis": lambda: (
        small_mixer(),
        MPDEGrid([Axis("fourier", 100e3, 8), Axis("fourier", 10e6, 15)]),
        None,
    ),
    "mfdtd-fd-fd2": lambda: (
        small_mixer(),
        MPDEGrid([Axis("fd", 100e3, 8), Axis("fd2", 10e6, 16)]),
        None,
    ),
    "mmft-fourier-fd": lambda: (
        small_mixer(),
        MPDEGrid([Axis("fourier", 100e3, 7), Axis("fd", 10e6, 16)]),
        None,
    ),
    "fd-block": _fd_block_case,
}


def _linearized(case, seed=0):
    """Problem, averaged-circuit Jacobian values and a real test vector."""
    system, grid, fd_blocks = PRECOND_CASES[case]()
    prob = _MPDEProblem(system, grid, fd_blocks, MPDEOptions())
    rng = np.random.default_rng(seed)
    size = system.n * grid.total
    x = np.tile(dc_analysis(system).x, grid.total) + 0.05 * rng.standard_normal(size)
    _, _, g_vals, c_vals = prob.batch_matrices(x)
    return prob, g_vals, c_vals, rng.standard_normal(size)


def _reference_preconditioner(prob, g_vals, c_vals, v, trans=0):
    """Full spectrum, one ``lu_solve`` per frequency block."""
    n, m = prob.n, prob.m
    rows, cols = prob.pattern
    G_avg = np.zeros((n, n))
    C_avg = np.zeros((n, n))
    np.add.at(G_avg, (rows, cols), g_vals.mean(axis=1))
    np.add.at(C_avg, (rows, cols), c_vals.mean(axis=1))
    lam = prob.grid.combined_eigenvalues().ravel()
    axes = tuple(range(prob.grid.ndim))
    spec = np.fft.fftn(prob.grid.reshape(v.astype(complex), n), axes=axes)
    spec = spec.reshape(m, n)
    for k in range(m):
        A = lam[k] * C_avg + G_avg
        for blk, Y in zip(prob.fd_blocks, prob._fd_Y):
            A[np.ix_(blk.ports, blk.ports)] += Y[k]
        spec[k] = sla.lu_solve(sla.lu_factor(A), spec[k], trans=trans)
    out = np.fft.ifftn(spec.reshape(prob.grid.shape + (n,)), axes=axes)
    return np.real(out).reshape(-1)


class TestAveragedPreconditioner:
    """The stacked half-spectrum preconditioner equals the per-block
    full-spectrum solve it replaces, forward and adjoint."""

    @pytest.mark.parametrize("case", sorted(PRECOND_CASES))
    @pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
    def test_matches_per_block_reference(self, case, adjoint):
        prob, g_vals, c_vals, v = _linearized(case)
        got = prob.averaged_preconditioner(g_vals, c_vals, adjoint=adjoint)(v)
        want = _reference_preconditioner(
            prob, g_vals, c_vals, v, trans=2 if adjoint else 0
        )
        assert got.dtype == np.float64 and got.shape == v.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_adjoint_is_transpose(self):
        prob, g_vals, c_vals, v = _linearized("mmft-fourier-fd")
        w = np.random.default_rng(1).standard_normal(v.size)
        fwd = prob.averaged_preconditioner(g_vals, c_vals)
        adj = prob.averaged_preconditioner(g_vals, c_vals, adjoint=True)
        np.testing.assert_allclose(w @ fwd(v), adj(w) @ v, rtol=1e-12)

    def test_singular_blocks_warn_and_go_non_finite(self):
        """An all-zero averaged circuit must not raise: it warns, and the
        non-finite output stalls GMRES into the direct fallback."""
        prob, g_vals, c_vals, v = _linearized("fourier-odd-last-axis")
        with pytest.warns(sla.LinAlgWarning):
            pc = prob.averaged_preconditioner(
                np.zeros_like(g_vals), np.zeros_like(c_vals)
            )
        with np.errstate(invalid="ignore"):
            out = pc(v)
        assert not np.all(np.isfinite(out))
