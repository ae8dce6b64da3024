"""The point-evaluation memo and frozen parameter columns of MNASystem.

``MNASystem.f/q/G/C`` at one point share a single evaluation of every
nonlinear group, cached until the point or a device parameter changes;
batched groups read their parameters from ``(d, 1)`` columns frozen at
compile time.  These tests pin down that the caching is invisible:
parameter writes, in-place mutation and concurrent callers all see the
same numbers a fresh compile would give.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

import repro.analysis.transient as transient_mod
from repro.analysis import dc_analysis, transient_analysis
from repro.netlist import Circuit, Diode, Sine
from repro.netlist.mna import _NLGroup

MODES = ["vectorized", "scalar"]


def _cubic_i(v):
    return 1e-4 * v**3


def _cubic_g(v):
    return 3e-4 * v**2


def _mixed(isat=1e-14, tt=1e-9, vth=0.5, g_on=1e-2, r1=1e3):
    """Every nonlinear family at once, plus a per-device (solo) element."""
    ckt = Circuit("mixed nonlinear")
    ckt.vsource("V1", "in", "0", Sine(0.5, 1e6, offset=0.7))
    ckt.vsource("VDD", "vdd", "0", 2.0)
    ckt.resistor("R1", "in", "a", r1)
    ckt.diode("D1", "a", "0", isat=isat, tt=tt, cj0=1e-12)
    ckt.diode("D2", "a", "b", isat=2e-14)
    ckt.resistor("RC", "vdd", "c", 2e3)
    ckt.bjt("Q1", "c", "a", "e", tf=1e-10, cje=1e-12)
    ckt.resistor("RE", "e", "0", 200.0)
    ckt.resistor("RD", "vdd", "d", 5e3)
    ckt.mosfet("M1", "d", "b", "0", vth=vth, cgs=1e-13, cgd=2e-14)
    ckt.switch("S1", "d", "b", "in", "0", g_on=g_on)
    ckt.resistor("RB", "b", "0", 1e4)
    ckt.nonlinear_resistor("N1", "c", "0", _cubic_i, _cubic_g)
    return ckt


def _point(system, seed=0):
    return np.random.default_rng(seed).uniform(-0.3, 0.9, system.n)


def _terms(system, x):
    return (
        system.f(x),
        system.q(x),
        system.G(x).toarray(),
        system.C(x).toarray(),
    )


def _assert_same(got, want):
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_set_param_at_same_point_matches_fresh_compile(mode):
    ckt = _mixed()
    system = ckt.compile(vectorize=mode)
    x = _point(system)
    before = _terms(system, x)
    ckt["D1"].set_param("isat", 3e-14)
    ckt["D1"].set_param("tt", 2e-9)
    after = _terms(system, x)
    _assert_same(after, _terms(_mixed(isat=3e-14, tt=2e-9).compile(vectorize=mode), x))
    assert not np.array_equal(after[0], before[0])
    assert not np.array_equal(after[2], before[2])
    assert not np.array_equal(after[1], before[1])


@pytest.mark.parametrize("mode", MODES)
def test_direct_attribute_assignment_matches_fresh_compile(mode):
    ckt = _mixed()
    system = ckt.compile(vectorize=mode)
    x = _point(system)
    before = _terms(system, x)
    ckt["M1"].vth = 0.3
    ckt["S1"].g_on = 5e-2
    after = _terms(system, x)
    _assert_same(after, _terms(_mixed(vth=0.3, g_on=5e-2).compile(vectorize=mode), x))
    assert not np.array_equal(after[0], before[0])
    assert not np.array_equal(after[2], before[2])


def test_linear_change_with_refresh_stamps_matches_fresh_compile():
    ckt = _mixed()
    system = ckt.compile()
    x = _point(system)
    system.f(x)
    ckt["R1"].set_param("resistance", 2e3)
    system.refresh_stamps()
    _assert_same(_terms(system, x), _terms(_mixed(r1=2e3).compile(), x))


@pytest.mark.parametrize("mode", MODES)
def test_in_place_mutation_never_leaks(mode):
    system = _mixed().compile(vectorize=mode)
    ref = _mixed().compile(vectorize=mode)
    x = _point(system)
    want = _terms(ref, x)
    # mutate every returned object, then ask again at the same point
    f, q, G, C = system.f(x), system.q(x), system.G(x), system.C(x)
    f[:] = 0.0
    q[:] = 0.0
    G.data[:] = 0.0
    C.data[:] = 0.0
    _assert_same(_terms(system, x), want)
    # mutate the caller's x in place: the memo must not answer for it
    x[0] += 0.125
    _assert_same(_terms(system, x), _terms(ref, x))
    # an (n, 1) column is the same point as its 1-D vector
    col = x[:, None].copy()
    assert system.f(col).shape == (system.n, 1)
    assert system.f(col)[:, 0].tobytes() == system.f(x).tobytes()


def test_threads_sharing_one_system_get_their_own_points():
    system = _mixed().compile()
    ref = _mixed().compile()
    points = [_point(system, seed) for seed in range(4)]
    want = [_terms(ref, x) for x in points]
    errors = []
    barrier = threading.Barrier(len(points))
    evals_here = system.device_evals

    def work(k):
        barrier.wait()
        for _ in range(60):
            got = _terms(system, points[k])
            for a, b in zip(got, want[k]):
                if a.tobytes() != b.tobytes():
                    errors.append(k)
                    return

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(points))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # evaluation counts are kept per thread
    assert system.device_evals == evals_here


def test_pickle_round_trip_starts_with_an_empty_memo():
    system = _mixed().compile()
    x = _point(system)
    want = _terms(system, x)
    assert system._memo is not None
    clone = pickle.loads(pickle.dumps(system))
    assert clone._memo is None
    _assert_same(_terms(clone, x), want)


def test_parameter_columns_are_frozen_until_a_write():
    ckt = _mixed()
    system = ckt.compile()
    diodes = next(g for g in system._nl_groups if g.cls.__name__ == "Diode")
    cols = diodes.params()
    assert diodes.params() is cols
    assert not cols["isat"].flags.writeable
    assert cols["isat"].shape == (2, 1)
    ckt["D2"].set_param("isat", 5e-14)
    fresh = diodes.params()
    assert fresh is not cols
    assert fresh["isat"][1, 0] == 5e-14


def _ladder(stages=6, vectorize=None):
    ckt = Circuit("diode ladder")
    ckt.vsource("V1", "n0", "0", Sine(0.8, 10e6))
    ckt.vsource("Vb", "vb", "0", 0.3)
    for k in range(stages):
        ckt.resistor(f"R{k}", f"n{k}", f"n{k+1}", 150.0)
        ckt.diode(f"D{k}", f"n{k+1}", "0", isat=1e-13)
        ckt.resistor(f"Rb{k}", "vb", f"n{k+1}", 5e3)
        ckt.capacitor(f"C{k}", f"n{k+1}", "0", 3e-12)
    return ckt.compile(vectorize=vectorize)


@pytest.mark.parametrize("mode", MODES)
def test_transient_evaluates_devices_once_per_residual(monkeypatch, mode):
    stages = 6
    system = _ladder(stages, vectorize=mode)
    x0 = dc_analysis(system).x
    counts = {"group": 0, "diode": 0, "residual": 0}

    real_eval = _NLGroup.eval

    def counting_eval(self, x2d):
        counts["group"] += 1
        return real_eval(self, x2d)

    real_nl_eval = Diode.nl_eval

    def counting_nl_eval(self, V):
        counts["diode"] += 1
        return real_nl_eval(self, V)

    real_newton = transient_mod.newton_solve

    def counting_newton(residual, *args, **kwargs):
        def counted(x):
            counts["residual"] += 1
            return residual(x)

        return real_newton(counted, *args, **kwargs)

    monkeypatch.setattr(_NLGroup, "eval", counting_eval)
    monkeypatch.setattr(Diode, "nl_eval", counting_nl_eval)
    monkeypatch.setattr(transient_mod, "newton_solve", counting_newton)
    res = transient_analysis(system, 2e-8, 2.5e-10, x0=x0)
    steps = len(res.t) - 1
    assert steps == 80 and counts["residual"] > steps
    # one device group (the diodes): a pass is one group evaluation on
    # the vectorized path and one nl_eval per diode on the scalar path
    assert len(system._nl_groups) == 1
    if mode == "vectorized":
        passes = counts["group"]
    else:
        assert counts["diode"] % stages == 0
        passes = counts["diode"] // stages
    # the extra 1 is the initial C(x0)
    assert 0 < passes <= counts["residual"] + steps + 1
    perf = res.report.perf
    assert perf["device_evals"] == passes
    assert perf["device_eval_hits"] > 2 * perf["device_evals"]


def test_dc_report_counts_device_evaluations():
    res = dc_analysis(_ladder())
    assert res.report.perf["device_evals"] >= res.iterations
    assert res.report.perf["device_eval_hits"] > 0
