"""Performance layer: transient LU reuse across timesteps.

The factor cache (``repro.perf``) lets the transient loop hold the LU of
the companion matrix ``C/h + alpha G`` while the stepsize is unchanged,
serving modified-Newton iterations from a stale factorization with a
fail-closed refresh policy.  Two workloads bound the win:

* a post-layout style interconnect (large linear RC network, a few
  diode clamps) — the Jacobian barely moves, so reuse approaches the
  "factor once" limit and the speedup is the assembly+factorization
  cost of every skipped step;
* a strongly nonlinear diode ladder — stale factors degrade the Newton
  contraction rate, and the step-level invalidation policy
  (``reuse_iter_threshold``) must keep reuse from becoming a loss.

Both runs must return the same trajectory with reuse on and off: the
residual stays exact, only the iteration matrix is stale.
"""

import os
import time

import numpy as np

from repro.analysis import transient_analysis
from repro.netlist import Circuit, Sine
from repro.perf import sweep_map

from conftest import backend_sweep_timings, report, write_bench_json


def interconnect(stages=200, clamps=4):
    """Mostly linear RC line with a few diode clamps (post-layout style)."""
    ckt = Circuit("RC interconnect with diode clamps")
    ckt.vsource("V1", "n0", "0", Sine(0.5, 10e6))
    for k in range(stages):
        ckt.resistor(f"R{k}", f"n{k}", f"n{k+1}", 25.0)
        ckt.capacitor(f"C{k}", f"n{k+1}", "0", 0.5e-12)
    for d in range(clamps):
        node = f"n{(d + 1) * stages // clamps}"
        ckt.diode(f"D{d}", node, "0", isat=1e-14)
    return ckt.compile()


def diode_ladder(stages=20):
    """Every stage nonlinear: the hard case for stale factorizations."""
    ckt = Circuit(f"{stages}-stage diode RC ladder")
    ckt.vsource("V1", "n0", "0", Sine(0.8, 10e6))
    ckt.vsource("Vb", "vb", "0", 0.3)
    for k in range(stages):
        ckt.resistor(f"R{k}", f"n{k}", f"n{k+1}", 150.0)
        ckt.diode(f"D{k}", f"n{k+1}", "0", isat=1e-13)
        ckt.resistor(f"Rb{k}", "vb", f"n{k+1}", 5e3)
        ckt.capacitor(f"C{k}", f"n{k+1}", "0", 3e-12)
    return ckt.compile()


class _CornerTransient:
    """Picklable Monte-Carlo-corner transient task for the sweep matrix.

    Each corner rebuilds the ladder at its own bias — a pure function of
    the bias value, so the sweep is bit-identical across executors.
    """

    __slots__ = ("stages", "t_stop", "dt")

    def __init__(self, stages, t_stop, dt):
        self.stages = stages
        self.t_stop = t_stop
        self.dt = dt

    def __call__(self, bias):
        ckt = Circuit("corner ladder")
        ckt.vsource("V1", "n0", "0", Sine(0.8, 10e6))
        ckt.vsource("Vb", "vb", "0", float(bias))
        for k in range(self.stages):
            ckt.resistor(f"R{k}", f"n{k}", f"n{k+1}", 150.0)
            ckt.diode(f"D{k}", f"n{k+1}", "0", isat=1e-13)
            ckt.resistor(f"Rb{k}", "vb", f"n{k+1}", 5e3)
            ckt.capacitor(f"C{k}", f"n{k+1}", "0", 3e-12)
        res = transient_analysis(ckt.compile(), self.t_stop, self.dt)
        return res.X


def _timed_pair(system, t_stop, dt):
    """(result, seconds) for reuse off and on; trajectories must agree."""
    out = {}
    for reuse in (False, True):
        t0 = time.perf_counter()
        res = transient_analysis(system, t_stop, dt, reuse_lu=reuse)
        out[reuse] = (res, time.perf_counter() - t0)
    res_off, res_on = out[False][0], out[True][0]
    assert res_off.converged and res_on.converged
    # trajectories agree to the per-step Newton tolerance (steps may
    # exit with residual up to 1e3*abstol, so bit-identity is not
    # expected — only tolerance-level agreement)
    np.testing.assert_allclose(res_on.X, res_off.X, rtol=1e-3, atol=1e-6)
    return out


def test_transient_lu_reuse(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    records = {}
    results = []
    for name, system, t_stop, dt in (
        ("interconnect", interconnect(), 2e-7, 2e-10),
        ("diode-ladder", diode_ladder(), 1e-7, 2.5e-10),
    ):
        pair = _timed_pair(system, t_stop, dt)
        (res_off, t_off), (res_on, t_on) = pair[False], pair[True]
        perf = res_on.report.perf
        speedup = t_off / t_on
        rows.append(
            (
                name,
                t_off,
                t_on,
                speedup,
                perf["factor_hits"],
                f"{perf['factor_hit_rate']:.3f}",
                perf["jacobian_evals_saved"],
            )
        )
        records[name] = {
            "wall_off": t_off,
            "wall_on": t_on,
            "speedup": speedup,
            "factor_hits": perf["factor_hits"],
            "factor_misses": perf["factor_misses"],
            "factor_hit_rate": perf["factor_hit_rate"],
            "jacobian_evals_saved": perf["jacobian_evals_saved"],
            "newton_iterations": res_on.newton_iterations,
        }
        results.extend([res_off, res_on])

    report(
        "Transient LU reuse (modified Newton across timesteps)",
        rows,
        header=("circuit", "off [s]", "on [s]", "speedup", "hits", "hit rate", "saved"),
        notes=("identical trajectories asserted; reuse invalidated on slow steps",),
    )

    # the near-linear workload must show a real measured win and an
    # almost perfect hit rate; the all-nonlinear ladder must at least
    # not regress (the invalidation policy earns its keep there)
    assert records["interconnect"]["speedup"] >= 1.15
    assert records["interconnect"]["factor_hits"] > 0
    assert records["interconnect"]["factor_hit_rate"] > 0.9
    assert records["diode-ladder"]["speedup"] >= 0.9
    assert records["diode-ladder"]["factor_hits"] > 0

    # Monte-Carlo corner sweep through the executor backends: eight
    # bias corners of a 10-stage ladder, identical trajectories
    # demanded across serial / thread / process at 4 workers.  A whole
    # sweep takes only ~0.5 s serially, so each backend's wall is the
    # best of three runs over the same corners: one slow single shot
    # would otherwise decide the process-vs-serial gate below
    corners = [0.15 + 0.05 * k for k in range(8)]
    task = _CornerTransient(stages=10, t_stop=4e-8, dt=4e-10)
    workers = 4
    backends, outputs = backend_sweep_timings(
        lambda backend: sweep_map(task, corners, workers=workers, backend=backend),
        repeats=3,
    )
    for backend in ("thread", "process"):
        for ref, got in zip(outputs["serial"], outputs[backend]):
            assert np.array_equal(ref, got)

    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert backends["process"]["speedup_vs_serial"] >= 2.0
    elif cpus >= 2:
        assert backends["process"]["speedup_vs_serial"] >= 1.0

    report(
        f"Transient corner-sweep backend matrix (workers={workers}, cpus={cpus})",
        [
            (backend, rec["wall"], rec["speedup_vs_serial"])
            for backend, rec in backends.items()
        ],
        header=("backend", "wall [s]", "vs serial"),
        notes=("bit-identical trajectories asserted across all backends",),
    )

    write_bench_json(
        "perf_transient",
        results=results,
        extra={
            "circuits": records,
            "sweep": {
                "corners": len(corners),
                "workers": workers,
                "repeats": 3,
                "backends": backends,
                "identical": True,
            },
        },
    )
