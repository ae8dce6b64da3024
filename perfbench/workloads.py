"""The three benchmark workloads.

Each workload is a closed loop with one client: an op starts only after
the previous one finished.  Its inputs come from ``--seed`` alone, and
it runs in fixed-size *rounds* (one HB solve; one ``sweep_map`` call
over a fixed number of corners; a fresh service root with a fixed
number of jobs), so the shape of the work never depends on how fast the
program is -- only the number of rounds does.  See README.md for why
each workload was chosen and which layers it stresses.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import re
import resource
import shutil
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from repro.analysis import transient_analysis
from repro.hb import harmonic_balance
from repro.mpde.mpde_core import MPDEOptions
from repro.netlist import Circuit, Sine
from repro.perf import sweep_map
from repro.rf import ModulatorSpec, quadrature_modulator

from perfbench import reference, spans

NAMES = ("hb_modulator", "tran_corners", "serve_mixed")
NETLISTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "examples", "netlists")


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes; :data:`PAPER` is what the benchmark measures."""

    hb_harmonics: tuple = (3, 10)
    hb_windows: bool = True  # the Fig 1 dBc windows hold at paper size only
    ladder_stages: int = 20
    tran_t_stop: float = 1e-7
    tran_dt: float = 2.5e-10
    corners_per_round: int = 8
    jobs_per_round: int = 120
    #: outputs re-computed independently after the run (one candidate is
    #: kept per round, this many are drawn from them)
    checked: int = 2


PAPER = Sizes()
TINY = Sizes(hb_harmonics=(1, 8), hb_windows=False, ladder_stages=4,
             tran_t_stop=2e-8, corners_per_round=3, jobs_per_round=24)


@dataclasses.dataclass
class Round:
    """What one round did: per-op latencies and checks."""

    latencies: List[float]
    attempted: int
    failed: int
    #: result-derived per-op counts (factor hits/misses, steps, ...)
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: layer totals folded in sweep workers (tran_corners only)
    worker_totals: List[dict] = dataclasses.field(default_factory=list)
    #: peak RSS of the largest sweep worker, MiB
    child_rss_mb: float = 0.0
    #: per op, the mean of the reference-kernel times taken just before
    #: and just after it (see reference.py)
    units: List[float] = dataclasses.field(default_factory=list)
    #: seconds of the round's wall time spent in those reference passes
    ref_s: float = 0.0


def _add(d: Dict[str, float], key: str, n) -> None:
    d[key] = d.get(key, 0) + n


def _escalations(report) -> int:
    """Attempts beyond the first rung of a :class:`SolveReport`."""
    if report is None or not report.attempts:
        return 0
    counts = report.attempt_counts()
    return sum(counts.values()) - counts[report.attempts[0].strategy]


def _report_counts(out: Dict[str, float], report) -> None:
    if report is None:
        return
    perf = report.perf or {}
    _add(out, "factor_hits", perf.get("factor_hits", 0))
    _add(out, "factor_misses", perf.get("factor_misses", 0))
    _add(out, "robust.escalations", _escalations(report))


class _Op:
    """Context manager opening the ``bench.op`` span when traced."""

    def __init__(self, rec: Optional[spans.Recorder], op_id: int):
        self.rec, self.op_id, self.idx = rec, op_id, None

    def __enter__(self):
        if self.rec is not None:
            self.idx = self.rec.begin_op(self.op_id)
        return self

    def __exit__(self, *exc):
        if self.rec is not None:
            self.rec.end_op(self.idx)
        return False


# -- hb_modulator -------------------------------------------------------


class HBModulator:
    """Repeated Fig 1 two-tone HB solves of the modulator, GMRES path."""

    name = "hb_modulator"

    def __init__(self, seed: int, sizes: Sizes = PAPER):
        self.sizes = sizes
        self.rng = random.Random(f"hb_modulator:{seed}")
        self.opts = MPDEOptions(solver="gmres")

    def spec(self) -> ModulatorSpec:
        """Imbalance drawn from the seed, within 20 % of the defaults."""
        base = ModulatorSpec()
        u = lambda: self.rng.uniform(0.8, 1.2)  # noqa: E731
        return dataclasses.replace(
            base, gain_error=base.gain_error * u(),
            phase_error=base.phase_error * u(), bb_offset=base.bb_offset * u())

    def solve(self, spec: ModulatorSpec):
        system = quadrature_modulator(spec)
        return harmonic_balance(system, freqs=[spec.f_bb, spec.f_ref],
                                harmonics=list(self.sizes.hb_harmonics),
                                options=self.opts)

    def check(self, hb) -> bool:
        if not hb.converged or hb.solver != "gmres":
            return False
        image = hb.dbc("rfp", (-1, 8), (1, 8))
        lo = hb.dbc("rfp", (0, 8), (1, 8))
        if not (np.isfinite(image) and np.isfinite(lo)):
            return False
        if self.sizes.hb_windows:
            return -40.0 < image < -30.0 and -84.0 < lo < -72.0
        return True

    def setup(self) -> int:
        """Warm-up op: the nominal solve, which must sit in the Fig 1
        windows (image -40..-30 dBc, LO -84..-72 dBc).  Returns the number
        of failed checks."""
        return int(not self.check(self.solve(ModulatorSpec())))

    def run_round(self, r: int, rec: Optional[spans.Recorder]) -> Round:
        spec = self.spec()
        counts: Dict[str, float] = {}
        ok = False
        before = reference.seconds()
        with _Op(rec, r):
            t0 = time.perf_counter()
            try:
                hb = self.solve(spec)
            except Exception:
                hb = None
            wall = time.perf_counter() - t0
        after = reference.seconds()
        if hb is not None:
            ok = self.check(hb)
            _report_counts(counts, hb.report)
        return Round([wall], 1, 0 if ok else 1, counts,
                     units=[0.5 * (before + after)], ref_s=before + after)

    def verify(self) -> int:
        return 0


# -- tran_corners -------------------------------------------------------


def ladder(stages: int, bias: float, amp: float):
    """The bench_perf_transient diode RC ladder at one bias corner."""
    ckt = Circuit(f"{stages}-stage diode RC ladder")
    ckt.vsource("V1", "n0", "0", Sine(amp, 10e6))
    ckt.vsource("Vb", "vb", "0", bias)
    for k in range(stages):
        ckt.resistor(f"R{k}", f"n{k}", f"n{k+1}", 150.0)
        ckt.diode(f"D{k}", f"n{k+1}", "0", isat=1e-13)
        ckt.resistor(f"Rb{k}", "vb", f"n{k+1}", 5e3)
        ckt.capacitor(f"C{k}", f"n{k+1}", "0", 3e-12)
    return ckt.compile()


class CornerTask:
    """Picklable per-corner transient: build, compile, solve.

    Returns ``(X, info)``; ``X`` is what the serial cross-check compares
    bit for bit, ``info`` carries timing, worker pid/RSS, result-derived
    counts and, when traced, the worker's folded layer totals.
    """

    __slots__ = ("stages", "t_stop", "dt", "traced")

    def __init__(self, stages, t_stop, dt, traced=False):
        self.stages, self.t_stop, self.dt, self.traced = stages, t_stop, dt, traced

    def __call__(self, corner):
        index, bias, amp = corner
        rec = spans.current() if self.traced else None
        if self.traced and rec is None:
            raise RuntimeError("layer wrappers missing in the sweep worker")
        if rec is not None:
            rec.reset()
        before = reference.seconds()
        with _Op(rec, index):
            t0 = time.perf_counter()
            res = transient_analysis(ladder(self.stages, bias, amp),
                                     self.t_stop, self.dt)
            wall = time.perf_counter() - t0
        after = reference.seconds()
        counts = {"analysis.transient_steps": len(res.t) - 1,
                  "analysis.rejected_steps": res.rejected_steps}
        _report_counts(counts, res.report)
        info = {
            "wall": wall, "unit": 0.5 * (before + after), "ref_s": before + after,
            "pid": os.getpid(),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok": bool(res.converged and np.all(np.isfinite(res.X))),
            "counts": counts,
            "totals": rec.totals() if rec is not None else None,
        }
        return res.X, info


class TranCorners:
    """Diode-ladder transients at seeded bias corners, one process sweep
    per round."""

    name = "tran_corners"

    def __init__(self, seed: int, sizes: Sizes = PAPER):
        self.sizes = sizes
        self.rng = random.Random(f"tran_corners:{seed}")
        self.workers = min(2, os.cpu_count() or 1)
        self.next_index = 0
        #: (corner, X from the process sweep), one per round, for verify()
        self.kept: List[tuple] = []

    def task(self, traced: bool) -> CornerTask:
        s = self.sizes
        return CornerTask(s.ladder_stages, s.tran_t_stop, s.tran_dt, traced)

    def corners(self, n: int) -> List[tuple]:
        out = []
        for _ in range(n):
            out.append((self.next_index, self.rng.uniform(0.2, 0.4),
                        self.rng.uniform(0.7, 0.9)))
            self.next_index += 1
        return out

    def setup(self) -> int:
        """Warm-up op: one corner in-process; returns failed checks."""
        _X, info = self.task(False)((-1, 0.3, 0.8))
        return int(not info["ok"])

    def run_round(self, r: int, rec: Optional[spans.Recorder]) -> Round:
        corners = self.corners(self.sizes.corners_per_round)
        t0 = time.perf_counter()
        try:
            out = sweep_map(self.task(rec is not None), corners,
                            workers=self.workers, backend="process")
        except Exception:
            # a corner raised: every corner of the round failed, each
            # with its share of the sweep's wall time as its latency
            share = (time.perf_counter() - t0) / len(corners)
            return Round([share] * len(corners), len(corners), len(corners),
                         units=[reference.seconds()] * len(corners))
        wall = time.perf_counter() - t0
        # the reference passes in the workers (about 2 % of a corner) stay
        # in the sweep wall: ref_s is 0
        rnd = Round([info["wall"] for _X, info in out], len(corners),
                    sum(not info["ok"] for _X, info in out),
                    units=[info["unit"] for _X, info in out])
        busy: Dict[int, float] = {}
        for _X, info in out:
            busy[info["pid"]] = busy.get(info["pid"], 0.0) + info["wall"] + info["ref_s"]
            for k, v in info["counts"].items():
                _add(rnd.counts, k, v)
            if info["totals"] is not None:
                rnd.worker_totals.append(info["totals"])
            rnd.child_rss_mb = max(rnd.child_rss_mb, info["rss_mb"])
        rnd.counts["perf.sweep_dispatch_s"] = wall - max(busy.values())
        i = self.rng.randrange(len(corners))
        self.kept.append((corners[i], out[i][0]))
        return rnd

    def verify(self) -> int:
        """Seeded subset: process-sweep X bit-identical to a serial sweep."""
        picks = self.rng.sample(self.kept, min(self.sizes.checked, len(self.kept)))
        serial = sweep_map(self.task(False), [c for c, _X in picks], backend="serial")
        return sum(not np.array_equal(X, got) for (_c, X), (got, _i) in zip(picks, serial))


# -- serve_mixed --------------------------------------------------------

#: (example netlist, element whose value the seed varies, its value)
_TEMPLATES = (
    ("rc_lowpass.cir", "R1", 1e3),
    ("diode_rectifier.cir", "R1", 10e3),
    ("lc_tank_amp.cir", "Rp", 5e3),
)
#: per-template analysis params: dc, ac, short transient
_ANALYSES = {
    "rc_lowpass.cir": ({}, {"source": "V1", "f_start": 1e4, "f_stop": 1e8, "n_points": 21},
                       {"t_stop": 2e-6, "dt": 2e-8}),
    "diode_rectifier.cir": ({}, {"source": "V1", "f_start": 1e4, "f_stop": 1e8, "n_points": 21},
                            {"t_stop": 5e-7, "dt": 1e-8}),
    "lc_tank_amp.cir": ({}, {"source": "V1", "f_start": 1e7, "f_stop": 1e9, "n_points": 31},
                        {"t_stop": 1e-7, "dt": 1e-9}),
}
_KINDS = ("dc", "ac", "transient")
#: share of submissions that are invalid / repeat an earlier spec.  Fast
#: ops (invalid or cache hits) stay well under half of a round (45 of
#: 120), so the median op falls among the cold dc jobs rather than on the
#: cliff between fast and cold ops, where it moves with small timing changes.
BAD_SHARE = 1 / 16
REPEAT_SHARE = 1 / 3


def _set_value(netlist: str, element: str, value: float) -> str:
    pat = re.compile(rf"^({re.escape(element)}\s+\S+\s+\S+\s+)\S+", re.MULTILINE)
    return pat.sub(lambda m: m.group(1) + f"{value:.6g}", netlist, count=1)


def _bad_specs(base: str) -> List[tuple]:
    """One spec per admission-rejection code."""
    return [
        (base, "noise_sweep", {}),
        (base, "ac", {"f_start": 1e3, "f_stop": 1e6}),
        (base, "transient", {"t_stop": 1e-6, "dt": 0.0}),
        (base.replace("R1 in out 1k", "R1 in"), "dc", {}),
    ]


def _close(svc, root: str) -> None:
    """Close the service's WAL and delete its root."""
    if svc is not None:
        svc.queue.wal.close()
    shutil.rmtree(root)


class ServeMixed:
    """In-process service traffic: cold solves, cache hits, rejections."""

    name = "serve_mixed"

    def __init__(self, seed: int, sizes: Sizes = PAPER):
        self.sizes = sizes
        self.rng = random.Random(f"serve_mixed:{seed}")
        self.texts = {}
        for fname, _el, _v in _TEMPLATES:
            with open(os.path.join(NETLISTS, fname), "r", encoding="utf-8") as fh:
                self.texts[fname] = fh.read()
        self.bad = _bad_specs(self.texts["rc_lowpass.cir"])
        #: (spec, served payload bytes), one per round, for verify()
        self.kept: List[tuple] = []

    def _new_spec(self, k: int, used: set) -> tuple:
        fname, element, value = _TEMPLATES[k % len(_TEMPLATES)]
        kind = (k // len(_TEMPLATES)) % len(_KINDS)
        while True:
            net = _set_value(self.texts[fname], element,
                             value * self.rng.uniform(0.5, 2.0))
            spec = (net, _KINDS[kind], _ANALYSES[fname][kind])
            if spec[:2] not in used:
                used.add(spec[:2])
                return spec

    def plan(self) -> List[tuple]:
        """One round: ``(kind, spec)`` with kind new/repeat/bad, fixed
        counts of each, in seeded order; a repeat names an earlier spec."""
        n = self.sizes.jobs_per_round
        n_bad = max(1, round(n * BAD_SHARE))
        n_rep = round((n - n_bad) * REPEAT_SHARE)
        kinds = ["bad"] * n_bad + ["repeat"] * n_rep + ["new"] * (n - n_bad - n_rep)
        self.rng.shuffle(kinds)
        first_new = kinds.index("new")
        kinds[0], kinds[first_new] = kinds[first_new], kinds[0]
        plan, seen, used = [], [], set()
        for kind in kinds:
            if kind == "new":
                spec = self._new_spec(len(seen), used)
                seen.append(spec)
            elif kind == "repeat":
                spec = self.rng.choice(seen)
            else:
                spec = self.rng.choice(self.bad)
            plan.append((kind, spec))
        return plan

    def _open(self, root: str):
        from repro.serve import open_service

        return open_service(root)

    def setup(self) -> int:
        """Warm-up op: one job on a throw-away root; returns failed checks."""
        root = tempfile.mkdtemp(prefix="serve-warmup-")
        svc = None
        try:
            svc = self._open(root)
            net, analysis, params = self._new_spec(0, set())
            s = svc.submit(net, analysis, params)
            svc.drain()
            return int(svc.result(s.job_id) is None)
        finally:
            _close(svc, root)

    def run_round(self, r: int, rec: Optional[spans.Recorder]) -> Round:
        plan = self.plan()
        rnd = Round([], len(plan), 0)
        cold: Dict[str, bytes] = {}
        specs: Dict[str, tuple] = {}
        valid = cached = 0
        solves = rec.counts.get("serve.solves", 0) if rec is not None else 0
        refs: List[float] = []  # reference passes between consecutive ops
        root = tempfile.mkdtemp(prefix=f"serve-round{r}-")
        svc = None
        try:
            svc = self._open(root)
            for i, (kind, (net, analysis, params)) in enumerate(plan):
                payload = None
                refs.append(reference.seconds())
                with _Op(rec, i):
                    t0 = time.perf_counter()
                    try:
                        sub = svc.submit(net, analysis, params)
                        if sub.state == "queued":
                            svc.drain()
                        if sub.state != "rejected":
                            payload = svc.result(sub.job_id)
                    except Exception:
                        sub = None
                    rnd.latencies.append(time.perf_counter() - t0)
                if sub is None:
                    rnd.failed += 1
                    continue
                if kind == "bad":
                    rnd.failed += sub.state != "rejected"
                    continue
                valid += 1
                cached += bool(sub.cached)
                expect = "done" if kind == "repeat" else "queued"
                if (sub.state != expect or payload is None
                        or not payload["report"]["converged"]):
                    rnd.failed += 1
                    continue
                blob = pickle.dumps(payload, protocol=4)
                if kind == "new":
                    cold[sub.key] = blob
                    specs[sub.key] = (net, analysis, params)
                    _add(rnd.counts, "robust.escalations",
                         payload["report"].get("attempts", 1) - 1)
                elif cold.get(sub.key) != blob:
                    rnd.failed += 1
            refs.append(reference.seconds())
            rnd.units = [0.5 * (a + b) for a, b in zip(refs, refs[1:])]
            rnd.ref_s = sum(refs)
            # every distinct valid spec solved once: one store entry each,
            # and (traced) one run_job call each
            if len(svc.queue.store) != len(cold):
                rnd.failed += 1
            if rec is not None and rec.counts.get("serve.solves", 0) - solves != len(cold):
                rnd.failed += 1
            key = self.rng.choice(sorted(cold))
            self.kept.append((specs[key], cold[key]))
        finally:
            _close(svc, root)
        rnd.counts["serve.cache_hits"] = cached
        rnd.counts["serve.valid"] = valid
        return rnd

    def verify(self) -> int:
        """Served payloads equal a direct ``run_job`` of the same spec."""
        from repro.serve import JobSpec, run_job

        picks = self.rng.sample(self.kept, min(self.sizes.checked, len(self.kept)))
        return sum(
            pickle.dumps(run_job(JobSpec(netlist=net, analysis=analysis, params=params)),
                         protocol=4) != blob
            for (net, analysis, params), blob in picks)


def make(name: str, seed: int, sizes: Sizes = PAPER):
    if name == "hb_modulator":
        return HBModulator(seed, sizes)
    if name == "tran_corners":
        return TranCorners(seed, sizes)
    if name == "serve_mixed":
        return ServeMixed(seed, sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


_SOLVER_CORE = (
    "repro.analysis.dc:newton_solve", "repro.analysis.dc:preflight",
    "repro.netlist.circuit:Circuit.compile", "repro.netlist.mna:MNASystem.G",
    "repro.netlist.mna:MNASystem.f", "repro.netlist.mna:MNASystem.q",
    "scipy.sparse.linalg:spsolve",
)
_TRANSIENT = (
    "repro.analysis.transient:newton_solve", "repro.analysis.transient:preflight",
    "repro.netlist.mna:MNASystem.C", "repro.perf.factorcache:make_factor_solver",
    "scipy.sparse.linalg:splu",
)
#: wrapper targets that must fire in a traced round of each workload
_EXPECTED = {
    "hb_modulator": _SOLVER_CORE + (
        "scipy.linalg:lu_factor", "scipy.linalg:lu_solve", "numpy.fft:fftn",
        "numpy.fft:ifftn", "repro.mpde.grid:MPDEGrid.apply_derivative",
        "repro.mpde.mpde_core:preflight", "repro.mpde.mpde_core:robust_gmres",
        "repro.robust.krylov:gmres", "repro.netlist.mna:MNASystem.batch_fq",
        "repro.netlist.mna:MNASystem.batch_jacobians",
    ),
    "tran_corners": _SOLVER_CORE + _TRANSIENT,
    "serve_mixed": _SOLVER_CORE + _TRANSIENT + (
        "repro.serve.runner:parse_netlist", "repro.serve.service:SimulationService.drain",
        "repro.serve.service:SimulationService.result",
        "repro.serve.service:SimulationService.submit", "repro.serve.store:ResultStore.get",
        "repro.serve.store:ResultStore.has", "repro.serve.store:ResultStore.put",
        "repro.serve.wal:WriteAheadLog.append", "repro.serve.wal:WriteAheadLog.replay",
        "repro.serve.worker:run_job", "repro.validate:lint_text",
        "repro.validate:parse_netlist", "repro.validate:preflight",
    ),
}


def expected_wrappers(name: str) -> List[str]:
    """Wrapper targets that must fire in a traced run of ``name``."""
    return list(_EXPECTED[name])


def missing_wrappers(name: str, fired: Dict[str, int]) -> List[str]:
    """Expected targets that never fired: a layer that would read as zero."""
    return [t for t in _EXPECTED[name] if not fired.get(t)]
