"""The repository's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload hb_modulator --seed 1 --seconds 30 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit, checks the program's outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
It exits 1 when a correctness or process-hygiene check fails and 2 when
the program cannot be imported from ``src/`` next to this directory.
See README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

_T_START = time.perf_counter()  # setup_s counts from here: program imports included

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: timed set-up probes per run; one more, untimed, runs first to warm the
#: page cache and the bytecode cache
SETUP_PROBES = 5
#: a run keeps going past --seconds until it has this many ops, so the
#: tail percentile always has 10 samples beyond it
MIN_OPS = 21

#: layers whose outermost calls per op are reported as ``<layer>_calls``
CALL_LAYERS = (
    "linalg.dense_factor", "linalg.dense_solve", "mpde.fft", "netlist.eval",
    "linalg.sparse_factor", "serve.wal_append", "serve.store_put",
    "serve.store_get", "validate.lint",
)
#: wrapper-side counters reported per op
COUNTERS = ("linalg.gmres_iters", "linalg.newton_iters", "serve.wal_lines_replayed")
#: result-derived counts reported per op
RESULT_COUNTS = ("analysis.transient_steps", "analysis.rejected_steps",
                 "robust.escalations", "perf.sweep_dispatch_s")


def pin_environment() -> dict:
    """Unset every ``REPRO_*`` knob and pin BLAS to one thread.

    One thread per process keeps workers x threads <= nproc for the
    two-worker sweep and makes HB's dBc values independent of the BLAS
    thread count.  Returns the ``REPRO_*`` values that were found.
    """
    found = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for k in found:
        del os.environ[k]
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return found


def bootstrap() -> None:
    """Import the program from ``src/`` beside this directory, or fail."""
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"repro imported from {where}, not from {SRC}")


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of every ``src/**/*.py``: identifies the code measured even
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(seed: int, repro_env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "seed": seed,
        "git_commit": git_commit(), "source_sha256": source_sha256(),
        "blas_threads": 1, "repro_env_unset": repro_env,
    }


# -- process hygiene ----------------------------------------------------


def live_children() -> list:
    """Pids of this process's live children (reaps finished ones first)."""
    multiprocessing.active_children()
    pids = set()
    task_dir = f"/proc/{os.getpid()}/task"
    for tid in os.listdir(task_dir):
        with open(os.path.join(task_dir, tid, "children"), encoding="ascii") as fh:
            pids.update(int(p) for p in fh.read().split())
    return sorted(pids)


def live_threads(baseline: set) -> list:
    """Non-daemon threads alive now that were not alive at ``baseline``."""
    return [t.name for t in threading.enumerate()
            if not t.daemon and t is not threading.main_thread()
            and t.ident not in baseline]


# -- statistics ---------------------------------------------------------


def tail(latencies: list):
    """``(value, percentile, n)``: the highest percentile with 10 samples
    beyond it, i.e. the 11th-largest latency (the largest when a failed
    run stopped with fewer than 11)."""
    s = sorted(latencies)
    n = len(s)
    return s[max(n - 11, 0)], 100.0 * max(n - 10, 0) / n, n


def per_layer(rec, counts: dict, rounds: int, lat_on: list, lat_off: list) -> dict:
    """Per-layer metrics of the traced rounds (see README.md)."""
    from perfbench import spans

    per_op = 1.0 / max(rec.ops, 1)
    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}_s"] = (rec.self_s.get(layer, 0.0) * per_op, "s")
    for layer in CALL_LAYERS:
        out[f"{layer}_calls"] = (rec.calls.get(layer, 0) * per_op, "count")
    for name in COUNTERS:
        out[name] = (rec.counts.get(name, 0) * per_op, "count")
    out["serve.solves"] = (rec.counts.get("serve.solves", 0) / max(rounds, 1), "count")
    for name in RESULT_COUNTS:
        out[name] = (counts.get(name, 0) * per_op, "s" if name.endswith("_s") else "count")
    factors = counts.get("factor_hits", 0) + counts.get("factor_misses", 0)
    out["perf.factor_hit_rate"] = (counts.get("factor_hits", 0) / factors if factors else 0.0,
                                   "ratio")
    valid = counts.get("serve.valid", 0)
    out["serve.cache_hit_frac"] = (counts.get("serve.cache_hits", 0) / valid if valid else 0.0,
                                   "ratio")
    out["bench.unattributed_frac"] = (
        rec.self_s.get(spans.OP, 0.0) / rec.op_wall if rec.op_wall else 0.0, "ratio")
    out["bench.trace_overhead_frac"] = (
        statistics.fmean(lat_on) / statistics.fmean(lat_off) - 1.0, "ratio")
    return out


# -- running ------------------------------------------------------------


def measure(wl, seconds: float, trace: bool) -> dict:
    """Run rounds until ``seconds`` have passed and MIN_OPS ops ran, or
    until a round fails: the run is already incorrect, and a sweep that
    raised leaves its aborted pool's threads winding down, so forking
    the next pool's workers could deadlock them.

    With ``trace`` the rounds alternate untraced / traced: wrappers are
    installed only around traced rounds, so the untraced ones give the
    trace-overhead baseline from the same run.

    Latencies are also kept in reference units (reference.py), each
    divided by its op's unit, and the untraced rounds' wall time, less
    the reference passes taken in them, by the round's median unit.
    """
    from perfbench import spans

    rec = spans.Recorder()
    lat = {False: [], True: []}
    lat_ref = {False: [], True: []}
    refs: list = []
    rounds_ref = 0.0  # untraced round wall time, in reference units
    counts: dict = {}
    attempted = failed = traced_rounds = 0
    child_rss = 0.0
    t0 = time.perf_counter()
    r = 0
    while True:
        traced = trace and r % 2 == 1
        patches = spans.install(rec) if traced else None
        t_round = time.perf_counter()
        try:
            rnd = wl.run_round(r, rec if traced else None)
        finally:
            t_round = time.perf_counter() - t_round
            if patches is not None:
                patches.remove()
        refs.extend(rnd.units)
        lat[traced].extend(rnd.latencies)
        lat_ref[traced].extend(x / u for x, u in zip(rnd.latencies, rnd.units))
        if not traced:
            rounds_ref += (t_round - rnd.ref_s) / statistics.median(rnd.units)
        attempted += rnd.attempted
        failed += rnd.failed
        child_rss = max(child_rss, rnd.child_rss_mb)
        if traced:
            traced_rounds += 1
            for totals in rnd.worker_totals:
                rec.absorb(totals)
            for k, v in rnd.counts.items():
                counts[k] = counts.get(k, 0) + v
        r += 1
        wall = time.perf_counter() - t0
        enough = len(lat[False]) >= MIN_OPS and (not trace or len(lat[True]) >= MIN_OPS)
        if failed or (wall >= seconds and enough):
            break
    failed += wl.verify()
    return {"rec": rec, "lat": lat, "lat_ref": lat_ref, "rounds_ref": rounds_ref,
            "ref_s": statistics.median(refs), "counts": counts, "attempted": attempted,
            "failed": failed, "wall": wall, "rounds": r, "traced_rounds": traced_rounds,
            "child_rss_mb": child_rss}


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Imports, build/open and one warm-up op, timed from process start."""
    from perfbench import workloads

    wl = workloads.make(workload, seed, workloads.TINY if tiny else workloads.PAPER)
    wl.setup()  # its checks are counted by the measured run's own set-up
    return time.perf_counter() - _T_START


def setup_seconds(args) -> list:
    """Set-up time of SETUP_PROBES fresh interpreters, each waited for,
    after one untimed probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(1 + SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out[1:]


def report(args, env: dict, m: dict, setups: list, ok: bool) -> dict:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    lat_all = m["lat"][False] + m["lat"][True]
    print(f"ops={len(lat_all)} rounds={m['rounds']} wall_s={m['wall']:.3f} "
          f"attempted={m['attempted']} failed={m['failed']} "
          f"fail_frac={m['failed'] / m['attempted']:.4g}")
    shown = {}  # printed in the table only
    if args.trace:
        metrics = per_layer(m["rec"], m["counts"], m["traced_rounds"],
                            m["lat_ref"][True], m["lat_ref"][False])
        notes = {}
    else:
        lat, lat_ref = m["lat"][False], m["lat_ref"][False]
        value, pct, n = tail(lat)
        value_ref = tail(lat_ref)[0]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + m["child_rss_mb"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "latency_p50_ref": (statistics.median(lat_ref), "ref"),
            "latency_tail_ref": (value_ref, "ref"),
            "throughput_ops_ref": (len(lat) / m["rounds_ref"], "1/ref"),
            "ok_frac": (1.0 - m["failed"] / m["attempted"], "ratio"),
            "peak_rss_mb": (rss, "MiB"),
        }
        shown = {
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_tail_s": (value, "s"),
            "throughput_ops_s": (len(lat) / m["wall"], "1/s"),
            "reference_s": (m["ref_s"], "s"),
        }
        notes = {
            "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
            "latency_tail_ref": f"p{pct:.2f}, n={n}, 10 beyond",
            "latency_tail_s": f"p{pct:.2f}, n={n}, 10 beyond",
            "ok_frac": f"fail_frac={m['failed'] / m['attempted']:.4g}",
            "peak_rss_mb": "parent + largest sweep worker" if m["child_rss_mb"] else "parent",
            "reference_s": "median reference-kernel time, the unit ref (reference.py)",
        }
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    return {
        "correct": ok, "attempted": m["attempted"], "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small problem sizes, for smoke tests")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    repro_env = pin_environment()
    try:
        bootstrap()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from perfbench import spans, workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.probe_setup:
        print(json.dumps({"setup_s": probe_setup(args.workload, args.seed, args.tiny)}))
        return 0

    threads_before = {t.ident for t in threading.enumerate()}
    os.makedirs(TMP, exist_ok=True)
    run_tmp = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=TMP)
    os.environ["TMPDIR"] = tempfile.tempdir = run_tmp
    try:
        setups = [] if args.trace else setup_seconds(args)
        sizes = workloads.TINY if args.tiny else workloads.PAPER
        wl = workloads.make(args.workload, args.seed, sizes)
        try:
            setup_failed = wl.setup()
        except Exception:  # the warm-up op raised: a failed check
            traceback.print_exc()
            setup_failed = 1
        m = measure(wl, args.seconds, bool(args.trace))
        m["failed"] += setup_failed
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_tmp, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass  # another run's directory is still in it

    problems = []
    if spans.current() is not None:
        problems.append("layer wrappers still installed")
    if args.trace:
        missing = workloads.missing_wrappers(args.workload, m["rec"].fired)
        if missing:
            problems.append(f"wrappers that never fired: {missing}")
    children = live_children()
    if children:
        problems.append(f"child processes still alive: {children}")
    threads = live_threads(threads_before)
    if threads:
        problems.append(f"threads still alive: {threads}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    ok = not problems and m["failed"] == 0
    result = report(args, environment(args.seed, repro_env), m, setups, ok)
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
