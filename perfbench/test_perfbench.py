"""Tests of the benchmark itself (tiny sizes).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import pickle
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from perfbench import run

run.bootstrap()

from perfbench import reference, spans, workloads  # noqa: E402
from perfbench.workloads import TINY  # noqa: E402

RUN_PY = os.path.join(run.ROOT, "perfbench", "run.py")


def _cli(*args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, RUN_PY, *args], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


# -- self-time arithmetic -------------------------------------------------


def test_self_times_on_synthetic_tree():
    #   op [0, 10]
    #   ├── a [1, 6]
    #   │   ├── b [2, 3]
    #   │   └── a [4, 5.5]   (same layer nested)
    #   └── b [7, 9]
    tree = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 6.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("a", 4.0, 5.5, 1, 0),
        ("b", 7.0, 9.0, 0, 0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({"op": 3.0, "a": 2.5 + 1.5, "b": 3.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_recorder_counts_outermost_calls_and_closes_the_books():
    rec = spans.Recorder()
    op = rec.begin_op(0)
    outer = rec.open("x")
    inner = rec.open("x")
    rec.close(inner)
    rec.close(outer)
    rec.close(rec.open("y"))
    rec.end_op(op)
    assert rec.calls == {spans.OP: 1, "x": 1, "y": 1}
    assert rec.ops == 1 and rec.spans == []
    assert sum(rec.self_s.values()) == pytest.approx(rec.op_wall, rel=1e-9, abs=1e-12)


def test_wrappers_record_only_inside_an_op_and_are_removed():
    import scipy.linalg

    original = scipy.linalg.lu_factor
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        assert scipy.linalg.lu_factor is not original
        scipy.linalg.lu_factor(np.eye(3))  # outside an op: not recorded
        assert rec.fired == {}
        op = rec.begin_op(0)
        scipy.linalg.lu_factor(np.eye(3))
        rec.end_op(op)
        assert rec.fired["scipy.linalg:lu_factor"] == 1
        assert rec.calls["linalg.dense_factor"] == 1
    finally:
        patches.remove()
    assert scipy.linalg.lu_factor is original
    assert spans.current() is None


def test_reference_kernel_bypasses_the_wrappers():
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        op = rec.begin_op(0)
        assert reference.seconds() > 0
        rec.end_op(op)
    finally:
        patches.remove()
    assert rec.fired == {}


# -- traced and untraced outputs agree -------------------------------------


def _traced(fn, open_op=True):
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        op = rec.begin_op(0) if open_op else None
        out = fn()
        if open_op:
            rec.end_op(op)
    finally:
        patches.remove()
    assert rec.ops == 1 and rec.calls.get("netlist.eval")
    return out


def test_traced_and_untraced_outputs_identical():
    from repro.rf import ModulatorSpec
    from repro.serve import JobSpec, run_job

    hb = workloads.HBModulator(1, TINY)
    assert np.array_equal(hb.solve(ModulatorSpec()).solution.x,
                          _traced(lambda: hb.solve(ModulatorSpec()).solution.x))

    corner = (0, 0.3, 0.8)
    tran = workloads.TranCorners(1, TINY)
    assert np.array_equal(tran.task(False)(corner)[0],
                          _traced(lambda: tran.task(True)(corner)[0], open_op=False))

    serve = workloads.ServeMixed(1, TINY)
    for kind, (net, analysis, params) in serve.plan():
        if kind == "new":
            spec = JobSpec(netlist=net, analysis=analysis, params=params)
            assert pickle.dumps(run_job(spec)) == pickle.dumps(_traced(lambda: run_job(spec)))


# -- every named wrapper fires ---------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_expected_wrapper_fires(name, tmp_path, monkeypatch):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    expected = workloads.expected_wrappers(name)
    known = {t for _layer, t, _c in spans.TARGETS}
    assert expected and set(expected) <= known
    wl = workloads.make(name, 2, TINY)
    assert wl.setup() == 0
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        rnd = wl.run_round(0, rec)
    finally:
        patches.remove()
    for totals in rnd.worker_totals:
        rec.absorb(totals)
    assert rnd.failed == 0
    assert workloads.missing_wrappers(name, rec.fired) == []
    # a layer left unpatched reads as zero, and the check names it
    dropped = dict(rec.fired)
    del dropped[expected[0]]
    assert workloads.missing_wrappers(name, dropped) == [expected[0]]


# -- process hygiene --------------------------------------------------------


def test_child_and_thread_reap_checks():
    assert run.live_children() == []
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert run.live_children() == [proc.pid]
    finally:
        proc.kill()
        proc.wait(10)
    assert run.live_children() == []

    baseline = {t.ident for t in threading.enumerate()}
    stop = threading.Event()
    t = threading.Thread(target=stop.wait, name="perfbench-probe")
    t.start()
    try:
        assert run.live_threads(baseline) == ["perfbench-probe"]
    finally:
        stop.set()
        t.join(10)
    assert not t.is_alive()
    assert run.live_threads(baseline) == []


# -- the command ------------------------------------------------------------


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_command_untraced_and_traced(name):
    bench = _declared()
    untraced = _result(_cli("--workload", name, "--seed", "5",
                            "--seconds", "0", "--trace", "0", "--tiny"))
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= run.MIN_OPS
    assert set(untraced["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        got = untraced["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0

    traced = _result(_cli("--workload", name, "--seed", "5",
                          "--seconds", "0", "--trace", "1", "--tiny"))
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    assert not os.path.exists(run.TMP) or os.listdir(run.TMP) == []


_FAILING_CORNERS = """
import os, sys
sys.path.insert(0, {root!r})
from perfbench import run
run.bootstrap()
from perfbench import workloads

parent, transient = os.getpid(), workloads.transient_analysis

def failing(*args, **kwargs):
    # raise in the sweep workers only: the in-process warm-up corner passes
    if os.getpid() != parent:
        raise RuntimeError("injected corner failure")
    return transient(*args, **kwargs)

workloads.transient_analysis = failing
sys.exit(run.main(sys.argv[1:]))
"""


def test_command_exits_1_when_every_corner_raises(tmp_path):
    script = tmp_path / "failing_corners.py"
    script.write_text(_FAILING_CORNERS.format(root=run.ROOT))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "tran_corners", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hb_modulator",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
