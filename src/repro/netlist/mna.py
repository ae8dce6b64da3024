"""Compiled modified-nodal-analysis system.

:class:`MNASystem` is the numerical object every analysis consumes.  It
evaluates the DAE terms of paper eq. (3),

    d q(x)/dt + f(x) = b(t),

together with their Jacobians ``G = df/dx`` and ``C = dq/dx``, both at a
single operating point (sparse matrices, used by DC/AC/transient) and in
*batch* over many time samples at once (used by the HB/MPDE engines,
where one Newton iteration touches an entire periodic grid).

Stamping paths
--------------
Nonlinear devices are evaluated through one of two equivalent paths:

* **vectorized** (default): devices are grouped by type
  (``Device.nl_group_key``) and each group is evaluated as one numpy
  batch through ``Device.nl_eval_group``; results are scattered into
  preallocated index structures (``np.add.at`` for f/q, precomputed
  COO row/col arrays for the Jacobians).  One Python-level call per
  device *type* instead of one per device.
* **scalar**: the historical per-device loop, kept as the reference
  implementation.

Both paths share one canonical device ordering (batchable families
grouped by first occurrence, netlist order within a family) and mirror
each other operation-for-operation, so their outputs are bit-identical
— ``tests/test_properties.py`` pins this down on random circuits.
Select with ``compile(vectorize=...)`` or the ``REPRO_STAMP_MODE``
environment variable (``"vectorized"`` | ``"scalar"``).

One evaluation per point
------------------------
Every nonlinear group is evaluated in one pass that yields f, q and
both Jacobian blocks together.  At a single point (``x`` of shape
``(n,)`` or ``(n, 1)``) the pass result is kept in a one-entry memo,
``(param_version, bytes of x, f, q, G entries, C entries)``, so the
``q(x)``, ``f(x)``, ``C(x)``, ``G(x)`` calls a Newton iterate makes —
and the next step's ``q``/``f`` at the converged iterate — share one
device evaluation.  The public methods return fresh arrays and
matrices built from the (read-only) entry.  The entry is one tuple
swapped whole, so threads sharing a system never mix two points.

The memo is valid while nothing it read has changed:

* ``x`` — the key is its exact bytes;
* nonlinear device attributes — every attribute write on a
  :class:`~repro.netlist.components.Device` (``set_param`` or plain
  assignment) bumps its ``_param_version``; the memo and the batched
  groups' frozen ``(d, 1)`` parameter columns record the summed
  versions and are rebuilt when they move;
* the linear stamps — :meth:`MNASystem.refresh_stamps` clears the memo.

State a device reads from outside its own attributes (e.g. a closure
behind a :class:`~repro.netlist.components.NonlinearResistor`
callable) is not tracked.  Sample blocks ``(n, m)`` are never
memoized.

Compiled systems pickle (for the process-backend sweep executor) by
re-running compilation from the device list on unpickle — the noise
closures and index structures are rebuilt, not serialized.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.netlist.components import Device, NoiseSource
from repro.trace import spanned

__all__ = ["MNASystem", "STAMP_ENV", "resolve_stamp_mode"]

STAMP_ENV = "REPRO_STAMP_MODE"

_STAMP_MODES = ("vectorized", "scalar")


def resolve_stamp_mode(mode=None) -> str:
    """Normalize a stamping-mode request to ``"vectorized"`` | ``"scalar"``.

    ``mode`` may be a mode name, a boolean (``True`` -> vectorized), or
    ``None`` to consult the ``REPRO_STAMP_MODE`` environment variable
    (default ``"vectorized"``).  Unknown values raise ``ValueError``.
    """
    if mode is None:
        mode = os.environ.get(STAMP_ENV) or "vectorized"
    if isinstance(mode, bool):
        return "vectorized" if mode else "scalar"
    if not isinstance(mode, str):
        raise ValueError(
            f"stamp mode must be a string or bool, got {type(mode).__name__}"
        )
    norm = mode.strip().lower()
    if norm not in _STAMP_MODES:
        raise ValueError(
            f"unknown stamp mode {mode!r}; expected one of {_STAMP_MODES} "
            f"(set via argument or ${STAMP_ENV})"
        )
    return norm


class _ThreadState(threading.local):
    """Per-thread evaluation counts (see :attr:`MNASystem.device_evals`)."""

    evals = 0
    hits = 0


class _NLGroup:
    """Precomputed scatter indices for one batch of nonlinear devices.

    Holds ``d`` same-family devices (``d == 1`` for devices that opt out
    of batching via ``nl_group_key() is None``) together with the index
    arrays the vectorized stamping path needs:

    * ``var_safe``/``var_mask`` — gather ``(d, k_in, m)`` local voltages
      from a state block, grounds reading as 0;
    * ``eq_rows``/``eq_valid`` — scatter ``(d, k_eq, m)`` f/q
      contributions onto global KCL rows, grounds dropped;
    * ``jac_rows``/``jac_cols``/``jac_valid`` — the COO coordinates of
      the group's Jacobian block in canonical (device, eq, var) order,
      matching :meth:`MNASystem.jacobian_pattern`.
    """

    __slots__ = (
        "devices",
        "cls",
        "batched",
        "entries",
        "var_idx",
        "var_safe",
        "var_mask",
        "eq_rows",
        "eq_valid",
        "jac_rows",
        "jac_cols",
        "jac_valid",
        "jac_nnz",
        "_params",
    )

    def __init__(self, entries, batched: bool):
        self.entries = entries
        self.devices = [dev for dev, _, _ in entries]
        self.cls = type(self.devices[0])
        self.batched = batched
        var_idx = np.stack([v for _, v, _ in entries])  # (d, k_in)
        eq_idx = np.stack([e for _, _, e in entries])  # (d, k_eq)
        self.var_idx = var_idx
        self.var_safe = np.where(var_idx >= 0, var_idx, 0)
        self.var_mask = (var_idx >= 0)[..., None]
        eq_flat = eq_idx.reshape(-1)
        self.eq_valid = eq_flat >= 0
        self.eq_rows = eq_flat[self.eq_valid]
        valid = (eq_idx[:, :, None] >= 0) & (var_idx[:, None, :] >= 0)
        rows = np.broadcast_to(eq_idx[:, :, None], valid.shape)
        cols = np.broadcast_to(var_idx[:, None, :], valid.shape)
        self.jac_valid = valid.reshape(-1)
        self.jac_rows = rows.reshape(-1)[self.jac_valid]
        self.jac_cols = cols.reshape(-1)[self.jac_valid]
        self.jac_nnz = int(self.jac_rows.size)
        #: (summed device parameter versions, {name: (d, 1) column})
        self._params = None

    def params(self):
        """Frozen ``(d, 1)`` columns of the class's ``nl_params``.

        Gathered once and reused until a device attribute is written
        (each write bumps that device's ``_param_version``).  The
        columns are read-only; the cache is one tuple swapped whole, so
        concurrent readers never see a half-built set.
        """
        version = sum([dev._param_version for dev in self.devices])
        cached = self._params
        if cached is None or cached[0] != version:
            cols = {}
            for name in self.cls.nl_params:
                col = np.array([getattr(dev, name) for dev in self.devices], dtype=float)
                col.flags.writeable = False
                cols[name] = col[:, None]
            cached = self._params = (version, cols)
        return cached[1]

    def eval(self, x2d: np.ndarray):
        """(f, q, df, dq) with a leading device axis of length ``d``."""
        if self.batched:
            V = np.where(self.var_mask, x2d[self.var_safe], 0.0)
            return self.cls.nl_eval_group(self.params(), V)
        # solo device: per-device reference evaluation, d == 1
        dev, var_idx, _ = self.entries[0]
        V = MNASystem._local_voltages(x2d, var_idx)
        f, q, df, dq = dev.nl_eval(V)
        return f[None], q[None], df[None], dq[None]


class MNASystem:
    """Evaluated form of a compiled circuit.

    Attributes
    ----------
    n:
        Total unknown count (node voltages + branch currents).
    node_names:
        Names of the voltage unknowns; unknown ``i`` for
        ``i < len(node_names)`` is the voltage of ``node_names[i]``.
    branch_owner:
        Device name owning each branch-current unknown.
    vectorize:
        True when the batched stamping path is active (see module
        docstring); flip via the ``vectorize=`` compile argument or
        ``REPRO_STAMP_MODE``.
    """

    def __init__(
        self,
        title: str,
        devices: Sequence[Device],
        node_names: Sequence[str],
        branch_owner: Sequence[str],
        vectorize=None,
    ):
        self.title = title
        self.devices = list(devices)
        self.node_names = list(node_names)
        self.branch_owner = list(branch_owner)
        self.vectorize = resolve_stamp_mode(vectorize) == "vectorized"
        self.n = len(node_names) + len(branch_owner)
        self._node_index = {name: i for i, name in enumerate(node_names)}
        # first-occurrence wins, matching the historical linear scan for
        # devices owning several branch currents
        self._branch_index = {}
        for i, owner in enumerate(self.branch_owner):
            self._branch_index.setdefault(owner, len(self.node_names) + i)
        #: pre-flight ValidationReport attached by Circuit.compile (or None)
        self.validation = None
        #: the one-entry point memo (see :meth:`_point`)
        self._memo = None
        self._tls = _ThreadState()

        self._build_linear()
        self._build_nonlinear()
        self._build_sources()
        self._build_noise()

    # --- pickling (process-backend sweeps) -----------------------------
    def __getstate__(self):
        # noise PSD closures and scatter structures are rebuilt from the
        # device list on unpickle; only constructor inputs travel
        return {
            "title": self.title,
            "devices": self.devices,
            "node_names": self.node_names,
            "branch_owner": self.branch_owner,
            "vectorize": self.vectorize,
            "validation": self.validation,
        }

    def __setstate__(self, state):
        self.__init__(
            state["title"],
            state["devices"],
            state["node_names"],
            state["branch_owner"],
            vectorize=state["vectorize"],
        )
        self.validation = state.get("validation")

    @property
    def device_evals(self) -> int:
        """Nonlinear passes run on the calling thread (each evaluates
        every device group once)."""
        return self._tls.evals

    @property
    def device_eval_hits(self) -> int:
        """Point ``f``/``q``/``G``/``C`` calls on the calling thread
        answered from the memo without evaluating any device."""
        return self._tls.hits

    # ------------------------------------------------------------------
    def refresh_stamps(self, linear: bool = True, sources: bool = False) -> None:
        """Rebuild cached stamp structures after device parameters change.

        The sensitivity/exploration layer mutates device parameters in
        place (``Device.set_param``).  Nonlinear devices need nothing
        here: every attribute write bumps the device's
        ``_param_version``, which re-gathers the frozen parameter
        columns and invalidates the point memo on the next evaluation.
        The linear ``G_lin``/``C_lin`` matrices and the excitation row
        lists, however, are assembled once at compile time and must be
        rebuilt here (this also clears the point memo, whose ``f``/``q``
        include the linear part).  ``sources=True`` additionally
        re-scans ``b_stamps`` (only needed when waveform *objects* were
        replaced — in-place waveform attribute mutation is picked up
        live).
        """
        if linear:
            self._build_linear()
        if sources:
            self._build_sources()
        self._memo = None

    # ------------------------------------------------------------------
    def node(self, name: str) -> int:
        """Global unknown index of a node voltage."""
        return self._node_index[name]

    def branch(self, device_name: str) -> int:
        """Global unknown index of a device's (first) branch current."""
        idx = self._branch_index.get(device_name)
        if idx is None:
            available = sorted(set(self.branch_owner))
            raise KeyError(
                f"device {device_name!r} has no branch current; devices with "
                f"branch currents: {available or 'none'}"
            )
        return idx

    # ------------------------------------------------------------------
    def _build_linear(self) -> None:
        g_rows, g_cols, g_vals = [], [], []
        c_rows, c_cols, c_vals = [], [], []
        for dev in self.devices:
            for i, j, v in dev.g_stamps():
                if i >= 0 and j >= 0:
                    g_rows.append(i), g_cols.append(j), g_vals.append(v)
            for i, j, v in dev.c_stamps():
                if i >= 0 and j >= 0:
                    c_rows.append(i), c_cols.append(j), c_vals.append(v)
        n = self.n
        self.G_lin = sp.csr_matrix(
            (np.array(g_vals, dtype=float), (g_rows, g_cols)), shape=(n, n)
        )
        self.C_lin = sp.csr_matrix(
            (np.array(c_vals, dtype=float), (c_rows, c_cols)), shape=(n, n)
        )
        # COO copies kept for batch-Jacobian assembly
        gc = self.G_lin.tocoo()
        cc = self.C_lin.tocoo()
        self._g_lin_coo = (gc.row.copy(), gc.col.copy(), gc.data.copy())
        self._c_lin_coo = (cc.row.copy(), cc.col.copy(), cc.data.copy())

    def _build_nonlinear(self) -> None:
        entries: List[Tuple[Device, np.ndarray, np.ndarray]] = []
        for dev in self.devices:
            if dev.nonlinear:
                var_idx, eq_idx = dev.nl_ports()
                entries.append((dev, np.asarray(var_idx), np.asarray(eq_idx)))
        # canonical ordering shared by BOTH stamping paths: batchable
        # families grouped by first occurrence of their group key (netlist
        # order within a family); unbatchable devices are solo groups in
        # place.  Scalar and vectorized stamping therefore visit devices
        # in the same sequence and produce bit-identical sums and
        # identically-ordered Jacobian patterns.
        grouped: dict = {}
        order: List[object] = []
        solo_keys = set()
        for pos, entry in enumerate(entries):
            key = entry[0].nl_group_key()
            if key is None:
                key = ("__solo__", pos)
                solo_keys.add(key)
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append(entry)
        self._nl: List[Tuple[Device, np.ndarray, np.ndarray]] = [
            e for key in order for e in grouped[key]
        ]
        self.has_nonlinear = bool(self._nl)
        self._nl_groups: List[_NLGroup] = [
            _NLGroup(grouped[key], batched=key not in solo_keys) for key in order
        ]
        self._nl_devices = [dev for dev, _, _ in self._nl]
        # nonlinear Jacobian coordinates in canonical (device, eq, var)
        # order; both stamping paths write their values in this order
        self._nl_rows = np.concatenate(
            [grp.jac_rows for grp in self._nl_groups] or [np.zeros(0, dtype=int)]
        )
        self._nl_cols = np.concatenate(
            [grp.jac_cols for grp in self._nl_groups] or [np.zeros(0, dtype=int)]
        )
        self._nl_nnz = int(self._nl_rows.size)

    def _build_sources(self) -> None:
        rows, waves, signs = [], [], []
        for dev in self.devices:
            for row, wave, sign in dev.b_stamps():
                if row >= 0:
                    rows.append(row), waves.append(wave), signs.append(sign)
        self._b_rows = np.array(rows, dtype=int)
        self._b_waves = waves
        self._b_signs = np.array(signs, dtype=float)

    def _build_noise(self) -> None:
        self.noise_sources: List[NoiseSource] = []
        for dev in self.devices:
            self.noise_sources.extend(dev.noise_sources())

    # ------------------------------------------------------------------
    @staticmethod
    def _local_voltages(x: np.ndarray, var_idx: np.ndarray) -> np.ndarray:
        """Gather device-local variables; ground (-1) reads as 0."""
        V = np.zeros((len(var_idx), x.shape[1]))
        for k, idx in enumerate(var_idx):
            if idx >= 0:
                V[k] = x[idx]
        return V

    def _eval_nl(self, x2d: np.ndarray):
        """Yield (dev, var_idx, eq_idx, f, q, df, dq) over nonlinear devices.

        The scalar reference path: one ``nl_eval`` call per device, in
        the canonical ``self._nl`` order.
        """
        for dev, var_idx, eq_idx in self._nl:
            V = self._local_voltages(x2d, var_idx)
            f, q, df, dq = dev.nl_eval(V)
            yield dev, var_idx, eq_idx, f, q, df, dq

    def _as2d(self, x: np.ndarray) -> Tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return x[:, None], True
        return x, False

    # --- the one nonlinear pass -------------------------------------------
    @spanned("mna.eval")
    def _eval_terms(self, x2d, f=None, q=None, g=None, c=None) -> None:
        """Evaluate every nonlinear group once over the samples ``x2d``.

        Scatters the f/q contributions onto ``f``/``q`` (``(n, m)``, in
        place) and writes the Jacobian entries, in
        :meth:`jacobian_pattern` order after the linear stamps, into
        ``g``/``c`` (``(nnz_nl, m)``).  Any output may be ``None``.
        """
        self._tls.evals += 1
        m = x2d.shape[1]
        pos = 0
        if self.vectorize:
            for grp in self._nl_groups:
                fv, qv, df, dq = grp.eval(x2d)
                # np.add.at is unbuffered and applies additions in index
                # order — the same (device, port) sequence as the scalar
                # loop, so duplicate-row sums are bit-identical
                if f is not None:
                    np.add.at(f, grp.eq_rows, fv.reshape(-1, m)[grp.eq_valid])
                if q is not None:
                    np.add.at(q, grp.eq_rows, qv.reshape(-1, m)[grp.eq_valid])
                # C-order flatten of (d, k_eq, k_in) matches the scalar
                # (device, eq, var) loop nest entry-for-entry
                end = pos + grp.jac_nnz
                if g is not None:
                    g[pos:end] = df.reshape(-1, m)[grp.jac_valid]
                if c is not None:
                    c[pos:end] = dq.reshape(-1, m)[grp.jac_valid]
                pos = end
            return
        for _, var_idx, eq_idx, fv, qv, df, dq in self._eval_nl(x2d):
            for a, row in enumerate(eq_idx):
                if row < 0:
                    continue
                if f is not None:
                    f[row] += fv[a]
                if q is not None:
                    q[row] += qv[a]
                for bb, col in enumerate(var_idx):
                    if col < 0:
                        continue
                    if g is not None:
                        g[pos] = df[a, bb]
                    if c is not None:
                        c[pos] = dq[a, bb]
                    pos += 1

    def _point(self, x2d: np.ndarray):
        """Memo entry ``(version, key, f, q, g_nl, c_nl)`` for one point.

        ``x2d`` is ``(n, 1)``.  A hit needs the same parameter version
        (summed ``_param_version`` of the nonlinear devices) and the
        same bytes of ``x``; a miss runs :meth:`_eval_terms` once and
        replaces the single entry.  The entry is immutable (read-only
        arrays, ``x`` kept as bytes) and swapped whole, so threads
        sharing the system never mix two points' terms.
        """
        key = x2d.tobytes()
        version = sum([dev._param_version for dev in self._nl_devices])
        memo = self._memo
        if memo is not None and memo[0] == version and memo[1] == key:
            self._tls.hits += 1
            return memo
        f = self.G_lin @ x2d
        q = self.C_lin @ x2d
        g = np.empty((self._nl_nnz, 1))
        c = np.empty((self._nl_nnz, 1))
        self._eval_terms(x2d, f, q, g, c)
        terms = (f[:, 0], q[:, 0], g[:, 0], c[:, 0])
        for arr in terms:
            arr.flags.writeable = False
        memo = self._memo = (version, key) + terms
        return memo

    # --- DAE terms -------------------------------------------------------
    def _term(self, x: np.ndarray, which: str) -> np.ndarray:
        x2d, squeeze = self._as2d(x)
        if self.has_nonlinear and x2d.shape[1] == 1:
            out = self._point(x2d)[2 if which == "f" else 3].copy()
            return out if squeeze else out[:, None]
        out = (self.G_lin if which == "f" else self.C_lin) @ x2d
        if self.has_nonlinear:
            self._eval_terms(x2d, **{which: out})
        return out[:, 0] if squeeze else out

    def f(self, x: np.ndarray) -> np.ndarray:
        """Resistive term f(x); accepts (n,) or (n, m)."""
        return self._term(x, "f")

    def q(self, x: np.ndarray) -> np.ndarray:
        """Charge/flux term q(x); accepts (n,) or (n, m)."""
        return self._term(x, "q")

    def b(self, t) -> np.ndarray:
        """Excitation vector; scalar t -> (n,), array t (m,) -> (n, m)."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t2 = np.atleast_1d(t_arr)
        out = np.zeros((self.n, t2.shape[0]))
        for row, wave, sign in zip(self._b_rows, self._b_waves, self._b_signs):
            out[row] += sign * wave(t2)
        return out[:, 0] if scalar else out

    def b_dc(self) -> np.ndarray:
        """DC component of the excitation (used by DC analysis)."""
        out = np.zeros(self.n)
        for row, wave, sign in zip(self._b_rows, self._b_waves, self._b_signs):
            out[row] += sign * wave.dc
        return out

    def source_frequencies(self) -> Tuple[float, ...]:
        """Distinct nonzero fundamentals present in the excitations."""
        freqs: List[float] = []
        for wave in self._b_waves:
            for f0 in wave.frequencies:
                if f0 > 0 and not any(abs(f0 - g) <= 1e-9 * g for g in freqs):
                    freqs.append(f0)
        return tuple(sorted(freqs))

    # --- Jacobians ---------------------------------------------------------
    def _point_jacobian(self, x: np.ndarray, which: str) -> sp.csr_matrix:
        base = self.G_lin if which == "G" else self.C_lin
        if not self.has_nonlinear or not self._nl_nnz:
            return base.copy()
        x2d, _ = self._as2d(x)
        vals = self._point(x2d)[4 if which == "G" else 5]
        extra = sp.csr_matrix(
            (vals, (self._nl_rows, self._nl_cols)), shape=(self.n, self.n)
        )
        return (base + extra).tocsr()

    def G(self, x: np.ndarray) -> sp.csr_matrix:
        """df/dx at a single operating point."""
        return self._point_jacobian(x, "G")

    def C(self, x: np.ndarray) -> sp.csr_matrix:
        """dq/dx at a single operating point."""
        return self._point_jacobian(x, "C")

    # --- batch Jacobians (HB / MPDE) ----------------------------------------
    def jacobian_pattern(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the combined per-sample Jacobian pattern.

        The pattern is the union of the linear G/C stamps and all
        nonlinear device blocks.  :meth:`batch_jacobians` returns values
        aligned with this fixed pattern, so HB/MPDE can pre-build one
        sparsity structure and refill data on every Newton iteration.
        """
        g_rows, g_cols, _ = self._g_lin_coo
        c_rows, c_cols, _ = self._c_lin_coo
        rows = np.concatenate([g_rows, c_rows, self._nl_rows]).astype(int)
        cols = np.concatenate([g_cols, c_cols, self._nl_cols]).astype(int)
        return rows, cols

    def batch_jacobians(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample G and C entry values aligned with jacobian_pattern().

        ``X`` has shape ``(n, m)``; returns ``(g_vals, c_vals)`` each of
        shape ``(nnz, m)``.
        """
        m = X.shape[1]
        nnz_gl = len(self._g_lin_coo[0])
        nnz_cl = len(self._c_lin_coo[0])
        pos = nnz_gl + nnz_cl
        g_vals = np.zeros((pos + self._nl_nnz, m))
        c_vals = np.zeros((pos + self._nl_nnz, m))
        g_vals[:nnz_gl] = self._g_lin_coo[2][:, None]
        c_vals[nnz_gl:pos] = self._c_lin_coo[2][:, None]
        if self.has_nonlinear:
            self._eval_terms(X, g=g_vals[pos:], c=c_vals[pos:])
        return g_vals, c_vals

    def batch_fq(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(f(X), q(X)) over sample columns; both shape (n, m)."""
        return self.f(X), self.q(X)

    # --- noise ---------------------------------------------------------------
    def noise_injection_vectors(self) -> List[Tuple[NoiseSource, np.ndarray]]:
        """(source, unit-injection column) pairs with ground rows dropped."""
        out = []
        for src in self.noise_sources:
            u = np.zeros(self.n)
            for row, sign in zip(src.rows, src.signs):
                if row >= 0:
                    u[row] += sign
            out.append((src, u))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MNASystem({self.title!r}, n={self.n}, nodes={len(self.node_names)}, "
            f"branches={len(self.branch_owner)}, devices={len(self.devices)}, "
            f"stamp={'vectorized' if self.vectorize else 'scalar'})"
        )
