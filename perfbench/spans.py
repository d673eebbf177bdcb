"""In-memory spans around the public functions of each ``magictrap`` layer.

:class:`Tracer` wraps named public functions and rebinds every module
attribute that refers to them, including the ones bound by
``from module import name``, so calls between layers are recorded too.
A span is (name, start, end, parent, operation); spans are kept in flat
arrays and only summarised after the traced pass.  A name that no longer
exists is skipped and reads as zero calls.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# module -> public names wrapped; span names are "<module>.<name>"
TARGETS = {
    "cli": ("main", "run", "emit_csv"),
    "config": ("load_config",),
    "potentials": ("calibrate_morse", "CoupledModel.constant_coupling",
                   "CoupledModel.with_shift"),
    "radial": ("solve_single", "solve_coupled", "radial_matrix_element", "linewidth"),
    "angular": ("wigner3j", "rot_tensor_element", "angular_factors", "resonance_offsets"),
    "polarizability": ("alpha_analytic", "alpha_imag"),
    "hyperfine": ("build_hamiltonian", "diagonalize", "eigenstate_polarizability",
                  "polarization_operator", "track_states"),
    "magic": ("find_magic_detuning", "find_magic_angle", "calibrate_gamma"),
}

PACKAGE = "magictrap"


def _solve_note(span: str, fn):
    """(dim, key) of a radial solve: matrix dimension and what it solved."""
    sig = inspect.signature(fn)
    channels = 2 if span.endswith("coupled") else 1

    def note(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        a = bound.arguments
        system = a.get("model", a.get("curve"))
        grid = a["grid"]
        key = (span, repr(system), a["j"], repr(grid), a["mass_amu"])
        return channels * grid.n, key

    return note


class Tracer:
    """Span recorder; :meth:`installed` wraps the targets for one block."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.notes: dict[int, tuple] = {}
        self.missing: list[str] = []
        self.current_op = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span: str, fn, note=None):
        """``fn`` recording one span per call, nested under the open span."""
        nid = self._name_id(span)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, notes = self._stack, self.notes

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            if note is not None:
                notes[idx] = note(args, kwargs)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets=TARGETS, package: str = PACKAGE):
        """Wrap every target inside the block and restore the originals after."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        undo = []
        try:
            for mod_name, attrs in targets.items():
                module = sys.modules.get(f"{package}.{mod_name}")
                for attr in attrs:
                    span = f"{mod_name}.{attr}"
                    if module is None or not self._install(module, attr, span, modules, undo):
                        self.missing.append(span)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def _install(self, module, attr: str, span: str, modules, undo) -> bool:
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return False
        raw = inspect.getattr_static(owner, name, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            undo.append((owner, name, raw))
            setattr(owner, name, classmethod(self.wrap(span, raw.__func__)))
            return True
        if not callable(raw):
            return False
        note = _solve_note(span, raw) if span in ("radial.solve_single",
                                                  "radial.solve_coupled") else None
        wrapped = self.wrap(span, raw, note)
        if owner is not module:
            undo.append((owner, name, raw))
            setattr(owner, name, wrapped)
            return True
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)
        return True

    # ---- summaries ---------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write all spans as arrays, with the name table, to ``path`` (.npz)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it covered by its children.

    Children may overlap one another; covered time is the length of the
    union of their intervals, clipped to the parent's interval.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    order = np.argsort(start, kind="stable").tolist()
    st, en, par = start.tolist(), end.tolist(), np.asarray(parent).tolist()
    covered = [0.0] * len(st)
    reach: dict[int, float] = {}
    for i in order:
        p = par[i]
        if p < 0:
            continue
        lo = max(st[i], st[p], reach.get(p, st[p]))
        hi = min(en[i], en[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, st[p]), en[i])
    return end - start - np.asarray(covered)


class Summary:
    """Per-name calls, inclusive and self seconds, over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.tracer = tracer
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.op = a["op"]
        self.dur = a["end"] - a["start"]
        self.self_s = self_times(a["start"], a["end"], a["parent"])

    def _mask(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(span)

    def calls(self, span: str) -> int:
        return int(self._mask(span).sum())

    def seconds(self, span: str) -> float:
        return float(self.dur[self._mask(span)].sum())

    def self_seconds(self, span: str) -> float:
        return float(self.self_s[self._mask(span)].sum())

    def _layer_mask(self, layer: str) -> np.ndarray:
        in_layer = np.array([n.split(".", 1)[0] == layer for n in self.names], dtype=bool)
        return in_layer[self.name] if in_layer.size else np.zeros(self.name.size, dtype=bool)

    def layer_seconds(self, layer: str) -> float:
        """Inclusive time of the layer's outermost spans (nested ones not counted twice)."""
        mine = self._layer_mask(layer)
        parent_mine = np.zeros_like(mine)
        has_parent = self.parent >= 0
        parent_mine[has_parent] = mine[self.parent[has_parent]]
        return float(self.dur[mine & ~parent_mine].sum())

    def layer_self_seconds(self, layer: str) -> float:
        return float(self.self_s[self._layer_mask(layer)].sum())

    def descendants_per_call(self, child: str, ancestor: str) -> float:
        """Mean number of ``child`` spans beneath each ``ancestor`` span."""
        n_anc = self.calls(ancestor)
        if n_anc == 0 or child not in self.names:
            return 0.0
        anc_id = self.names.index(ancestor)
        count = 0
        for i in np.flatnonzero(self._mask(child)).tolist():
            p = int(self.parent[i])
            while p >= 0 and self.name[p] != anc_id:
                p = int(self.parent[p])
            count += p >= 0
        return count / n_anc

    def solve_stats(self) -> tuple[int, float]:
        """(sum of dim**3, share of solves repeating an earlier one in the same op)."""
        notes = self.tracer.notes
        seen, repeats, dim3 = set(), 0, 0
        for idx in sorted(notes):
            dim, key = notes[idx]
            dim3 += dim ** 3
            tagged = (int(self.op[idx]), key)
            repeats += tagged in seen
            seen.add(tagged)
        return dim3, (repeats / len(notes) if notes else 0.0)


def layer_metrics(summary: Summary, wall_s: float, untraced_wall_s: float,
                  csv_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``wall_s`` is the traced pass's wall time, ``untraced_wall_s`` that of
    the same pass run untraced just before, and ``csv_bytes`` the size of
    the CSVs the traced pass wrote.
    """
    s = summary
    out: dict[str, float] = {}
    for name in ("radial.solve_single", "radial.solve_coupled",
                 "radial.radial_matrix_element", "radial.linewidth",
                 "polarizability.alpha_imag", "config.load_config",
                 *(f"hyperfine.{n}" for n in ("build_hamiltonian", "diagonalize",
                                              "eigenstate_polarizability",
                                              "polarization_operator", "track_states"))):
        out[f"{name}.calls"] = s.calls(name)
        out[f"{name}.s"] = s.seconds(name)
    dim3, repeat = s.solve_stats()
    out["radial.eigh_dim3_sum"] = dim3
    out["radial.repeat_solve_ratio"] = repeat
    solve_s = out["radial.solve_single.s"] + out["radial.solve_coupled.s"]
    out["radial.share_of_wall"] = solve_s / wall_s if wall_s > 0 else 0.0
    out["potentials.s"] = s.layer_seconds("potentials")
    out["angular.wigner3j.calls"] = s.calls("angular.wigner3j")
    out["angular.rot_tensor_element.calls"] = s.calls("angular.rot_tensor_element")
    out["angular.self_s"] = s.layer_self_seconds("angular")
    n_alpha = s.calls("polarizability.alpha_analytic")
    out["polarizability.alpha_analytic.calls"] = n_alpha
    out["polarizability.alpha_analytic.s"] = s.seconds("polarizability.alpha_analytic")
    out["polarizability.alpha_analytic.us_per_call"] = (
        1e6 * out["polarizability.alpha_analytic.s"] / n_alpha if n_alpha else 0.0)
    for name in ("find_magic_detuning", "find_magic_angle", "calibrate_gamma"):
        out[f"magic.{name}.calls"] = s.calls(f"magic.{name}")
        out[f"magic.{name}.self_s"] = s.self_seconds(f"magic.{name}")
    out["magic.diagonalize_per_angle_search"] = s.descendants_per_call(
        "hyperfine.diagonalize", "magic.find_magic_angle")
    out["magic.alpha_per_detuning_search"] = s.descendants_per_call(
        "polarizability.alpha_analytic", "magic.find_magic_detuning")
    out["cli.run.self_s"] = s.self_seconds("cli.run")
    out["cli.emit_csv.s"] = s.seconds("cli.emit_csv")
    out["cli.csv_bytes"] = csv_bytes
    out["trace.spans"] = len(s.tracer)
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    return out
