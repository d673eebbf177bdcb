"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They stand in for the CLI with fakes, so they need neither the package
nor a checkout.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import workloads
import worker
from pace import Pace, slowdown
from run import layer_unit
from spans import Summary, Tracer, layer_metrics, self_times


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(name):
    a = workloads.build_ops(name, 7)
    b = workloads.build_ops(name, 7)
    c = workloads.build_ops(name, 8)
    assert [op.argv for op in a] == [op.argv for op in b]
    assert [op.argv for op in a] != [op.argv for op in c]
    # the seed changes values, never the amount of work
    assert [op.label for op in a] == [op.label for op in c]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_argv_uses_only_stable_flags(name):
    for op in workloads.build_ops(name, 3):
        flags = [a for a in op.argv[1:] if a.startswith("--")]
        assert set(flags) <= {"--override"}
        overrides = op.argv[2::2]
        assert not any(o.startswith("output.") for o in overrides)


def test_search_has_at_least_100_angle_searches():
    labels = [op.label for op in workloads.build_ops("search", 1)]
    assert labels.count("magic_angle") >= 100
    assert labels.count("magic_detuning") == labels.count("calibrate") == 5


class FakeCli:
    """Stands in for ``magictrap.cli``: writes a fixed CSV and returns 0."""

    def __init__(self, text: str):
        self.text = text

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        (out / (argv[0].replace("-", "_") + ".csv")).write_text(self.text)
        print("chatter that must not reach the terminal")
        return 0


def test_wrong_csv_counts_as_failed(tmp_path, capsys):
    op = next(op for op in workloads.build_ops("search", 1) if op.label == "calibrate")
    target = op.expect["target"]
    header = "j_a,j_b,m,target_ghz,gamma_hz,crossing_ghz,residual_au\n"
    good = worker.run_op(FakeCli(header + f"0,1,0,{target},6e3,{target},0\n"), op, tmp_path)
    assert "error" not in good and len(good["sha256"]) == 64
    bad = worker.run_op(FakeCli(header + f"0,1,0,{target},6e3,{target + 0.1},0\n"), op, tmp_path)
    assert "error" in bad
    short = worker.run_op(FakeCli(header), op, tmp_path)
    assert "error" in short
    assert capsys.readouterr().out == ""


def test_wrong_scan_row_count_fails(tmp_path):
    op = next(op for op in workloads.build_ops("scan", 1) if op.label == "alpha_scan")
    (tmp_path / "alpha_scan.csv").write_text("detuning_ghz,j,m,alpha_au\n1.0,0,0,2.0\n")
    with pytest.raises(workloads.CheckError):
        workloads.check_op(op, tmp_path)


def test_positive_im_alpha_below_resonance_fails(tmp_path):
    levels = ("state,v,j,energy_cm1,b_rot_cm1,frac_a,frac_b\n"
              "X,0,0,-100.0,0.07,1,0\n"
              "Ab,0,1,11206.4,0.07,0.1,0.9\n")
    (tmp_path / "solve_rovib.csv").write_text(levels)
    # the J=0 line sits at detuning 0 for a 11306.4 cm-1 reference
    good = [["-10.0", "0", "0", "-1e-9"], ["10.0", "0", "0", "1e-9"]]
    bad = [["-10.0", "0", "0", "1e-9"]]
    op = workloads.Op("imag_scan", ("imag-scan",), {"rows": None, "transition_cm1": 11306.4})
    for rows, ok in ((good, True), (bad, False)):
        text = "detuning_ghz,j,m,im_alpha_au\n" + "".join(",".join(r) + "\n" for r in rows)
        (tmp_path / "imag_scan.csv").write_text(text)
        op.expect["rows"] = len(rows)
        if ok:
            workloads.check_op(op, tmp_path)
        else:
            with pytest.raises(workloads.CheckError):
                workloads.check_op(op, tmp_path)


def test_ladder_must_increase():
    ops = [op for op in workloads.build_ops("search", 1) if op.label == "magic_detuning"]
    assert workloads.check_pass(ops, [103.0, 105.1, 108.1, 111.7, 115.8]) == set()
    assert workloads.check_pass(ops, [103.0, 105.1, 104.0, 111.7, 115.8]) == set(range(5))


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [3, 6], which overlap; a holds c [2, 3];
    # d [9, 12] runs past the end of root and is clipped to it
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = self_times(start, end, parent)
    assert got.tolist() == pytest.approx([10 - 5 - 1, 3 - 1, 1, 3, 3])


LIB_SOURCE = """
def g(x):
    return 2 * x

def f(x):
    return g(x) + 1

class Model:
    @classmethod
    def build(cls, x):
        return cls, f(x)
"""
USER_SOURCE = """
from fakepkg.lib import f

def call(x):
    return f(x)
"""


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.lib defines f and a classmethod; fakepkg.user imports f by name."""
    modules = []
    for name, source in (("fakepkg", ""), ("fakepkg.lib", LIB_SOURCE),
                         ("fakepkg.user", USER_SOURCE)):
        module = types.ModuleType(name)
        monkeypatch.setitem(sys.modules, name, module)
        exec(source, module.__dict__)
        modules.append(module)
    return modules[1], modules[2]


def test_tracer_rebinds_imported_names_and_tolerates_missing(fake_package):
    lib, user = fake_package
    original = lib.f
    t = Tracer()
    targets = {"lib": ("f", "gone", "Model.build", "Model.absent"), "nomodule": ("h",)}
    with t.installed(targets, package="fakepkg"):
        assert user.f is not original
        assert user.call(3) == 7
        assert lib.Model.build(1) == (lib.Model, 3)
    assert user.f is original and lib.f is original
    assert isinstance(vars(lib.Model)["build"], classmethod)
    assert sorted(t.missing) == ["lib.Model.absent", "lib.gone", "nomodule.h"]
    s = Summary(t)
    assert s.calls("lib.f") == 2
    assert s.calls("lib.Model.build") == 1
    assert s.calls("lib.gone") == 0
    assert s.descendants_per_call("lib.f", "lib.Model.build") == 1.0


def test_layer_metrics_of_empty_trace_are_zero():
    m = layer_metrics(Summary(Tracer()), wall_s=1.0, untraced_wall_s=1.0, csv_bytes=0)
    assert m["radial.solve_coupled.calls"] == 0
    assert m["radial.repeat_solve_ratio"] == 0.0
    assert m["magic.diagonalize_per_angle_search"] == 0.0
    assert all(v == 0 for v in m.values())


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = list(layer_metrics(Summary(Tracer()), 1.0, 1.0, 0))
    assert [m["name"] for m in bench["per_layer"]] == names
    assert all(m["unit"] == layer_unit(m["name"]) for m in bench["per_layer"])


def test_slowdown_is_geometric_mean_of_kernel_ratios():
    # kernel 0 runs at twice its nominal time, kernel 1 at half
    before = [[2.0, 2.0], [0.5]]
    after = [[2.0], [0.5, 0.5]]
    assert slowdown(before, after, nominal=(1.0, 1.0)) == pytest.approx(1.0)
    assert slowdown([[3.0]], [[1.0]], nominal=(1.0,)) == pytest.approx(2.0)


def test_pace_scales_by_the_probe_around_each_call(monkeypatch):
    clock = iter(range(10**6))
    monkeypatch.setattr("pace.time.perf_counter", lambda: next(clock) * 2.0)
    # every kernel call reads as 2 s against a nominal 1 s: a host at half speed
    p = Pace(kernels=(lambda: None,), nominal=(1.0,), unit_s=1.0)
    assert p.scale(1.0) == pytest.approx(0.5)
    # a long call keeps its raw time
    assert p.scale(10.0) == 10.0
    assert p.factors == [pytest.approx(2.0)] * 2
