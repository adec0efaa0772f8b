"""The benchmark wraps functions by name; each name must still resolve.

``perfbench/spans.py`` replaces every name of its ``BOUNDARIES`` table with
``getattr``/``setattr`` on the module where callers look it up, so a name
that leaves its module aborts every traced benchmark run.
``perfbench/worker.py`` records each ``synthetic`` grid by replacing
``moments.build_grid``, so the command must look it up there at call time.
A traced run must also get through the span notes, which read the call
shape of ``certify_sign`` and its result, and the Dirichlet kernel nodes
must sum their series through ``dirichlet.phi_char``, or its count reads 0.
"""

import importlib
import importlib.util
from pathlib import Path

from mpmath import workprec

from momentsieve import cli, moments

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_boundary_resolves():
    spans = load_spans()
    missing = [
        f"{module_name}.{name}"
        for module_name, names in spans.BOUNDARIES.items()
        for name in names
        if not callable(getattr(
            importlib.import_module(f"momentsieve.{module_name}"), name, None))
    ]
    assert missing == []


def test_synthetic_grid_goes_through_moments_build_grid(monkeypatch, capsys):
    grids = []
    build_grid = moments.build_grid

    def recording(*args, **kwargs):
        grids.append(build_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(moments, "build_grid", recording)
    code = cli.main(["synthetic", str(ROOT / "fixtures" / "wide_pair.zeros"),
                     "--L", "1"])
    capsys.readouterr()
    assert code == 2
    assert len(grids) == 1


def test_traced_run_notes_every_certified_cell(monkeypatch, capsys):
    spans = load_spans()
    modules = {name: importlib.import_module(f"momentsieve.{name}")
               for name in spans.BOUNDARIES}
    for name, attrs in spans.BOUNDARIES.items():  # restored at teardown
        for attr in attrs:
            monkeypatch.setattr(modules[name], attr,
                                getattr(modules[name], attr))
    tracer = spans.Tracer()
    tracer.install(modules)
    # the note reads a policy from a second positional argument, so a
    # positional radius would abort this run
    code = modules["cli"].main(
        ["synthetic", str(ROOT / "fixtures" / "wide_pair.zeros"),
         "--L", "1", "--nmax", "2", "--kmax", "2"])
    capsys.readouterr()
    assert code == 2
    notes = [tracer.notes[i] for i, span in enumerate(tracer.spans)
             if span[0] == "numkernel.certify_sign"]
    assert len(notes) == 9
    assert all(bits_used == 256 for _, bits_used, _ in notes)


def test_traced_char_coeffs_counts_phi_char(monkeypatch):
    spans = load_spans()
    modules = {name: importlib.import_module(f"momentsieve.{name}")
               for name in spans.BOUNDARIES}
    for name, attrs in spans.BOUNDARIES.items():  # restored at teardown
        for attr in attrs:
            monkeypatch.setattr(modules[name], attr,
                                getattr(modules[name], attr))
    dirichlet = modules["dirichlet"]
    monkeypatch.setattr(dirichlet, "_char_kernel_cache", {})
    tracer = spans.Tracer()
    tracer.install(modules)
    with workprec(64):
        dirichlet.char_coeffs(dirichlet.characters_mod(5)[1], 4)
    names = [span[0] for span in tracer.spans]
    assert names[0] == "dirichlet.char_coeffs"
    kernel = [span for span in tracer.spans if span[0] == "dirichlet.phi_char"]
    assert kernel and all(span[3] == 0 for span in kernel)
