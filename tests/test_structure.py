"""Structure guards.

Callers ask surfaces and fields what they are instead of testing their
class, and the stepping core runs on plain floats.

Outside ``surfaces.py`` and ``cli._build_surface`` no code may call
``isinstance`` against a surface or field class or probe a surface for
``lx`` / ``ly`` with ``hasattr`` / ``getattr``; surfaces expose
``lattice``, ``constant_curvature``, ``floor`` and ``chart_line`` instead,
and fields ``value``, ``lattice`` and ``scale``.  The c0
bracket in ``critical.py`` and the splines in ``surfaces.py`` import
nothing from scipy, and region flux in ``regions.py`` goes only through a
primitive, never ``form_density``.  Primitives are chosen by
``fields.local_primitive`` alone.  Every public function and class of the
package is used somewhere, or is a listed library entry point.
"""
import ast
import collections
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "magsurf"
SURFACE_CLASSES = {"Surface", "FlatTorus", "RoundSphere", "HyperbolicPlane",
                   "ConformalTorus"}
FIELD_CLASSES = {"MagneticField", "ConstantField", "CallableField",
                 "TorusField", "CosineField"}
ALLOWED = {
    ("cli.py", "_build_surface"): None,     # any number
}


def _names(node):
    """Class names mentioned by an isinstance second argument."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    for e in elts:
        if isinstance(e, ast.Name):
            yield e.id
        elif isinstance(e, ast.Attribute):
            yield e.attr


def _is_probe(call):
    func = call.func
    if not isinstance(func, ast.Name) or len(call.args) < 2:
        return False
    if func.id == "isinstance":
        return bool((SURFACE_CLASSES | FIELD_CLASSES).intersection(
            _names(call.args[1])))
    if func.id in ("hasattr", "getattr"):
        arg = call.args[1]
        return isinstance(arg, ast.Constant) and arg.value in ("lx", "ly")
    return False


def _probe_sites(path):
    """(enclosing function, line) of every surface-type probe in a file."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func
        if isinstance(node, ast.Call) and _is_probe(node):
            sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_guard_detects_probes(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(surf, x):\n"
        "    if isinstance(surf, (int, FlatTorus)):\n"
        "        return getattr(surf, 'lx', 1.0)\n"
        "    return hasattr(surf, 'ly') or isinstance(x, float)\n"
        "def g(system):\n"
        "    return isinstance(system.field, fields.ConstantField)\n")
    assert [line for _, line in _probe_sites(bad)] == [2, 3, 4, 6]


def test_no_surface_type_probes_outside_surfaces():
    counts = collections.Counter()
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "surfaces.py":
            continue
        for func, line in _probe_sites(path):
            key = (path.name, func)
            if key not in ALLOWED:
                stray.append(f"{path.name}:{line} in {func}")
            counts[key] += 1
    assert not stray, "class probes outside the allow-list: " \
        + ", ".join(stray)
    for key, limit in ALLOWED.items():
        if limit is not None:
            assert counts[key] <= limit, f"{key} has {counts[key]} probes"


# The stepping core: the one RK4 loop text in flow.py, which the dt loop
# (and, run for one step without the chart line, the step cut short on a
# section at a crossing) is written and compiled from, and the helpers
# the conformal torus's step line calls (the cell lookup and Horner
# gradient of PeriodicBicubic), use no numpy.  make_rhs, the reference
# right-hand side, reads the surface's conformal and the field's eval
# through _accel and makes floats of the result.  The classes' step_line
# texts are checked in test_dynamics.
CORE_FUNCTIONS = {"make_rhs", "_make_loop", "_code", "_write"}
CORE_METHODS = {"cell_of", "patch_grad"}


def _numpy_uses(path):
    """(function, line) of every np/numpy name inside the stepping-core
    functions and methods of a file."""
    sites = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and (child.name in CORE_METHODS if in_class
                         else child.name in CORE_FUNCTIONS):
                sites.extend(
                    (child.name, n.lineno) for n in ast.walk(child)
                    if isinstance(n, ast.Name) and n.id in ("np", "numpy"))
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(ast.parse(path.read_text()), False)
    return sites


def test_core_guard_detects_numpy(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "def make_rhs(system):\n"
        "    def rhs(u):\n"
        "        return np.cos(u)\n"
        "    return rhs\n"
        "def integrate(u):\n"
        "    return np.sin(u)\n"
        "class Spline:\n"
        "    def patch_grad(self, c, dx, dy):\n"
        "        return float(numpy.exp(dx))\n"
        "    def eval(self, chart, u, v):\n"
        "        return np.exp(u)\n"
        "def patch_grad(u):\n"
        "    return np.exp(u)\n")
    assert _numpy_uses(bad) == [("make_rhs", 4), ("patch_grad", 10)]


def test_stepping_core_is_numpy_free():
    uses = [f"{path.name}:{line} in {func}"
            for path in sorted(SRC.glob("*.py"))
            for func, line in _numpy_uses(path)]
    assert not uses, "numpy in the stepping core: " + ", ".join(uses)
    flow = ast.parse((SRC / "flow.py").read_text())
    defined = {n.name for n in flow.body if isinstance(n, ast.FunctionDef)}
    assert CORE_FUNCTIONS <= defined
    methods = {n.name for path in SRC.glob("*.py")
               for c in ast.parse(path.read_text()).body
               if isinstance(c, ast.ClassDef)
               for n in c.body if isinstance(n, ast.FunctionDef)}
    assert CORE_METHODS <= methods


def test_one_compiled_stepping_core():
    """flow.py holds one function template, _LOOP, as a module-level
    string, and the package compiles and executes source text in one place
    each: every RK4 step runs in the one compiled loop."""
    flow = ast.parse((SRC / "flow.py").read_text())
    templates = [t.id for n in flow.body if isinstance(n, ast.Assign)
                 and isinstance(n.value, ast.Constant)
                 and isinstance(n.value.value, str)
                 and re.search(r"^\s*def \w+\(", n.value.value, re.M)
                 for t in n.targets]
    assert templates == ["_LOOP"]
    calls = collections.Counter(
        n.func.id for path in SRC.glob("*.py")
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id in ("compile", "exec"))
    assert calls == {"compile": 1, "exec": 1}


# The loop allocates nothing per step on CPython 3.11: an assignment of a
# tuple display to more than two names builds and unpacks a tuple (two are
# plain stores), and an int literal factor blocks the float * float
# specialization (PEP 659).  The guard reads the text written for the
# sphere, with its chart line.
def _is_int(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _loop_churn(source):
    """Sorted lines of every assignment of a tuple display to more than
    two names and of every product with an int literal factor."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple) \
                and any(isinstance(t, ast.Tuple) and len(t.elts) > 2
                        for t in node.targets):
            lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                and (_is_int(node.left) or _is_int(node.right)):
            lines.append(node.lineno)
    return sorted(lines)


def test_loop_guard_detects_churn():
    bad = ("x, y, p1, q1 = u, v, du, dv\n"
           "x, y = u, v\n"
           "chart, x, y, p, q = switch_chart(chart, x, y, p, q)\n"
           "x = u + s * (p1 + 2 * p2 + 2.0 * p3 + p4)\n"
           "xa, ya, pa, qa, x, y, p5, q5 = (\n"
           "    x, y, p5, q5, xa + g2 * p5, ya + g2 * q5,\n"
           "    pa + g2 * a5u, qa + g2 * a5v)\n"
           "g, w = h / 2, -1 / 360\n"
           "a = b * -3\n")
    assert _loop_churn(bad) == [1, 4, 5, 9]


def test_stepping_loop_allocates_no_tuples():
    from magsurf.fields import ConstantField
    from magsurf.flow import _write
    from magsurf.surfaces import RoundSphere

    text = _write(RoundSphere.step_line, ConstantField.step_line,
                  RoundSphere.chart_line)
    assert "switch_chart" in text and "macro" in text
    assert not _loop_churn(text), "tuple or int-product lines of the loop"


# The curve evolution reads edges, chords and normals off padded coordinate
# rows with plain slices: regions.py and ClosedPolyline make no rolled,
# stacked or np.linalg.norm temporaries.
CHURN_CALLS = {"roll", "linalg.norm", "column_stack", "vstack"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _churn_calls(path, classes=None):
    """(function, line) of every np.roll / np.linalg.norm /
    np.column_stack / np.vstack call in a file, or in the named classes."""
    tree = ast.parse(path.read_text())
    roots = tree.body if classes is None else [
        n for n in tree.body if isinstance(n, ast.ClassDef)
        and n.name in classes]
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            module, _, attr = name.partition(".")
            if module in ("np", "numpy") and attr in CHURN_CALLS:
                sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    for node in roots:
        visit(node, None)
    return sites


def test_churn_guard_detects_calls(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "def f(x):\n"
        "    return np.roll(x, 1), numpy.linalg.norm(x, axis=1)\n"
        "class Polyline:\n"
        "    def edges(self, x):\n"
        "        return np.column_stack([x, x])\n"
        "class Other:\n"
        "    def g(self, x):\n"
        "        return np.vstack([x]), np.linalg.det(x), x.roll()\n")
    assert _churn_calls(bad) == [("f", 3), ("f", 3), ("edges", 6),
                                 ("g", 9)]
    assert _churn_calls(bad, {"Polyline"}) == [("edges", 6)]


def test_curve_evolution_has_no_array_churn():
    sites = [f"regions.py:{line} in {func}"
             for func, line in _churn_calls(SRC / "regions.py")]
    sites += [f"surfaces.py:{line} in {func}" for func, line in
              _churn_calls(SRC / "surfaces.py", {"ClosedPolyline"})]
    assert not sites, "roll/norm/stack calls: " + ", ".join(sites)


# The c0 bracket is its own primal-dual loop on numpy's FFT, and the
# conformal factor and CSV fields are periodic splines built by numpy's FFT:
# critical.py and surfaces.py import nothing from scipy.
def _scipy_imports(path):
    """Line of every import of scipy or a scipy submodule in a file."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return lines


def test_scipy_guard_detects_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy, scipy\n"
        "from scipy.optimize import minimize\n"
        "import scipyx\n"
        "def f():\n"
        "    import scipy.fft as sf\n"
        "    from . import scipy_like\n"
        "    return sf\n")
    assert _scipy_imports(bad) == [1, 2, 5]


def test_critical_imports_no_scipy():
    lines = _scipy_imports(SRC / "critical.py")
    assert not lines, f"scipy imports in critical.py at lines {lines}"


def test_surfaces_import_no_scipy():
    lines = _scipy_imports(SRC / "surfaces.py")
    assert not lines, f"scipy imports in surfaces.py at lines {lines}"


# Region flux is a line integral of a chart primitive (Stokes): regions.py
# evaluates no density of sigma itself.
def _calls_named(path, name):
    """Sorted lines of every call of a function or method of that name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "attr", None),
                               getattr(node.func, "id", None)))


def test_call_guard_detects_calls(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(system, x):\n"
        "    d = system.form_density(0, x, x)\n"
        "    g = system.form_density\n"
        "    return form_density(x) + d.form_density_sum(x)\n")
    assert _calls_named(bad, "form_density") == [2, 4]


def test_regions_make_no_form_density_call():
    lines = _calls_named(SRC / "regions.py", "form_density")
    assert not lines, f"form_density calls in regions.py at lines {lines}"


# A primitive is theta and its line integral: the action's gradient is sigma
# times swept area, so no code asks a primitive for its Jacobian.
def test_no_code_calls_jacobian_many():
    calls = {path.name: _calls_named(path, "jacobian_many")
             for path in SRC.glob("*.py")}
    assert not {name: lines for name, lines in calls.items() if lines}


# One primitive policy: outside fields.py no code builds a chart primitive
# itself; it asks local_primitive.  The c0 witness, a FourierOneForm built
# in critical.py, is the one allowed constructor call.
PRIMITIVE_CLASSES = ("ClosedFormPrimitive", "LineIntegralPrimitive",
                     "TorusSpectralPrimitive", "FourierOneForm")


def test_primitives_are_built_only_by_local_primitive():
    calls = collections.Counter()
    for path in SRC.glob("*.py"):
        if path.name != "fields.py":
            for name in PRIMITIVE_CLASSES:
                calls[path.name, name] += len(_calls_named(path, name))
    assert +calls == {("critical.py", "FourierOneForm"): 1}


# Dead code: every public module-level function or class of the package is
# named somewhere else in it or in perfbench/, by a name, an attribute or a
# string constant (the tracer patches names given as strings).  Re-exports
# in __init__.py do not count.  LIBRARY_API holds the entry points that only
# the acceptance criteria and the README call.
PERFBENCH = SRC.parent.parent / "perfbench"
LIBRARY_API = {"CallableField", "gauss_bonnet_action_check",
               "liouville_action", "orbit_curvature_residual",
               "rotation_vector", "state_from_curve",
               "structural_relations_check"}


def _unreferenced(package, *others):
    """Sorted public module-level functions and classes of a package's
    modules (bar __init__.py) that no name, attribute or string constant
    of those modules or of the .py files in the ``others`` directories
    mentions."""
    modules = [ast.parse(path.read_text())
               for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"]
    defined = {node.name for tree in modules for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    named = set()
    for tree in modules + [ast.parse(path.read_text()) for d in others
                           for path in sorted(d.glob("*.py"))]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                named.add(node.value)
    return sorted(defined - named)


def test_dead_code_guard_detects_unnamed(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "__init__.py").write_text("from .a import Dead, dead\n")
    (pkg / "a.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def _private():\n"
        "    return used()\n"
        "def dead():\n"
        "    'dead is named only here'\n"
        "class Dead:\n"
        "    pass\n"
        "def patched():\n"
        "    return 2\n"
        "def attribute():\n"
        "    return 3\n")
    (pkg / "b.py").write_text("from . import a\nf = a.attribute\n")
    (bench / "tracer.py").write_text("PATCHES = [('a', 'patched')]\n")
    assert _unreferenced(pkg, bench) == ["Dead", "dead"]


def test_every_public_name_is_used():
    unused = _unreferenced(SRC, PERFBENCH)
    stray = sorted(set(unused) - LIBRARY_API)
    assert not stray, "public names nothing uses: " + ", ".join(stray)
    assert LIBRARY_API <= set(unused), \
        "used names still in LIBRARY_API: " \
        + ", ".join(sorted(LIBRARY_API - set(unused)))


# perfbench's tracer wraps names of the package by string and reads
# vars(cls)["conformal"] / vars(cls)["eval"] on the surface and field
# classes.  Building its wrappers (without putting them in place) fails on
# any of those names that is gone, so a deletion shows here and not only
# in a traced benchmark run.
def test_tracer_finds_every_name_it_patches():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    patched = {(getattr(obj, "__name__", None), attr)
               for obj, attr, _, _ in tracer._patches}
    assert ("magsurf.flow", "make_rhs") in patched
    assert ("magsurf.cli", "_COMMANDS") in patched
    for cls in ("FlatTorus", "RoundSphere", "HyperbolicPlane",
                "ConformalTorus"):
        assert (cls, "conformal") in patched
    for cls in ("ConstantField", "TorusField"):
        assert (cls, "eval") in patched
    # install only records the wrappers: the package is left untouched
    for obj, attr, old, _ in tracer._patches:
        assert getattr(obj, attr) is old
