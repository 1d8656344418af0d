"""Static checks on the package source: no module, test or demo imports a
name it never uses, every public name has a caller and every annotated
field of a class a reader, or a stated reason to exist, only mesh.py knows
the geometry of a mesh or touches its operator memo, the only splu call of
the package is dynamics.py's counted helper, every eigsh call passes its
own OPinv, so that ARPACK's shift-invert factors nothing by SuperLU, and
its own ncv, eigen_solve slices no sparse matrix, neither the steppers nor
the time loop build a sparse matrix, apply an operator through scipy's @
or evaluate the nonlinearity outside the one pass per iterate, per Newton
iteration or per step (CG's loop included), only dynamics.py writes the
hex text of a state or applies the energy slack, the Fourier block
eigensolve solves each mode as one standard problem through
scipy.linalg.eigh, the only dense eigensolve of the package, import bsac
and every demo, through demos/_one_blas_thread.py, pin one BLAS thread
unless the caller chose a count before numpy is imported, and each
diagnostic has one home: only energy.robin_residual takes a normal
derivative, and the CLI neither validates a spec nor solves a pencil
itself; and import bsac loads neither scipy.fft, scipy.integrate nor
scipy.sparse.csgraph."""

import ast
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bsac"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_sees_every_import_form():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import scipy.sparse\nfrom a import b, c as d\n"
              "def f(x: d) -> None:\n    return np.zeros(1) + scipy.sparse.eye(1)\n")
    assert unused_imports(source) == ["b", "os"]


# the tests and demos too, so a removed name leaves no stale import behind
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
# imported for its effect: it pins one BLAS thread before numpy loads
SIDE_EFFECT_IMPORTS = {"_one_blas_thread"}


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_module_has_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert [name for name in unused if name not in SIDE_EFFECT_IMPORTS] == []


def references(node: ast.AST) -> Counter:
    """How often each name is read under node: names, attribute names and
    string constants (the benchmark tracer names the methods it patches)."""
    return Counter(n.id if isinstance(n, ast.Name) else getattr(n, "attr", n.value)
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   or isinstance(n, ast.Constant) and isinstance(n.value, str))


def uncalled_public_names(modules: dict, outside: list) -> list:
    """module.name of each public top-level function and class, and
    module.Class.name of each public method, of the modules ({name: source})
    whose name no module reads outside its own definition and no source in
    outside reads at all."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    inside = sum((references(tree) for tree in trees.values()), Counter())
    external = sum((references(ast.parse(source)) for source in outside), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                members += [(m, f"{node.name}.{m.name}") for m in node.body
                            if isinstance(m, ast.FunctionDef)]
            for member, name in members:
                if (not member.name.startswith("_") and not external[member.name]
                        and inside[member.name] == references(member)[member.name]):
                    found.append(f"{module}.{name}")
    return found


def test_detector_sees_every_uncalled_public_name():
    modules = {
        "a": ("def used():\n    pass\ndef unused():\n    return unused()\n"
              "def _private():\n    pass\nclass Box:\n    def __init__(self):\n"
              "        self.read()\n    def read(self):\n        return used()\n"
              "    def dead(self):\n        pass\n    def patched(self):\n        pass\n"
              "class _Hidden:\n    def shown(self):\n        pass\n"
              "def benched():\n    pass\n"),
        "b": "import a\nbox = a.Box()\n",
    }
    outside = ["patch(a.Box, 'patched')\na.benched()\n"]
    assert uncalled_public_names(modules, outside) == ["a.unused", "a.Box.dead",
                                                       "a._Hidden.shown"]


# public names no module of the package and no benchmark script calls, each
# kept for a reason
UNCALLED_PUBLIC = [
    # the diagnostics behind the paper's claims, called by the acceptance
    # criteria, the demos and their own tests: criterion 8's rate envelope
    # (and demos/rate_probe.py), the limit-set singleton check, the second
    # order norm of the rate bound, criterion 2's dissipation balance, and
    # the nodewise residuals of an equilibrium
    "analysis.majorization_check",
    "analysis.convergence_diagnostic",
    "energy.w_norm",
    "energy.energy_identity_residual",
    "steady_spectral.strong_form_residuals",
    # accessors of result objects the package returns; criterion 5 and
    # demos/equilibrium_report.py read a coercivity scan's outcome through
    # succeeded
    "nonlinearity.ValidationReport.failed_clauses",
    "steady_spectral.EquilibriumState.is_stable",
    "steady_spectral.SpectralReport.succeeded",
]


def test_every_public_name_has_a_caller_or_a_reason():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    outside = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert sorted(uncalled_public_names(modules, outside)) == sorted(UNCALLED_PUBLIC)


def unread_fields(modules: dict, readers: list) -> list:
    """module.Class.field of each annotated class field of the modules
    ({name: source}) that no source in readers reads as an attribute; an
    attribute that is called, x.name(...), is a method call, not a read."""
    read = set()
    for source in readers:
        tree = ast.parse(source)
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and id(node) not in called}
    return [f"{module}.{cls.name}.{node.target.id}"
            for module, source in modules.items()
            for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and node.target.id not in read]


def test_detector_sees_every_unread_field():
    modules = {"a": ("class Report:\n    value: float\n    spare: float = 0.0\n"
                     "    written: int\n    total = 0\n    def __init__(self):\n"
                     "        self.written = 1\n        self.other = 2\n"
                     "class _Hidden:\n    kept: str\n    lost: list\n    called: int\n"
                     "    grown: list\n")}
    # called is only ever called, as a method of the same name; grown is read
    # to call a method on it
    readers = [modules["a"], "print(report.value, h.kept, getattr(r, 'spare'))\n",
               "self.called(state)\nh.grown.append(1)\n"]
    assert unread_fields(modules, readers) == ["a.Report.spare", "a.Report.written",
                                               "a._Hidden.lost", "a._Hidden.called"]


# result fields that nothing reads yet, each kept for a reason
UNREAD_FIELDS = [
    # each step's last Newton residual and its shift S: ROADMAP item 9's
    # steps.csv writes both
    "dynamics.StepDiagnostics.newton_residual",
    "dynamics.StepDiagnostics.stabilization",
]


def test_every_result_field_has_a_reader():
    # a field that nothing reads is a result computed and thrown away
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8") for p in [
        *SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py")]]
    assert sorted(unread_fields(modules, readers)) == sorted(UNREAD_FIELDS)


def pins_blas_before_numpy(source: str) -> bool:
    """Whether the script imports demos/_one_blas_thread.py before its first
    import of numpy, scipy or bsac."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                a.name for a in node.names]
            if "_one_blas_thread" in names:
                return True
            if any(str(name).partition(".")[0] in ("numpy", "scipy", "bsac") for name in names):
                return False
    return False


def test_detector_sees_the_blas_pin_before_numpy():
    pin = "import _one_blas_thread  # noqa: F401\n"
    assert pins_blas_before_numpy(pin + "import numpy as np\n")
    assert pins_blas_before_numpy('"""doc"""\nimport argparse\n' + pin + "from bsac import x\n")
    assert not pins_blas_before_numpy("import numpy as np\n" + pin)
    assert not pins_blas_before_numpy("import os\nimport scipy.sparse\n")


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("[!_]*.py")), ids=lambda p: p.name)
def test_demos_pin_one_blas_thread_before_numpy(path):
    # as tests/conftest.py and the benchmark do: a demo's numbers then do
    # not depend on the core count
    assert pins_blas_before_numpy(path.read_text(encoding="utf-8"))


def test_demo_blas_pin_keeps_the_callers_setting(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    runpy.run_path(str(ROOT / "demos" / "_one_blas_thread.py"))
    assert (os.environ["OPENBLAS_NUM_THREADS"], os.environ["MKL_NUM_THREADS"]) == ("2", "1")


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads_on_import(**preset) -> list:
    """In a fresh interpreter whose BLAS variables are only preset, the
    OpenBLAS count when numpy is first imported, then the three variables,
    after import bsac."""
    code = ("import os, sys\nseen = []\n"
            "class Watch:\n    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.meta_path.insert(0, Watch())\nimport bsac\n"
            f"print(*seen, *(os.environ.get(v) for v in {BLAS_VARIABLES!r}))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**env, **preset, "PYTHONPATH": path})
    return result.stdout.split()


def test_importing_bsac_first_pins_one_blas_thread():
    # as the console script does: one thread unless the caller chose a
    # count, in place before numpy loads its BLAS
    assert blas_threads_on_import() == ["1", "1", "1", "1"]
    assert blas_threads_on_import(OPENBLAS_NUM_THREADS="2") == ["2", "2", "1", "1"]


# scipy modules that import bsac leaves unloaded: scipy.fft and
# scipy.integrate cost start-up time and memory that no command needs, and
# steady_spectral imports csgraph only where reverse Cuthill-McKee runs
LAZY_MODULES = ("scipy.fft", "scipy.integrate", "scipy.sparse.csgraph")


def loaded_lazy_modules(statement: str) -> list:
    """The LAZY_MODULES that a fresh interpreter holds after running
    statement, with the package's sources first on its path."""
    code = f"import sys\n{statement}\nprint(*(m for m in {LAZY_MODULES!r} if m in sys.modules))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": path})
    return result.stdout.split()


def test_detector_sees_a_lazy_module_loaded():
    assert loaded_lazy_modules("import scipy.sparse.csgraph") == ["scipy.sparse.csgraph"]


def test_importing_bsac_loads_no_lazy_module():
    assert loaded_lazy_modules("import bsac") == []


def mesh_internals(source: str) -> list:
    """Attribute accesses named `cache`, and reads of `geometry` on a mesh."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr == "cache"
                or node.attr == "geometry" and ast.unparse(node.value).endswith("mesh")):
            found.append(ast.unparse(node))
    return sorted(found)


def test_detector_sees_mesh_cache_and_geometry():
    source = ("mesh.cache[key] = 1\nself.mesh.cache.clear()\n"
              "if mesh.geometry == 'disk':\n    g = self.mesh.geometry\n"
              "config.geometry\nself.geometry\ngeometry = 'disk'\n")
    assert mesh_internals(source) == ["mesh.cache", "mesh.geometry", "self.mesh.cache",
                                      "self.mesh.geometry"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "mesh.py"],
                         ids=lambda p: p.name)
def test_only_mesh_module_knows_geometry_and_memo(path):
    assert mesh_internals(path.read_text(encoding="utf-8")) == []


def callers(source: str, name: str) -> list:
    """The innermost enclosing function of each call of name, in source order."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "attr", None), getattr(child.func, "id", None)):
                found.append(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_sees_every_splu_call():
    source = ("from scipy.sparse.linalg import splu\nlu = splu(a)\n"
              "class S:\n    def step(self, m):\n"
              "        def inner():\n            return spla.splu(m).solve(b)\n"
              "        f = lambda: splu(m)\n        return spla.splu(m, permc_spec='x')\n"
              "spla.factorized(a)\nclass T:\n    def f(self):\n        spsolve(a, b)\n")
    assert callers(source, "splu") == ["<module>", "inner", "<lambda>", "step"]
    assert callers(source, "factorized") == ["<module>"]
    assert callers(source, "spsolve") == ["f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dynamics_factors_only_in_its_counted_helper(path):
    # the factorization counts of records and equilibria are honest only if
    # every LU, semi-implicit and stationary ones included, goes through the
    # counting helper, and no other module factors a Newton system itself
    expected = ["_factor"] if path.name == "dynamics.py" else []
    assert callers(path.read_text(encoding="utf-8"), "splu") == expected


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_factors_outside_the_counted_helper(path):
    # factorized and spsolve build an LU too, one that no count would see
    source = path.read_text(encoding="utf-8")
    assert callers(source, "factorized") + callers(source, "spsolve") == []


def eigsh_calls_without_inverse_or_basis(source: str) -> list:
    """Each eigsh call, as written, that passes no OPinv or no ncv keyword:
    without OPinv scipy factors the shifted pencil itself by SuperLU, and
    without ncv it runs a Lanczos basis of at least 20 vectors, whatever the
    number of pairs asked for. A ** argument does not count as either."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and "eigsh" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None))
            and not {"OPinv", "ncv"} <= {k.arg for k in node.keywords}]


def test_detector_sees_every_eigsh_call_without_inverse_or_basis():
    source = ("from scipy.sparse.linalg import eigsh\nv = eigsh(a, k=1, sigma=0.0)\n"
              "def solve(a, m, op, options):\n"
              "    spla.eigsh(a, M=m, sigma=0.0, ncv=4, OPinv=op)\n"
              "    spla.eigsh(a, M=m, sigma=0.0, OPinv=op)\n"
              "    spla.eigsh(a, k=2, ncv=6)\n"
              "    f = lambda: scipy.sparse.linalg.eigsh(a, 2, m)\n"
              "    return spla.eigsh(a, **options)\n")
    assert sorted(eigsh_calls_without_inverse_or_basis(source)) == [
        "eigsh(a, k=1, sigma=0.0)", "scipy.sparse.linalg.eigsh(a, 2, m)",
        "spla.eigsh(a, **options)", "spla.eigsh(a, M=m, sigma=0.0, OPinv=op)",
        "spla.eigsh(a, k=2, ncv=6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_eigsh_call_passes_its_inverse_and_basis(path):
    # the one shift-invert route: eigen_solve's OPinv is the caller's solve
    # or the band solve of the shifted pencil, never scipy's own SuperLU, and
    # its Lanczos basis is sized to the request, so each inner solve serves
    # a pair that is returned
    source = path.read_text(encoding="utf-8")
    assert eigsh_calls_without_inverse_or_basis(source) == []
    assert callers(source, "eigsh") == (["eigen_solve"] if path.name == "steady_spectral.py"
                                        else [])


# calls that bind a sparse matrix: eigen_solve's pencil conversion, the
# scipy.sparse constructors and format conversions
SPARSE_BINDERS = ("_as_matrix", "csr_matrix", "csc_matrix", "diags", "tocsr", "tocsc")


def sparse_subscripts(source: str, function: str) -> list:
    """Each subscript, as written, of a sparse matrix inside the named
    function: of a name that an assignment there binds to the result of one
    of SPARSE_BINDERS. Rows of a CSR matrix are read through mesh.matvec's
    row range instead, which copies no submatrix."""
    found = []
    for owner in ast.walk(ast.parse(source)):
        if not (isinstance(owner, ast.FunctionDef) and owner.name == function):
            continue
        sparse = set()
        for node in ast.walk(owner):
            if isinstance(node, ast.Assign) and any(
                    isinstance(call, ast.Call) and (getattr(call.func, "attr", None)
                                                    or getattr(call.func, "id", None))
                    in SPARSE_BINDERS for call in ast.walk(node.value)):
                sparse |= {name.id for target in node.targets for name in ast.walk(target)
                           if isinstance(name, ast.Name)}
        found += [ast.unparse(node) for node in ast.walk(owner)
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                  and node.value.id in sparse]
    return found


def test_detector_sees_sparse_row_slices():
    source = ("def eigen_solve(pair, vecs, rows):\n"
              "    stiff, mass = (_as_matrix(op) for op in pair)\n"
              "    shifted = (stiff - mass).tocsr()\n"
              "    weights = sp.diags(vecs[:, 0]).tocsr()\n"
              "    blocks = [(mass[s:s + 8], stiff[s:s + 8, :]) for s in range(0, 64, 8)]\n"
              "    mass_diag = mass.diagonal()\n"
              "    return shifted[rows] @ vecs[rows], weights[3], mass_diag[:4], vecs[2:5]\n"
              "def other(a):\n    a = a.tocsr()\n    return a[2:4]\n")
    assert sorted(sparse_subscripts(source, "eigen_solve")) == [
        "mass[s:s + 8]", "shifted[rows]", "stiff[s:s + 8, :]", "weights[3]"]
    assert sparse_subscripts(source, "other") == ["a[2:4]"]


def test_eigen_solve_slices_no_sparse_matrix():
    # each row block of the checks is a product on a row range of the CSR
    # pencil, bitwise scipy's on the sliced rows, without copying them
    source = (SRC / "steady_spectral.py").read_text(encoding="utf-8")
    assert sparse_subscripts(source, "eigen_solve") == []


# evaluated every Newton iteration or every step: values go through a
# fixed-pattern map, and the band solves are built from those values alone
PER_ITERATION = ("jacobian", "residual", "evaluate", "_solver", "implicit_step",
                 "semi_implicit_step", "stationary", "advance", "state_of")
# the module-level functions that run inside them: CG's loop, the time loop
# with the sample, checkpoint and build functions nested in it, and the
# transmission stepper's state_of, nested in transmission_state
PER_ITERATION_FUNCTIONS = ("_pcg", "_integrate", "transmission_state")


def per_iteration_nodes(source: str):
    """(owner, node) for each AST node inside the PER_ITERATION methods of
    _Stepper and of the classes derived from it, owner Class.method, and
    inside the module-level PER_ITERATION_FUNCTIONS, owner the function's
    name."""
    tree = ast.parse(source)
    for function in tree.body:
        if isinstance(function, ast.FunctionDef) and function.name in PER_ITERATION_FUNCTIONS:
            for node in ast.walk(function):
                yield function.name, node
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and "_Stepper" in
                {cls.name, *(ast.unparse(base) for base in cls.bases)}):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name in PER_ITERATION:
                for node in ast.walk(method):
                    yield f"{cls.name}.{method.name}", node


def sparse_builds_per_iteration(source: str) -> list:
    """sp.* calls, .matrix() calls (JacobianMap.matrix wraps values in a CSC
    matrix), .T and .tocsc()/.tocsr() inside the PER_ITERATION methods of
    _Stepper and of the classes derived from it, and inside the
    PER_ITERATION_FUNCTIONS."""
    return [f"{owner}: {ast.unparse(node)}" for owner, node in per_iteration_nodes(source)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and (ast.unparse(node.func.value) in ("sp", "scipy.sparse")
                 or node.func.attr == "matrix")
            or isinstance(node, ast.Attribute) and node.attr in ("T", "tocsc", "tocsr")]


def test_detector_sees_sparse_builds_in_stepper_methods():
    source = ("class _Stepper:\n    def jacobian(self, y):\n        return sp.diags(y).tocsc()\n"
              "class _Robin(_Stepper):\n    def residual(self, y):\n        return self.a.T @ y\n"
              "    def evaluate(self, s):\n        return scipy.sparse.identity(3).tocsr()\n"
              "    def semi_implicit_step(self, s):\n        return sp.diags(s).tocsc()\n"
              "    def implicit_step(self, s):\n        return self.m.tocsr()\n"
              "    def stationary(self, y):\n        return sp.eye(3)\n"
              "    def advance(self, s):\n        return self.p.T\n"
              "def _integrate(stepper, config, start):\n    def sample(t, s):\n"
              "        return sp.diags(s)\n    def build():\n        return sp.diags(t)\n"
              "class Other:\n    def jacobian(self, y):\n        return sp.diags(y).T\n"
              "    def sample(self, t, s):\n        return sp.diags(s)\n")
    assert sparse_builds_per_iteration(source) == [
        "_integrate: sp.diags(s)", "_integrate: sp.diags(t)",
        "_Stepper.jacobian: sp.diags(y).tocsc", "_Stepper.jacobian: sp.diags(y)",
        "_Robin.residual: self.a.T", "_Robin.evaluate: scipy.sparse.identity(3).tocsr",
        "_Robin.evaluate: scipy.sparse.identity(3)",
        "_Robin.semi_implicit_step: sp.diags(s).tocsc", "_Robin.semi_implicit_step: sp.diags(s)",
        "_Robin.implicit_step: self.m.tocsr",
        "_Robin.stationary: sp.eye(3)", "_Robin.advance: self.p.T"]


def test_detector_sees_jacobian_matrices_in_stepper_methods():
    source = ("def _pcg(a, b):\n    return jac.matrix(b)\n"
              "def helper(m, d):\n    return m.matrix(d)\n"
              "class _Stepper:\n    def _solver(self, data, rtol):\n"
              "        def solve(b):\n            return self.jac_map.matrix(data) @ b\n"
              "        return solve\n"
              "    def _factor(self, data):\n        return splu(self.jac_map.matrix(data))\n"
              "class _Robin(_Stepper):\n    def stationary(self, y):\n"
              "        return self.jac_map.matrix\n"
              "    def advance(self, s):\n        return self.matrix(s).T\n")
    assert sparse_builds_per_iteration(source) == [
        "_pcg: jac.matrix(b)", "_Stepper._solver: self.jac_map.matrix(data)",
        "_Robin.advance: self.matrix(s).T", "_Robin.advance: self.matrix(s)"]


def test_steppers_build_no_sparse_matrix_per_iteration():
    # the Jacobian's CSC matrix is built only by _factor, the counted LU
    # fallback; CG applies the values through mesh.matvec on the pattern
    assert sparse_builds_per_iteration((SRC / "dynamics.py").read_text(encoding="utf-8")) == []


def calls_spec_eval(node) -> bool:
    """Whether the AST node is a call of a spec's eval."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "eval" and ast.unparse(node.func.value).endswith("spec"))


def dispatch_and_evals_per_iteration(source: str) -> list:
    """Uses of the @ operator, and calls of a spec's eval, inside the
    PER_ITERATION methods of _Stepper and its subclasses, and inside the
    PER_ITERATION_FUNCTIONS."""
    return [f"{owner}: {ast.unparse(node)}" for owner, node in per_iteration_nodes(source)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.MatMult) or calls_spec_eval(node)]


def test_detector_sees_products_and_evals_in_stepper_methods():
    source = ("class _Stepper:\n    def jacobian(self, y):\n        return self.a @ y\n"
              "class _Robin(_Stepper):\n    def residual(self, y):\n        y @= self.m\n"
              "    def evaluate(self, s):\n        return self.spec.eval('h', s)\n"
              "    def surface_of(self, u):\n        return matvec(self.tr, u)\n"
              "    def semi_implicit_step(self, s):\n        return spec.eval('f', s) @ s\n"
              "    def stationary(self, y):\n        def inner(z):\n"
              "            return spec.eval(\"h'\", z)\n        return x.eval()\n"
              "def _integrate(stepper, config, start):\n    def sample(t, s):\n"
              "        return t @ s\n"
              "class Other:\n    def jacobian(self, y):\n        return self.a @ y\n")
    assert dispatch_and_evals_per_iteration(source) == [
        "_integrate: t @ s",
        "_Stepper.jacobian: self.a @ y", "_Robin.residual: y @= self.m",
        "_Robin.evaluate: self.spec.eval('h', s)",
        "_Robin.semi_implicit_step: spec.eval('f', s) @ s",
        "_Robin.semi_implicit_step: spec.eval('f', s)", '_Robin.stationary: spec.eval("h\'", z)']


def test_detector_sees_products_in_the_cg_loop():
    source = ("def _pcg(matrix, b, precondition):\n    p = precondition(b)\n"
              "    for _ in range(3):\n        q = matrix @ p\n        p @= q\n"
              "    return spec.eval('f', p)\n"
              "def _cg_setup(a, b):\n    return a @ b\n"
              "class Other:\n    def _pcg(self, a, b):\n        return a @ b\n")
    assert dispatch_and_evals_per_iteration(source) == [
        "_pcg: p @= q", "_pcg: spec.eval('f', p)", "_pcg: matrix @ p"]


def test_detector_sees_products_in_the_time_loop():
    source = ("def _integrate(stepper, config, start):\n"
              "    def sample(state):\n        rows.append(weights @ state)\n"
              "    for _ in range(3):\n        state = stepper.advance(state)\n"
              "    sample(state)\n"
              "def run_trajectory(config):\n    return mass @ config\n")
    assert dispatch_and_evals_per_iteration(source) == ["_integrate: weights @ state"]


def test_steppers_use_matvec_and_the_single_pass_per_iteration():
    # products through mesh.matvec, without scipy's @ dispatch, and the
    # pointwise terms from the one operators.Variation pass per iterate: no
    # function of the module evaluates a nonlinearity itself
    source = (SRC / "dynamics.py").read_text(encoding="utf-8")
    assert dispatch_and_evals_per_iteration(source) == []
    assert [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if calls_spec_eval(node)] == []


def eigh_calls(source: str, function: str) -> list:
    """(callee as written, matrices passed) of each eigh or eigh_tridiagonal
    call inside the named function. The matrices of eigh are its positional
    arguments and the a= and b= keywords; eigh_tridiagonal's diagonals d and
    e, positional or keywords, make one."""
    found = []
    for owner in ast.walk(ast.parse(source)):
        if not (isinstance(owner, ast.FunctionDef) and owner.name == function):
            continue
        for node in ast.walk(owner):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name == "eigh":
                matrices = len(node.args) + sum(k.arg in ("a", "b") for k in node.keywords)
            elif name == "eigh_tridiagonal":
                diagonals = len(node.args[:2]) + sum(k.arg in ("d", "e") for k in node.keywords)
                matrices = diagonals // 2
            else:
                continue
            found.append((ast.unparse(node.func), matrices))
    return found


def test_detector_sees_every_eigh_call():
    source = ("def solve(a, m, d, e):\n    scipy.linalg.eigh(a, driver='evd')\n"
              "    def inner():\n        return eigh(a, m)\n"
              "    la.eigh(a, b=m)\n    np.linalg.eigh(a)\n"
              "    scipy.linalg.eigh(a=a, subset_by_value=(0, 1))\n"
              "    scipy.linalg.eigh_tridiagonal(d, e, select='v', lapack_driver='stemr')\n"
              "    eigh_tridiagonal(d=d, e=e)\n    scipy.linalg.eigvalsh(a, m)\n"
              "def other(a):\n    scipy.linalg.eigh(a, a)\n")
    assert eigh_calls(source, "solve") == [
        ("scipy.linalg.eigh", 1), ("la.eigh", 2), ("np.linalg.eigh", 1),
        ("scipy.linalg.eigh", 1), ("scipy.linalg.eigh_tridiagonal", 1),
        ("eigh_tridiagonal", 1), ("eigh", 2)]
    assert eigh_calls(source, "other") == [("scipy.linalg.eigh", 2)]


def test_fourier_modes_are_solved_as_standard_problems():
    # through scipy.linalg.eigh or scipy.linalg.eigh_tridiagonal, so the
    # tests' call counts see every per-mode solve, and with one matrix: each
    # radial pencil is reduced through its mass factor, to a tridiagonal one
    # when the blocks allow it, and never solved generalized
    source = (SRC / "steady_spectral.py").read_text(encoding="utf-8")
    calls = eigh_calls(source, "_fourier_block_solve")
    assert set(calls) == {("scipy.linalg.eigh", 1), ("scipy.linalg.eigh_tridiagonal", 1)}


def test_detector_sees_eigh_calls_outside_the_block_solve():
    source = ("def _fourier_block_solve(a):\n    return scipy.linalg.eigh(a, driver='evd')\n"
              "def eigen_solve(s, m, dense):\n    if dense:\n"
              "        return scipy.linalg.eigh(s.toarray(), m.toarray())\n"
              "    return spla.eigsh(s, M=m)\n")
    assert callers(source, "eigh") == ["_fourier_block_solve", "eigen_solve"]


def test_every_dense_eigensolve_is_a_fourier_block_solve():
    # the dense path is the block solve with the whole pencil as one block,
    # so no generalized or second dense eigensolve exists beside it
    source = (SRC / "steady_spectral.py").read_text(encoding="utf-8")
    for name in ("eigh", "eigh_tridiagonal"):
        owners = callers(source, name)
        assert owners and set(owners) == {"_fourier_block_solve"}


def state_text_and_slack_uses(source: str) -> list:
    """Each import or read of ENERGY_SLACK and each .hex or .fromhex
    attribute, as written: the energy rule and the hex state text."""
    return [node.name if isinstance(node, ast.alias) else ast.unparse(node)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.alias) and node.name == "ENERGY_SLACK"
            or isinstance(node, ast.Name) and node.id == "ENERGY_SLACK"
            or isinstance(node, ast.Attribute)
            and node.attr in ("ENERGY_SLACK", "hex", "fromhex")]


def test_detector_sees_the_energy_slack_and_hex_text():
    source = ("from .dynamics import ENERGY_SLACK, energy_rose\n"
              "ok = diff <= dynamics.ENERGY_SLACK\nline = ' '.join(v.hex() for v in x)\n"
              "y = float.fromhex(t)\ndigest = hashlib.sha256(b).hexdigest()\n"
              "text = 'hex'\nhex_line('bulk', x)\n")
    assert sorted(state_text_and_slack_uses(source)) == [
        "ENERGY_SLACK", "dynamics.ENERGY_SLACK", "float.fromhex", "v.hex"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_dynamics_writes_state_text_or_applies_the_energy_slack(path):
    # the step rejection rule and the hex text of a state each have one home,
    # which the time loop, the checkpoints and the CLI's outputs all call
    found = state_text_and_slack_uses(path.read_text(encoding="utf-8"))
    assert bool(found) if path.name == "dynamics.py" else found == []


# (callee, module, the functions of that module allowed to call it): the
# Robin residual is the only reader of the normal derivative, and the CLI
# neither scans the nonlinearity again nor solves a pencil itself
ONE_HOME = [("normal_derivative", "energy.py", ["robin_residual"]),
            ("validate_assumptions", "cli.py", []),
            ("eigen_solve", "cli.py", [])]


@pytest.mark.parametrize("callee, module, owners", ONE_HOME,
                         ids=[f"{callee}-in-{module}" for callee, module, _ in ONE_HOME])
def test_each_diagnostic_has_one_home(callee, module, owners):
    found = {p.name: callers(p.read_text(encoding="utf-8"), callee) for p in MODULES}
    assert found[module] == owners
    if callee == "normal_derivative":
        assert all(calls == [] for name, calls in found.items() if name != module)
