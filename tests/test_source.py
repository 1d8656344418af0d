"""Static checks on the package source: no module imports a name it never uses,
every public name has a caller or a stated reason to exist, only mesh.py
knows the geometry of a mesh or touches its operator memo, the only sparse
factorization of the package is dynamics.py's counted splu helper, neither
the steppers nor the recorder build a sparse matrix, apply an operator
through scipy's @ or evaluate the nonlinearity outside the one pass per
iterate, per Newton iteration or per step, and the Fourier block eigensolve
solves each mode as one standard problem through scipy.linalg.eigh, the only
dense eigensolve of the package."""

import ast
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
    # the lower bound of the linearized spectrum at any state, which the
    # property tests check against dense eigh; the stability tag reads the
    # same bound from its Newton solve's last pass (Variation.lower_bound)
    "operators.linearized_lower_bound",
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


# evaluated every Newton iteration or every step: values go through a
# fixed-pattern map, and the band solves are built from those values alone
PER_ITERATION = ("jacobian", "residual", "evaluate", "_solver", "implicit_step",
                 "stationary", "advance", "sample", "state_of", "surface_of")


def per_iteration_nodes(source: str):
    """(owner, node) for each AST node inside the PER_ITERATION methods of
    _Stepper, of the classes derived from it, and of _Recorder; owner is
    Class.method."""
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and {"_Stepper", "_Recorder"} &
                {cls.name, *(ast.unparse(base) for base in cls.bases)}):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name in PER_ITERATION:
                for node in ast.walk(method):
                    yield f"{cls.name}.{method.name}", node


def sparse_builds_per_iteration(source: str) -> list:
    """sp.* calls, .T and .tocsc()/.tocsr() inside the PER_ITERATION methods
    of _Stepper, of the classes derived from it, and of _Recorder."""
    return [f"{owner}: {ast.unparse(node)}" for owner, node in per_iteration_nodes(source)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) in ("sp", "scipy.sparse")
            or isinstance(node, ast.Attribute) and node.attr in ("T", "tocsc", "tocsr")]


def test_detector_sees_sparse_builds_in_stepper_methods():
    source = ("class _Stepper:\n    def jacobian(self, y):\n        return sp.diags(y).tocsc()\n"
              "class _Robin(_Stepper):\n    def residual(self, y):\n        return self.a.T @ y\n"
              "    def evaluate(self, s):\n        return scipy.sparse.identity(3).tocsr()\n"
              "    def semi_implicit_step(self, s):\n        return sp.diags(s).tocsc()\n"
              "    def implicit_step(self, s):\n        return self.m.tocsr()\n"
              "    def stationary(self, y):\n        return sp.eye(3)\n"
              "    def advance(self, s):\n        return self.p.T\n"
              "class _Recorder:\n    def sample(self, t, s):\n        return sp.diags(s)\n"
              "    def build(self):\n        return sp.diags(self.t)\n"
              "class Other:\n    def jacobian(self, y):\n        return sp.diags(y).T\n")
    assert sparse_builds_per_iteration(source) == [
        "_Stepper.jacobian: sp.diags(y).tocsc", "_Stepper.jacobian: sp.diags(y)",
        "_Robin.residual: self.a.T", "_Robin.evaluate: scipy.sparse.identity(3).tocsr",
        "_Robin.evaluate: scipy.sparse.identity(3)", "_Robin.implicit_step: self.m.tocsr",
        "_Robin.stationary: sp.eye(3)", "_Robin.advance: self.p.T",
        "_Recorder.sample: sp.diags(s)"]


def test_steppers_build_no_sparse_matrix_per_iteration():
    assert sparse_builds_per_iteration((SRC / "dynamics.py").read_text(encoding="utf-8")) == []


def dispatch_and_evals_per_iteration(source: str) -> list:
    """Uses of the @ operator, and calls of a spec's eval, inside the
    PER_ITERATION methods of _Stepper, its subclasses and _Recorder."""
    return [f"{owner}: {ast.unparse(node)}" for owner, node in per_iteration_nodes(source)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "eval" and ast.unparse(node.func.value).endswith("spec")]


def test_detector_sees_products_and_evals_in_stepper_methods():
    source = ("class _Stepper:\n    def jacobian(self, y):\n        return self.a @ y\n"
              "class _Robin(_Stepper):\n    def residual(self, y):\n        y @= self.m\n"
              "    def evaluate(self, s):\n        return self.spec.eval('h', s)\n"
              "    def surface_of(self, u):\n        return matvec(self.tr, u)\n"
              "    def semi_implicit_step(self, s):\n        return spec.eval('f', s) @ s\n"
              "    def stationary(self, y):\n        def inner(z):\n"
              "            return spec.eval(\"h'\", z)\n        return x.eval()\n"
              "class _Recorder:\n    def sample(self, t, s):\n        return t @ s\n"
              "class Other:\n    def jacobian(self, y):\n        return self.a @ y\n")
    assert dispatch_and_evals_per_iteration(source) == [
        "_Stepper.jacobian: self.a @ y", "_Robin.residual: y @= self.m",
        "_Robin.evaluate: self.spec.eval('h', s)", '_Robin.stationary: spec.eval("h\'", z)',
        "_Recorder.sample: t @ s"]


def test_steppers_use_matvec_and_the_single_pass_per_iteration():
    # products through mesh.matvec, without scipy's @ dispatch, and the
    # pointwise terms from the one operators.Variation pass per iterate
    source = (SRC / "dynamics.py").read_text(encoding="utf-8")
    assert dispatch_and_evals_per_iteration(source) == []


def eigh_calls(source: str, function: str) -> list:
    """(callee as written, matrices passed) of each eigh call inside the
    named function; the matrices are the positional arguments and the a=
    and b= keywords."""
    found = []
    for owner in ast.walk(ast.parse(source)):
        if not (isinstance(owner, ast.FunctionDef) and owner.name == function):
            continue
        for node in ast.walk(owner):
            if isinstance(node, ast.Call) and "eigh" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                matrices = len(node.args) + sum(k.arg in ("a", "b") for k in node.keywords)
                found.append((ast.unparse(node.func), matrices))
    return found


def test_detector_sees_every_eigh_call():
    source = ("def solve(a, m):\n    scipy.linalg.eigh(a, driver='evd')\n"
              "    def inner():\n        return eigh(a, m)\n"
              "    la.eigh(a, b=m)\n    np.linalg.eigh(a)\n"
              "    scipy.linalg.eigh(a=a, subset_by_value=(0, 1))\n"
              "def other(a):\n    scipy.linalg.eigh(a, a)\n")
    assert eigh_calls(source, "solve") == [
        ("scipy.linalg.eigh", 1), ("la.eigh", 2), ("np.linalg.eigh", 1),
        ("scipy.linalg.eigh", 1), ("eigh", 2)]
    assert eigh_calls(source, "other") == [("scipy.linalg.eigh", 2)]


def test_fourier_modes_are_solved_as_standard_problems():
    # through scipy.linalg.eigh, so the tests' call counts and perfbench's
    # dense_eigh layer see every per-mode solve, and with one matrix: each
    # radial pencil is reduced through its mass factor, not solved generalized
    source = (SRC / "steady_spectral.py").read_text(encoding="utf-8")
    calls = eigh_calls(source, "_fourier_block_solve")
    assert calls and set(calls) == {("scipy.linalg.eigh", 1)}


def test_detector_sees_eigh_calls_outside_the_block_solve():
    source = ("def _fourier_block_solve(a):\n    return scipy.linalg.eigh(a, driver='evd')\n"
              "def eigen_solve(s, m, dense):\n    if dense:\n"
              "        return scipy.linalg.eigh(s.toarray(), m.toarray())\n"
              "    return spla.eigsh(s, M=m)\n")
    assert callers(source, "eigh") == ["_fourier_block_solve", "eigen_solve"]


def test_every_dense_eigensolve_is_a_fourier_block_solve():
    # the dense path is the block solve with the whole pencil as one block,
    # so no generalized or second dense eigensolve exists beside it
    owners = callers((SRC / "steady_spectral.py").read_text(encoding="utf-8"), "eigh")
    assert owners and set(owners) == {"_fourier_block_solve"}
