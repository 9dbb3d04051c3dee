"""Source hygiene, by stdlib ``ast`` scans, so it needs no linter.

No module of the package imports a name it never uses: ``__init__.py`` is
left out because its imports are the package's re-exports, and ``from
__future__`` imports are compiler directives, not names.

No handler catches every exception (bare ``except:``, ``except Exception``,
``except BaseException``) without raising again: such a handler hides the
caller's errors or switches to a fallback without a word.

No float literal at or below 1e-9 stands in a module outside the allowed
scopes: such a literal is an absolute slack between two times, which falls
below half an ulp once |t| is large enough (1e-12 past about 1.6e4, 1e-9
past about 1.7e7); ``timescale.tol_at`` scales it.

No ``def`` takes a parameter its body never reads: such a parameter looks
like a setting, but the caller's value changes nothing.  ``self`` and
``cls`` are exempt, and so are lambdas, which follow fixed calling
conventions such as ``(t, u, v)``.

Every module-level private function or class is named by package code
outside its own definition: one that only tests call stays alive as a test
fixture, and the tests that pin it pin nothing the package does.

No prefix sum -- ``cumsum`` as a function or a method, ``np.add.reduceat``
or ``np.add.accumulate`` -- is formed outside the allowed scopes: a second
routine that sums cells into prefix integrals rounds in an order of its
own, and the integrals from a to a node it gives drift from the reducer's.

No running or segment minimum or maximum -- ``minimum``/``maximum``
``.accumulate``/``.reduceat`` -- is taken outside the allowed scopes: the
lim-inf and Gateaux evidence is read from the tail statistics, which the
sweep folds block by block, and a full-length min-scan of horizon values
beside them would need the horizon array they replace.

No text is read as Python -- ``ast.parse``, or the builtins ``compile``,
``eval`` and ``exec`` -- outside the allowed scopes: both little languages
go through ``expressions.parse``, which holds the whitelist's front door
(whitespace, ``^``, ASCII, comments, nesting depth); a second reader would
skip it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsvar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Callable, Optional\n"
        "x: Optional[int] = os.sep\n"
    )
    assert unused_imports(src) == [(3, "Callable")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


BROAD = {"Exception", "BaseException"}

#: handlers allowed to swallow every exception, as (module, function): why
SWALLOWING_ALLOWED = {
    ("variational.py", "Lagrangian._validate_partials"):
        "an integrand that cannot be evaluated on the random probe points "
        "skips the construction-time cross-check of its partials; ROADMAP "
        "item 4 replaces that check for problem files",
}


def scoped_nodes(source):
    """Every AST node of ``source`` with the qualified name of the innermost
    class or function holding it (a def counts as holding itself)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            yield child, ".".join(inner)
            yield from visit(child, inner)

    return visit(ast.parse(source), ())


def swallowing_handlers(source):
    """(line, enclosing qualified name) of every handler that catches all
    exceptions and whose body holds no ``raise``."""
    return [
        (node.lineno, scope)
        for node, scope in scoped_nodes(source)
        if isinstance(node, ast.ExceptHandler) and _catches_all(node.type)
        and not any(isinstance(n, ast.Raise) for n in ast.walk(node))
    ]


def _catches_all(kind):
    if kind is None:
        return True
    names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return any(isinstance(n, ast.Name) and n.id in BROAD for n in names)


#: the per-node fallback that once sat in calculus._call_on_times (abridged)
OLD_CALL_ON_TIMES = """
def _call_on_times(fn, times):
    m = len(times)
    try:
        out = np.asarray(fn(times), dtype=float)
    except Exception:
        out = None
    if out is not None:
        if out.shape == (m,):
            return out[:, None]
    rows = [np.atleast_1d(np.asarray(fn(float(t)), dtype=float)) for t in times]
    return np.stack(rows, axis=0)
"""


def test_scan_flags_handlers_that_swallow_everything():
    src = (
        "class A:\n"
        "    def f(self):\n"
        "        try:\n"
        "            pass\n"
        "        except:\n"
        "            pass\n"
        "def g():\n"
        "    try:\n"
        "        pass\n"
        "    except (ValueError, BaseException):\n"
        "        return None\n"
        "    except Exception as exc:\n"
        "        raise RuntimeError(str(exc)) from exc\n"
        "try:\n"
        "    pass\n"
        "except ValueError:\n"
        "    pass\n"
    )
    assert swallowing_handlers(src) == [(5, "A.f"), (10, "g")]
    assert swallowing_handlers(OLD_CALL_ON_TIMES) == [(6, "_call_on_times")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_handler_swallows_every_exception(path):
    found = swallowing_handlers(path.read_text())
    assert [name for _, name in found if (path.name, name) not in SWALLOWING_ALLOWED] == []


def test_allowed_handlers_still_exist():
    found = {(path.name, name) for path in MODULES
             for _, name in swallowing_handlers(path.read_text())}
    assert set(SWALLOWING_ALLOWED) <= found


#: scopes allowed a float literal at or below 1e-9, as (module, scope): why
TINY_LITERALS_ALLOWED = {
    ("timescale.py", "tol_at"): "the helper's own floor, the slack near t = 0",
    ("timescale.py", "TimeScaleSpec.build_grid"):
        "the cell-count slack ceil(L/h - 1e-12): it rounds away for large L/h, "
        "but mending it changes the benchmark's recorded node totals, so it "
        "waits for the benchmark change of ROADMAP item 2",
    ("timescale.py", "SampleGrid.index_of"):
        "the 1e-9 match between a named time and a node: build_grid's dense "
        "nodes drift off the h-lattice, so it waits for the cell-count fix "
        "of ROADMAP item 2 and then moves onto tol_at (item 3)",
    ("problems.py", "ex_neg"):
        "|beta alpha| > 1e-9 picks the candidate's expected verdict: a "
        "transversality value, far below the verifier's trans_tol 1e-6, not "
        "a time",
    ("variational.py", "fundamental_lemma_probe"):
        "tol_zero=1e-9, the probe's threshold on |g|: a value the caller may "
        "set, not a time",
    ("variational.py", "_default_el_tol"):
        "the 1e-9 floor of the default E-L tolerance on dense windows: a "
        "residual value, which ROADMAP item 9 revisits with its rounding term",
    ("calculus.py", "LimitConfig"):
        "abs_floor=1e-10, the classifier's absolute floor on sequence values: "
        "a field the caller may set, not a time",
}


def tiny_literals(source):
    """(line, enclosing qualified name) of every float literal with
    0 < |value| <= 1e-9."""
    return [
        (node.lineno, scope)
        for node, scope in scoped_nodes(source)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= 1e-9
    ]


#: the absolute time slacks that once sat in timescale.py (abridged)
OLD_TIMESCALE = """
TOL_MEM = 1e-12

class ArithmeticTail:
    def floor(self, x, tol=TOL_MEM):
        k = math.floor((x - self.start) / self.step + tol / self.step + 1e-12)
        return self.start + self.step * k if k >= 0 else None
"""


#: the uniform-run test that once sat in calculus._edge_stencils (abridged)
OLD_EDGE_STENCILS = """
def _edge_stencils(steps, lead):
    return np.ptp(steps, axis=1) <= 1e-9 * lead
"""


def test_scan_flags_tiny_float_literals():
    assert tiny_literals(OLD_TIMESCALE) == [(2, ""), (6, "ArithmeticTail.floor")]
    assert tiny_literals("def f(t=-1e-11):\n    return 1e-10, 1e-9, 2e-9, 0.0, 5\n") == [
        (1, "f"), (2, "f"), (2, "f")
    ]
    assert tiny_literals(OLD_EDGE_STENCILS) == [(3, "_edge_stencils")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_time_slacks_go_through_tol_at(path):
    found = tiny_literals(path.read_text())
    assert [name for _, name in found if (path.name, name) not in TINY_LITERALS_ALLOWED] == []


def test_allowed_tiny_literals_still_exist():
    found = {(path.name, name) for path in MODULES
             for _, name in tiny_literals(path.read_text())}
    assert set(TINY_LITERALS_ALLOWED) <= found


def unread_parameters(source):
    """(line, qualified name, parameter) of every parameter of a ``def``
    that its body never reads, ``self`` and ``cls`` aside."""
    found = []
    for node, scope in scoped_nodes(source):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, scope, p.arg) for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


#: a parameter that nothing read in variational.py (abridged)
OLD_BUMP_WITNESS = """
def _bump_witness(ts, g, t0, b, tol_zero):
    g0 = float(_scalar_samples(g, [t0])[0])
    t1 = _dense_run_end(ts, t0, b)
    return g0, t1
"""


def test_scan_flags_unread_parameters():
    src = (
        "class A:\n"
        "    def f(self, x, *, y=1):\n"
        "        return x\n"
        "    @classmethod\n"
        "    def g(cls, *args, **kw):\n"
        "        return cls(*args)\n"
        "def h(t, u, v):\n"
        "    def inner(w, _u=u):\n"
        "        return w + _u\n"
        "    return inner(t), lambda s, r: s\n"
    )
    assert unread_parameters(src) == [(2, "A.f", "y"), (5, "A.g", "kw"), (7, "h", "v")]
    assert unread_parameters(OLD_BUMP_WITNESS) == [(2, "_bump_witness", "tol_zero")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def private_definitions_unreferenced(sources):
    """(module, line, name) of every module-level private function or class
    of ``sources`` (module name -> source) that no package code names
    outside its own definition: a routine that only tests still call."""
    names_by_stmt = []
    private = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            names_by_stmt.append((stmt, names))
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                private.append((module, stmt))
    return sorted(
        (module, stmt.lineno, stmt.name) for module, stmt in private
        if not any(stmt.name in names for other, names in names_by_stmt if other is not stmt)
    )


def test_scan_flags_private_code_only_tests_use():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Unused:\n"
            "    def _method(self):\n"
            "        return _used()\n"
            "def public():\n"
            "    return 2\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import _used\n"
            "def _helper():\n"
            "    return _used()\n"
            "value = a._Unused\n"
            "def __getattr__(name):\n"
            "    return _helper\n"
        ),
    }
    assert private_definitions_unreferenced(sources) == [("a.py", 3, "_recursive")]
    del sources["b.py"]
    assert private_definitions_unreferenced(sources) == [("a.py", 3, "_recursive"),
                                                         ("a.py", 5, "_Unused")]


def test_private_code_is_used_by_the_package():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert private_definitions_unreferenced(sources) == []


#: scopes allowed to form prefix sums, as (module, function): why
PREFIX_SUMS_ALLOWED = {
    ("calculus.py", "_cumulative_at"):
        "the one reducer of rows to their prefix integrals (ROADMAP aim 2): "
        "the E-L residual, the competitor sweep, the first variation and "
        "cumulative_delta_integral all go through it",
    ("floatcsv.py", "csv_bytes"):
        "byte offsets of the CSV fields, not an integral: each field is "
        "written once at the running sum of the lengths before it",
}


def prefix_sums(source):
    """(line, enclosing qualified name) of every call of cumsum, as a
    function or a method, and of add.reduceat or add.accumulate."""
    return [
        (node.lineno, scope)
        for node, scope in scoped_nodes(source)
        if isinstance(node, ast.Call) and _sums_prefixes(node.func)
    ]


def _sums_prefixes(func):
    if isinstance(func, ast.Name):
        return func.id == "cumsum"
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value
    added = (isinstance(owner, ast.Attribute) and owner.attr == "add"
             or isinstance(owner, ast.Name) and owner.id == "add")
    return func.attr == "cumsum" or func.attr in ("reduceat", "accumulate") and added


#: the second prefix-sum routine that once sat in calculus.py (abridged)
OLD_CUMULATIVE = """
def _cumulative(rows, weights):
    v = rows.reshape(len(rows), -1)
    out = np.zeros(v.shape)
    cells = _cell_values(v, weights, 0, len(v) - 1, out=out[1:])
    np.cumsum(cells, axis=0, out=cells)
    return out.reshape(rows.shape)
"""


def test_scan_flags_prefix_sums():
    src = (
        "import numpy as np\n"
        "from numpy import add, cumsum\n"
        "def f(v):\n"
        "    w = np.cumsum(v)\n"
        "    return v.cumsum(axis=0), cumsum(w), add.accumulate(w)\n"
        "class A:\n"
        "    def g(self, v, cuts):\n"
        "        return np.add.reduceat(v, cuts)\n"
        "def h(v):\n"
        "    return np.minimum.accumulate(v), np.maximum.reduceat(v, [0]), np.sum(v)\n"
        "total = np.add.accumulate([1.0, 2.0])\n"
    )
    assert prefix_sums(src) == [(4, "f"), (5, "f"), (5, "f"), (5, "f"), (8, "A.g"), (11, "")]
    assert prefix_sums(OLD_CUMULATIVE) == [(6, "_cumulative")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_prefix_sums_stay_in_the_one_reducer(path):
    found = prefix_sums(path.read_text())
    assert [name for _, name in found if (path.name, name) not in PREFIX_SUMS_ALLOWED] == []


def test_allowed_prefix_sums_still_exist():
    found = {(path.name, name) for path in MODULES
             for _, name in prefix_sums(path.read_text())}
    assert set(PREFIX_SUMS_ALLOWED) <= found


#: scopes allowed a running or segment min or max, as (module, function): why
MIN_MAX_SCANS_ALLOWED = {
    ("variational.py", "_TailStats.fold"):
        "the segment minima of a block of horizon values, folded into the "
        "tail statistics (ROADMAP aim 2: one lim-inf routine)",
    ("variational.py", "_TailStats.scans"):
        "the running and suffix minima over the few segments of the tail "
        "statistics, from which both lim-inf stages and the Gateaux table read",
    ("variational.py", "_horizon_sups.fold"):
        "the maxima of |r| between horizons, folded from each block of the "
        "E-L residual as it is formed: the residual's window sups",
}


def min_max_scans(source):
    """(line, enclosing qualified name) of every call of minimum or maximum
    .accumulate or .reduceat."""
    return [
        (node.lineno, scope)
        for node, scope in scoped_nodes(source)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("accumulate", "reduceat") and _names_min_max(node.func.value)
    ]


def _names_min_max(owner):
    name = (owner.attr if isinstance(owner, ast.Attribute)
            else owner.id if isinstance(owner, ast.Name) else None)
    return name in ("minimum", "maximum")


#: the full-length suffix minima that once sat in variational._gateaux_table
#: (abridged)
OLD_GATEAUX_TABLE = """
def _gateaux_table(eps_list, t_list, plan, rows):
    hz = plan.horizons
    t_pos = [int(np.argmin(np.abs(hz - tv))) for tv in t_list]
    quot = np.minimum.accumulate(rows[:, ::-1], axis=1)[:, ::-1][:, t_pos]
    return quot, rows[:, t_pos]
"""


def test_scan_flags_min_max_scans():
    src = (
        "import numpy as np\n"
        "from numpy import maximum, minimum\n"
        "def f(v):\n"
        "    w = np.minimum.accumulate(v)\n"
        "    return maximum.reduceat(w, [0]), minimum.accumulate(w), np.maximum(v, w)\n"
        "class A:\n"
        "    def g(self, v):\n"
        "        return np.maximum.accumulate(v), np.min(v), np.minimum.reduce(v)\n"
        "def h(v):\n"
        "    return np.add.accumulate(v), v.cumsum()\n"
        "top = np.maximum.reduceat([1.0, 2.0], [0])\n"
    )
    assert min_max_scans(src) == [(4, "f"), (5, "f"), (5, "f"), (8, "A.g"), (11, "")]
    assert min_max_scans(OLD_GATEAUX_TABLE) == [(5, "_gateaux_table")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_min_max_scans_stay_in_the_tail_statistics(path):
    found = min_max_scans(path.read_text())
    assert [name for _, name in found if (path.name, name) not in MIN_MAX_SCANS_ALLOWED] == []


def test_allowed_min_max_scans_still_exist():
    found = {(path.name, name) for path in MODULES
             for _, name in min_max_scans(path.read_text())}
    assert set(MIN_MAX_SCANS_ALLOWED) <= found


#: scopes allowed to read text as Python, as (module, function): why
PYTHON_READERS_ALLOWED = {
    ("expressions.py", "parse"):
        "the one reader of both little languages (ROADMAP aim 2): the "
        "expression language and the time-scale DSL walk the tree it returns",
}


def python_readers(source):
    """(line, enclosing qualified name) of every call of ``ast.parse`` and
    of the builtins compile, eval and exec."""
    return [
        (node.lineno, scope)
        for node, scope in scoped_nodes(source)
        if isinstance(node, ast.Call) and _reads_python(node.func)
    ]


def _reads_python(func):
    if isinstance(func, ast.Name):
        return func.id in ("compile", "eval", "exec")
    return (isinstance(func, ast.Attribute) and func.attr == "parse"
            and isinstance(func.value, ast.Name) and func.value.id == "ast")


def test_scan_flags_python_readers():
    src = (
        "import ast, re\n"
        "def f(text):\n"
        "    return ast.parse(text, mode='eval'), eval(text, {})\n"
        "class A:\n"
        "    def g(self, text):\n"
        "        return compile(text, '<a>', 'eval'), exec(text)\n"
        "def h(text):\n"
        "    return re.compile(text), parse(text), json.loads(text), ast.walk(text)\n"
        "tree = ast.parse('1')\n"
    )
    assert python_readers(src) == [(3, "f"), (3, "f"), (6, "A.g"), (6, "A.g"), (9, "")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_text_is_read_as_python_in_one_place(path):
    found = python_readers(path.read_text())
    assert [name for _, name in found if (path.name, name) not in PYTHON_READERS_ALLOWED] == []


def test_allowed_python_readers_still_exist():
    found = {(path.name, name) for path in MODULES
             for _, name in python_readers(path.read_text())}
    assert set(PYTHON_READERS_ALLOWED) <= found
