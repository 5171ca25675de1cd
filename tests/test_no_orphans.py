"""Orphans a deletion leaves behind in ``src/heismoduli``, and one
factorization and one scalar-mode rule that must not come back.

Twelve rules, read off the syntax trees: a module (``__init__`` aside, it
re-exports) uses every name it imports, every module-level ``_private``
function is referenced somewhere in the package outside its own body,
every module-level UPPER_CASE constant is read somewhere in the package
(its own assignment and a re-export are no reads), every defaulted
parameter of a module-level function is passed by some call in
``src/`` or ``tests/`` (a knob nothing turns is dead code), no
module calls a ``cholesky``: a Gram matrix's spectra read the exact
factor it keeps, so a float Cholesky would be a second factor path, and
outside ``linalg`` no module calls the raw ``DenseMatrix(...)``
constructor, ``_is_floatlike`` or ``isinstance(..., float)``: a scalar
mode is chosen by ``linalg``'s coercion alone, and no module calls
``json.dumps`` or ``json.dump`` with ``indent``: that is the stdlib's
pure-Python encoder, so the CLI's own writer stays the one indented one,
and no module opens a file in text mode or calls ``json.load`` on
anything but ``sys.stdin``: a file payload is read as bytes and decoded
as strict UTF-8 in one place, the CLI's payload reader, and no function
but ``linalg._compiled`` calls ``exec``, ``eval`` or ``compile``: the
size-specialized kernels are compiled in one place, from a matrix size
alone, and in ``lattice`` every ``SpdMatrix(...)`` or
``SpdMatrix.from_rows(...)`` call lies inside a ``return`` statement: the
layer builds a matrix only to hand it back, and its searches read factors,
and no module but ``_arrays`` imports numpy: every array computation
lives there, loaded by the first call that needs it, so the exact core
runs without numpy, and no function but ``lattice._enumeration_budget``
reads ``os.environ``, and no ``_private`` function calls it: the
enumeration cap is fixed where a public call begins, and the searches
take it as an int.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heismoduli"
TREES = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
CALLERS = [ast.parse(path.read_text(), str(path))
           for root in (PACKAGE.parent, PACKAGE.parents[1] / "tests")
           for path in sorted(root.rglob("*.py"))]


def _referenced(node: ast.AST) -> list[str]:
    """Names read in node: bare names and attribute names."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return names


def _imported(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports, ``from __future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__"}))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = set(_referenced(tree))
    assert [name for name in _imported(tree) if name not in used] == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_function_is_referenced(module):
    counts = Counter(name for tree in TREES.values() for name in _referenced(tree))
    # a function that only calls itself is still an orphan
    orphans = [node.name for node in TREES[module].body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and counts[node.name] == _referenced(node).count(node.name)]
    assert orphans == []


def _constants(tree: ast.Module) -> list[str]:
    """Names of the module-level UPPER_CASE assignments, ``_PRIVATE`` ones too."""
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return [t.id for t in targets
            if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_constant_is_read(module):
    reads = {getattr(node, "id", None) or node.attr for tree in TREES.values()
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)}
    assert [name for name in _constants(TREES[module]) if name not in reads] == []


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether call may pass the parameter: by keyword, at its position
    (``index`` None for keyword-only), or through ``*args``/``**kwargs``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    return (any(k.arg == name for k in call.keywords)
            or index is not None and len(call.args) > index)


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_default_is_passed(module):
    calls = {}
    for tree in CALLERS:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                calls.setdefault(getattr(f, "id", None) or getattr(f, "attr", None),
                                 []).append(node)
    unpassed = []
    for fn in TREES[module].body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        pos = fn.args.posonlyargs + fn.args.args
        first = len(pos) - len(fn.args.defaults)
        params = [(i, a.arg) for i, a in enumerate(pos) if i >= first]
        params += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if d is not None]
        unpassed += [f"{fn.name}({name})" for i, name in params
                     if not any(_passes(c, i, name) for c in calls.get(fn.name, []))]
    assert unpassed == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_float_cholesky(module):
    calls = [node.lineno for node in ast.walk(TREES[module])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "cholesky"]
    assert calls == []


def _picks_mode(call: ast.Call) -> bool:
    """Whether call is ``DenseMatrix(...)``, ``_is_floatlike(...)`` or an
    ``isinstance`` test against ``float``."""
    f = call.func
    name = getattr(f, "id", None) or getattr(f, "attr", None)
    if name == "isinstance" and len(call.args) == 2:
        kinds = call.args[1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(isinstance(k, ast.Name) and k.id == "float" for k in kinds)
    return name in ("DenseMatrix", "_is_floatlike")


@pytest.mark.parametrize("module", sorted(set(TREES) - {"linalg"}))
def test_scalar_mode_chosen_in_linalg_only(module):
    calls = [node.lineno for node in ast.walk(TREES[module])
             if isinstance(node, ast.Call) and _picks_mode(node)]
    assert calls == []


def _dumps_indented(call: ast.Call) -> bool:
    """Whether call is ``json.dumps(..., indent=...)`` or ``json.dump``'s."""
    f = call.func
    name = getattr(f, "id", None) or getattr(f, "attr", None)
    return name in ("dumps", "dump") and any(k.arg == "indent" for k in call.keywords)


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_indented_json_dumps(module):
    calls = [node.lineno for node in ast.walk(TREES[module])
             if isinstance(node, ast.Call) and _dumps_indented(node)]
    assert calls == []


def _reads_text(call: ast.Call) -> bool:
    """Whether call is ``open`` (bare, ``io.`` or ``builtins.``) with no
    literal binary mode, or ``json.load`` of anything but ``sys.stdin``."""
    f = call.func
    if isinstance(f, ast.Name):
        name = f.id
    elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        name = f"{f.value.id}.{f.attr}"
    else:
        return False
    if name in ("open", "io.open", "builtins.open"):
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        return not (isinstance(mode, ast.Constant) and "b" in str(mode.value))
    if name == "json.load":
        arg = call.args[0] if call.args else None
        return not (isinstance(arg, ast.Attribute) and arg.attr == "stdin"
                    and isinstance(arg.value, ast.Name) and arg.value.id == "sys")
    return False


@pytest.mark.parametrize("module", sorted(TREES))
def test_one_decoding_path(module):
    calls = [node.lineno for node in ast.walk(TREES[module])
             if isinstance(node, ast.Call) and _reads_text(node)]
    assert calls == []


COMPILER = ("linalg", "_compiled")


def _compiles(call: ast.Call) -> bool:
    """Whether call is ``exec``, ``eval`` or ``compile``, bare or ``builtins.``."""
    f = call.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "builtins":
        f = ast.Name(f.attr)
    return isinstance(f, ast.Name) and f.id in ("exec", "eval", "compile")


@pytest.mark.parametrize("module", sorted(TREES))
def test_code_compiled_in_one_helper(module):
    tree = TREES[module]
    allowed = {id(node) for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and (module, fn.name) == COMPILER
               for node in ast.walk(fn)}
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _compiles(node) and id(node) not in allowed]
    assert calls == []


def _builds_spd(call: ast.Call) -> bool:
    """Whether call is ``SpdMatrix(...)`` or ``SpdMatrix.from_rows(...)``."""
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr == "from_rows":
        f = f.value
    return isinstance(f, ast.Name) and f.id == "SpdMatrix"


def test_lattice_builds_matrices_only_to_return_them():
    tree = TREES["lattice"]
    returned = {id(node) for ret in ast.walk(tree) if isinstance(ret, ast.Return)
                for node in ast.walk(ret)}
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _builds_spd(node) and id(node) not in returned]
    assert calls == []


ARRAYS = "_arrays"


def _imports_numpy(node: ast.AST) -> bool:
    """Whether node is ``import numpy`` or ``from numpy... import``, of
    numpy itself or of a submodule."""
    if isinstance(node, ast.Import):
        return any(a.name.partition(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy"


@pytest.mark.parametrize("module", sorted(set(TREES) - {ARRAYS}))
def test_numpy_imported_by_arrays_only(module):
    imports = [node.lineno for node in ast.walk(TREES[module]) if _imports_numpy(node)]
    assert imports == []


def test_arrays_imports_numpy():
    # the rule above would pass vacuously if the module were renamed
    assert any(_imports_numpy(node) for node in ast.walk(TREES[ARRAYS]))


BUDGET = ("lattice", "_enumeration_budget")


def _reads_environment(node: ast.AST) -> bool:
    """Whether node names ``environ`` or ``getenv``, bare or as an attribute."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return isinstance(node, (ast.Name, ast.Attribute)) and name in ("environ", "getenv")


def _budget_callers(tree: ast.Module) -> set[str]:
    """Names of the functions, nested ones too, whose body calls
    ``_enumeration_budget``, bare or as an attribute."""
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == BUDGET[1]}


@pytest.mark.parametrize("module", sorted(TREES))
def test_environment_read_in_one_function(module):
    tree = TREES[module]
    allowed = {id(node) for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and (module, fn.name) == BUDGET
               for node in ast.walk(fn)}
    reads = [node.lineno for node in ast.walk(tree)
             if _reads_environment(node) and id(node) not in allowed]
    assert reads == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_cap_resolved_by_public_calls_only(module):
    assert sorted(name for name in _budget_callers(TREES[module]) if name.startswith("_")) == []


def test_budget_rule_is_not_vacuous():
    # the rules above would pass vacuously if the reader were renamed or
    # no public call resolved its cap
    reader = next(fn for fn in TREES["lattice"].body
                  if isinstance(fn, ast.FunctionDef) and fn.name == BUDGET[1])
    assert any(_reads_environment(node) for node in ast.walk(reader))
    callers = set().union(*map(_budget_callers, TREES.values()))
    assert {"first_minimum", "minkowski_reduce", "mahler_certificate"} <= callers
