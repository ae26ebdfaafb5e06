"""Guards on the library source that tests of behaviour cannot see."""

import ast
import types
from pathlib import Path

import pytest

import tensorforge

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "tensorforge").glob("*.py"))
# Public names that nothing in the library or the benchmark calls.  The
# backlog is empty: a new public name needs a caller, or it is deleted.
UNCALLED_BACKLOG = set()
# Private functions, classes and methods that nothing in the library reads
# outside their own body.  The backlog is empty: a helper that a change
# leaves without a caller is deleted with it.
UNCALLED_PRIVATE_BACKLOG = set()
# Parameters with a default that no call in the library or the benchmark
# passes.  The backlog is empty: a new option needs a caller, or it is
# deleted.
UNPASSED_BACKLOG = set()


def _assertion_guards(tree):
    """Line numbers of ``assert`` statements and ``raise AssertionError``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assertion_guards(path):
    # python -O strips assert statements, and a bare AssertionError is no
    # TensorforgeError: guards raise typed errors such as CrossCheckFailed
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_assertion_guards(tree)) == []


def test_lint_sees_both_forms():
    source = "assert x\nraise AssertionError\nraise AssertionError('m')\n"
    assert list(_assertion_guards(ast.parse(source))) == [1, 2, 3]


def _function_imports(tree):
    """Line numbers of import statements inside a function body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    # imports sit at the module head, so the import graph reads from the
    # top of each module and a cycle fails at import time
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(_function_imports(tree))) == []


def test_import_lint_sees_functions_and_methods():
    source = ("from .a import b\n"
              "def f():\n    from .c import d\n"
              "class K:\n    def m(self):\n        import e\n")
    assert sorted(set(_function_imports(ast.parse(source)))) == [3, 6]


def _reads(node, kinds=(ast.Name, ast.Attribute)):
    """Names read as a variable or an attribute anywhere in ``node``, of
    the node ``kinds`` given."""
    return {inner.id if isinstance(inner, ast.Name) else inner.attr
            for inner in ast.walk(node)
            if isinstance(inner, kinds) and isinstance(inner.ctx, ast.Load)}


def _referenced_names(tree, kinds=(ast.Name, ast.Attribute)):
    """Names read as a variable or an attribute anywhere in a module, of
    the node ``kinds`` given, except inside the top-level function or
    class of that same name, and inside the method of that same name."""
    names = set()
    for stmt in tree.body:
        parts = [stmt]
        if isinstance(stmt, ast.ClassDef):
            parts = stmt.bases + stmt.keywords + stmt.decorator_list \
                + stmt.body
        for part in parts:
            names |= _reads(part, kinds) - {getattr(stmt, "name", None),
                                            getattr(part, "name", None)}
    return names


def _methods(tree, wanted):
    """Names of the methods and properties of a module's classes for
    which ``wanted(name)`` holds."""
    return {part.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)
            for part in stmt.body
            if isinstance(part, ast.FunctionDef) and wanted(part.name)}


def _top_level(tree, wanted):
    """Names of a module's top-level functions and classes for which
    ``wanted(name)`` holds."""
    return {stmt.name for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and wanted(stmt.name)}


def _definitions(tree, wanted):
    """Names of a module's top-level functions and classes, and of the
    methods of its classes, for which ``wanted(name)`` holds."""
    return _top_level(tree, wanted) | _methods(tree, wanted)


def _is_public(name):
    return not name.startswith("_")


def _public_definitions(tree):
    """Names of a module's public top-level functions and classes, and of
    the public methods of its classes."""
    return _definitions(tree, _is_public)


def _private_definitions(tree):
    """Names of a module's private top-level functions and classes, and of
    the private methods of its classes; a dunder name is not private."""
    return _definitions(tree, lambda name: name.startswith("_")
                        and not name.endswith("__"))


def _uncalled_public(defined, callers, exported=()):
    """The public names of the trees ``defined``, and the ``exported``
    names, that no tree of ``callers`` reads outside their own body.  A
    function or class counts as read by any read of its name, a method
    or property only by an attribute read, ``obj.name``; names are
    matched alone."""
    used = set().union(*map(_referenced_names, callers))
    read = set().union(*(_referenced_names(tree, ast.Attribute)
                         for tree in callers))
    top = set(exported).union(*(_top_level(tree, _is_public)
                                for tree in defined))
    methods = set().union(*(_methods(tree, _is_public) for tree in defined))
    return (top - used) | (methods - read)


def test_every_public_name_has_a_caller():
    # a public name, exported, defined at the top of a library module or
    # a public method or property of one of its classes, is read from the
    # library or from perfbench, not only from its own body, from
    # __init__.py or from the tests.  A method is matched by its name
    # alone, so a method named like another attribute that is read is not
    # seen.
    callers = [p for p in SOURCES if p.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    exported = {name for name in tensorforge.__all__
                if not isinstance(getattr(tensorforge, name),
                                  types.ModuleType)}
    assert _uncalled_public(
        [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES],
        [ast.parse(p.read_text(encoding="utf-8")) for p in callers],
        exported) == UNCALLED_BACKLOG


def test_caller_check_reads_methods_only_as_attributes():
    # a local variable named like a method or a property is no read of it
    source = ("class K:\n    @property\n    def rows(self):\n"
              "        return 0\n    def size(self):\n        return 0\n"
              "    def used(self):\n        return 0\n"
              "def f(k):\n    rows = size = k.used()\n"
              "    return rows, size, g\n"
              "def g():\n    return K, f\n")
    tree = ast.parse(source)
    assert _uncalled_public([tree], [tree]) == {"rows", "size"}
    assert _uncalled_public([tree], [tree], ["h"]) == {"rows", "size", "h"}


def test_public_definitions_skip_private_and_nested_names():
    source = ("def f():\n    def g():\n        pass\n"
              "class K:\n    def m(self):\n        def n():\n"
              "            pass\n    def _p(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n"
              "def _h():\n    pass\nx = 1\n")
    assert _public_definitions(ast.parse(source)) == {"f", "K", "m"}


def test_caller_check_ignores_a_name_inside_its_own_body():
    source = ("def f(n):\n    return f(n - 1)\n\ndef g():\n    return h.f\n"
              "class K(B):\n    def m(self):\n        return self.m() + K.p\n")
    assert _referenced_names(ast.parse(source)) \
        == {"n", "h", "f", "B", "self", "p"}


def test_every_private_name_has_a_caller():
    # a private top-level function or class of a library module, or a
    # private method of one of its classes, is read somewhere in the
    # library outside its own body, so a helper that a change leaves
    # without a caller is caught.  As above, names are matched alone.
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES]
    used = set().union(*map(_referenced_names, trees))
    private = set().union(*map(_private_definitions, trees))
    assert private - used == UNCALLED_PRIVATE_BACKLOG


def test_private_definitions_skip_public_dunder_and_nested_names():
    source = ("def f():\n    def _g():\n        pass\n"
              "class _K:\n    def m(self):\n        pass\n"
              "    def _p(self):\n        def _n():\n            pass\n"
              "    def __len__(self):\n        return 0\n"
              "def _h():\n    pass\n_x = 1\n")
    assert _private_definitions(ast.parse(source)) == {"_K", "_p", "_h"}


def test_private_caller_check_sees_a_helper_left_behind():
    source = ("def _used():\n    return _used()\n"
              "def _left():\n    return 0\n"
              "def f():\n    return _used()\n")
    tree = ast.parse(source)
    assert _private_definitions(tree) - _referenced_names(tree) == {"_left"}


def _defaulted_parameters(tree):
    """(callee, parameter, position) for each parameter with a default of
    a module's public top-level functions, and of the public methods and
    ``__init__`` of its public classes.  A constructor's callee is its
    class; a method's position counts from the argument after self or
    cls; a keyword-only parameter has position None."""
    functions = [(stmt.name, stmt, 0) for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef)]
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for part in stmt.body:
                if isinstance(part, ast.FunctionDef) and (
                        part.name == "__init__"
                        or not part.name.startswith("_")):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in part.decorator_list)
                    name = stmt.name if part.name == "__init__" \
                        else part.name
                    functions.append((name, part, 0 if static else 1))
    for name, func, skip in functions:
        if name.startswith("_"):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for pos in range(first, len(positional)):
            yield name, positional[pos].arg, pos - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _calls(tree):
    """(callee, positional count, keywords) for each call in a module, the
    callee named by its last name; a starred argument passes every
    position and a ``**`` argument every keyword, as None."""
    for name, node in _named_calls(tree):
        positions = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            positions = float("inf")
        yield name, positions, {k.arg for k in node.keywords}


def _named_calls(tree):
    """(callee, node) for each call in a module, the callee named by its
    last name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None, node


def _uncalled_parameters(defined, callers):
    """The 'callee(parameter)' of each defaulted parameter in the trees
    ``defined`` that no call in the trees ``callers`` passes, by keyword
    or at its position.  Callees are matched by name alone."""
    calls = {}
    for tree in callers:
        for name, positions, keywords in _calls(tree):
            calls.setdefault(name, []).append((positions, keywords))
    return {f"{name}({param})"
            for tree in defined
            for name, param, pos in _defaulted_parameters(tree)
            if not any(param in keywords or None in keywords
                       or (pos is not None and positions > pos)
                       for positions, keywords in calls.get(name, ()))}


def _passed(call, param, pos):
    """The value node that ``call`` passes for ``param`` at position
    ``pos``, None when it leaves the default, or the call itself when a
    starred or ``**`` argument may pass it."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if any(k.arg is None for k in call.keywords) or (
            pos is not None and any(isinstance(a, ast.Starred)
                                    for a in call.args[:pos + 1])):
        return call
    return call.args[pos] if pos is not None and len(call.args) > pos \
        else None


def _constant_parameters(defined, callers):
    """The 'callee(parameter)' of each defaulted parameter in the trees
    ``defined`` that every call in the trees ``callers``, one at least,
    passes as one and the same constant literal: its default is never
    used, and it is no option.  Callees are matched by name alone."""
    calls = {}
    for tree in callers:
        for name, node in _named_calls(tree):
            calls.setdefault(name, []).append(node)
    constant = set()
    for tree in defined:
        for name, param, pos in _defaulted_parameters(tree):
            values = [_passed(call, param, pos)
                      for call in calls.get(name, ())]
            if values and all(isinstance(v, ast.Constant) for v in values) \
                    and len({repr(v.value) for v in values}) == 1:
                constant.add(f"{name}({param})")
    return constant


def test_every_defaulted_parameter_is_passed():
    # an option that only the tests pass doubles what the tests must
    # cover: every parameter with a default of a public function, method
    # or constructor is passed by some call in the library or perfbench
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES]
    callers = trees + [ast.parse(p.read_text(encoding="utf-8")) for p in
                       sorted((ROOT / "perfbench").glob("*.py"))]
    assert _uncalled_parameters(trees, callers) == UNPASSED_BACKLOG


def test_no_defaulted_parameter_is_always_one_constant():
    # a parameter that every call passes as the same literal is a switch
    # with one setting: its other branch is reached only by the tests
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES]
    callers = trees + [ast.parse(p.read_text(encoding="utf-8")) for p in
                       sorted((ROOT / "perfbench").glob("*.py"))]
    assert _constant_parameters(trees, callers) == set()


def test_constant_parameter_lint_sees_every_call():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
              "class K:\n    def __init__(self, v=0, w=0):\n        pass\n"
              "    def m(self, y=0, z=0):\n        pass\n"
              "f(0, False, d=1, e=0)\nf(0, False, 5, d=1, e=False)\n"
              "K(1, w=x)\nK(2)\nk.m(None, z=2)\nk.m(*args, z=2)\n"
              "k.m(None, **options)\n")
    tree = ast.parse(source)
    assert _constant_parameters([tree], [tree]) == {"f(b)", "f(d)"}
    assert _constant_parameters([tree], []) == set()


def test_parameter_lint_sees_positions_keywords_and_constructors():
    source = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
              "def _g(x=1):\n    pass\n"
              "class K:\n    def __init__(self, v=0, w=0):\n        pass\n"
              "    def m(self, y=0, z=0):\n        pass\n"
              "    @staticmethod\n    def s(u=0):\n        pass\n"
              "    def _p(self, q=0):\n        pass\n"
              "class _L:\n    def __init__(self, r=0):\n        pass\n"
              "f(0, 1)\nf(0, c=1)\nK(1)\nk.m(1)\nK.s(**options)\n"
              "k.m(*args)\n")
    tree = ast.parse(source)
    assert _uncalled_parameters([tree], [tree]) == {"f(d)", "K(w)"}
    assert _uncalled_parameters([tree], []) == {
        "f(b)", "f(c)", "f(d)", "K(v)", "K(w)", "m(y)", "m(z)", "s(u)"}


def _open_calls(tree):
    """Line numbers of calls to the builtin ``open``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            yield node.lineno


def test_cli_opens_no_file():
    # every file read or write goes through serialize, which turns OS and
    # JSON faults into IoError lines that name the file
    path = ROOT / "src" / "tensorforge" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(_open_calls(tree)) == []


def test_open_lint_sees_calls():
    source = ("with open(p) as fh:\n    pass\n"
              "x = open(q, 'w')\nio.open(r)\nf.opener(s)\n")
    assert sorted(_open_calls(ast.parse(source))) == [1, 3]


def _environment_reads(tree):
    """Line numbers of reads of ``os.environ`` or ``os.getenv``, by
    attribute or by a name imported from ``os``."""
    names = {"environ", "getenv"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names \
                or isinstance(node, ast.Name) and node.id in names \
                or isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(alias.name in names for alias in node.names):
            yield node.lineno


def test_only_the_cli_reads_the_environment():
    # a library call answers from its arguments alone; an environment
    # variable is an option of the command line, read and checked there
    readers = {p.name for p in SOURCES if list(_environment_reads(
        ast.parse(p.read_text(encoding="utf-8"))))}
    assert readers == {"cli.py"}


def test_environment_lint_sees_attributes_names_and_imports():
    source = ("os.environ.get('A')\nx = os.getenv('B')\n"
              "from os import environ\nenviron['C']\nos.path.join(d)\n")
    assert sorted(_environment_reads(ast.parse(source))) == [1, 2, 3, 4]


UNIQUE_FLAGS = {"return_index", "return_inverse", "return_counts"}


def _plain_unique_calls(tree):
    """Line numbers of ``unique`` calls that pass none of UNIQUE_FLAGS by
    keyword, or pass each only as a literal False."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name == "unique" and not any(
                k.arg in UNIQUE_FLAGS and not (
                    isinstance(k.value, ast.Constant)
                    and k.value.value is False)
                for k in node.keywords):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_plain_unique_calls(path):
    # numpy's np.unique(x) without a return_* flag calls np.ma.is_masked,
    # so the first such call in a process imports numpy.ma (12-16 ms);
    # count with np.bincount or sort instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(_plain_unique_calls(tree)) == []


def test_unique_lint_sees_plain_calls():
    source = ("np.unique(a)\nnp.unique(b, return_index=True)\n"
              "numpy.unique(c, axis=0)\nunique(d)\n"
              "np.unique(e, return_counts=False)\n"
              "np.unique(f, return_inverse=flag)\nnp.union1d(g, h)\n")
    assert sorted(_plain_unique_calls(ast.parse(source))) == [1, 3, 4, 5]


def _empty_set_fallbacks(tree):
    """Line numbers of ``or`` expressions with a call to ``generating_set``
    or ``search_set`` in an operand before the last."""
    names = {"generating_set", "search_set"}
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or) \
                and any(isinstance(inner, ast.Call) and (
                    getattr(inner.func, "id", None) in names
                    or getattr(inner.func, "attr", None) in names)
                    for value in node.values[:-1]
                    for inner in ast.walk(value)):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_empty_generating_set_fallbacks(path):
    # a generating set is never empty, the trivial group's is its
    # identity, so no caller patches an empty one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(_empty_set_fallbacks(tree)) == []


def test_fallback_lint_sees_calls_before_the_last_operand():
    source = ("a = generating_set(G) or [G.identity]\n"
              "b = list(homs.search_set(G)) or []\n"
              "c = x or generating_set(G)\n"
              "d = generating_set(G)\n"
              "e = tuple(gens) or (0,)\n"
              "f = y or groups.generating_set(H) or [0]\n")
    assert sorted(_empty_set_fallbacks(ast.parse(source))) == [1, 2, 6]


def _self_indexed(tree):
    """Line numbers of subscripts ``t[i, ...]`` one of whose indices is
    itself a subscript of the same expression, as ``t[t[a, b], c]`` or
    ``G.table[G.table[x]]``: a product of products read from one table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            indices = node.slice.elts if isinstance(node.slice, ast.Tuple) \
                else [node.slice]
            if any(isinstance(index, ast.Subscript)
                   and ast.dump(index.value) == ast.dump(node.value)
                   for index in indices):
                yield node.lineno


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "groups.py"],
                         ids=lambda p: p.name)
def test_conjugates_and_commutators_come_from_groups(path):
    # x^y = y^-1 x y and [x, y] are gathered from a table in one place
    # each, groups.conjugates and groups._commutator_rows, so the
    # convention is written once; other modules read those or
    # conjugation_maps
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(_self_indexed(tree))) == []


def test_self_index_lint_sees_nested_gathers():
    source = ("c = t[t[inv[s]], s]\n"
              "d = G.table[G.table[x], y]\n"
              "e = t[u[x], y]\n"
              "f = conj[x1, X[y, conj[g, x]]]\n"
              "g = t[a, t[b]]\n"
              "h = G.table[H.table[x]]\n")
    assert sorted(_self_indexed(ast.parse(source))) == [1, 2, 5]


def _isomorphism_searches(tree):
    """Line numbers of calls to ``are_isomorphic``, by name or attribute."""
    for name, node in _named_calls(tree):
        if name == "are_isomorphic":
            yield node.lineno


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "homs.py"],
                         ids=lambda p: p.name)
def test_isomorphism_is_decided_in_homs(path):
    # whether two groups are isomorphic is asked of homs.isomorphic, which
    # decides abelian groups by their invariants and searches only for
    # non-abelian ones; only homs calls the search itself
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(_isomorphism_searches(tree)) == []


def test_isomorphism_lint_sees_names_and_attributes():
    source = ("a = are_isomorphic(G, H)\n"
              "b = homs.are_isomorphic(G, H) is not None\n"
              "c = isomorphic(G, H)\n"
              "d = tf.homs.are_isomorphic\n"
              "if x and are_isomorphic(K, L):\n    pass\n")
    assert sorted(_isomorphism_searches(ast.parse(source))) == [1, 2, 5]
