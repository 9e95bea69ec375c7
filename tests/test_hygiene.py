"""Source hygiene: every imported name is read somewhere in its module, and
every top-level definition of the package is read by code that is not a
test."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos")
                 for p in (ROOT / d).rglob("*.py"))
#: everything that may read a package definition besides the tests (the
#: benchmark's own ``test_*.py`` are tests)
NON_TEST = sorted(p for d in ("src", "demos") for p in (ROOT / d).rglob("*.py")
                  ) + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                             if not p.name.startswith("test_"))
#: definitions only the tests read, each with the reason it stays
TEST_ONLY = {
    "basis_pursuit": "perfbench/run.py rebinds it by name at set-up; it "
                     "goes with the benchmark upkeep on ROADMAP",
    "tail_chain_sum": "the tests check the tail constants EPS_B and EPS_W "
                      "against this direct sum of the layer chain",
}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (``from __future__`` exempt) that the module
    never loads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_no_unused_imports():
    assert SOURCES
    found = [f"{path.relative_to(ROOT)}: {name}" for path in SOURCES
             for name in unused_imports(ast.parse(path.read_text(), str(path)))]
    assert not found, "imported but never read:\n" + "\n".join(found)


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(fn) -> set[str]:
    """Parameters of ``fn`` and the names its own body binds (nested
    functions and classes bind only their own names here)."""
    args = fn.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
           + [args.vararg, args.kwarg] if a}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        if not isinstance(n, SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(n))
    return out


def names_read(node: ast.AST, bound: frozenset = frozenset()) -> set[str]:
    """Names, attributes and imported names that ``node`` reads.  A name
    that an enclosing function binds (a parameter or a local) is that
    function's own, so its loads are no read of a module-level name."""
    if isinstance(node, SCOPES):
        bound = bound | local_names(node)
    out = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in bound:
            out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        out.update(a.name for a in node.names)
    for child in ast.iter_child_nodes(node):
        out |= names_read(child, bound)
    return out


def test_names_read_skips_bound_names():
    """A parameter or local that shadows a module-level name is no read of
    it, in its own function or a nested one; a free name still is."""
    tree = ast.parse("def wrap(f, *args):\n"
                     "    g = h\n"
                     "    def inner():\n"
                     "        return f(g, *args) + k.attr\n"
                     "    return inner\n")
    assert names_read(tree) == {"h", "k", "attr"}


def test_no_test_only_definitions():
    """A top-level function or class of ``src/deconv2d`` is read by another
    top-level statement of the package, a demo, the benchmark or
    ``pyproject.toml`` (the entry point); its own body does not count."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in NON_TEST}
    reads = [(stmt, names_read(stmt)) for tree in trees.values()
             for stmt in tree.body]
    reads.append((None, set(re.findall(
        r"\w+", (ROOT / "pyproject.toml").read_text()))))
    package = ROOT / "src" / "deconv2d"
    found = {d.name: f"{path.relative_to(ROOT)}:{d.lineno}"
             for path, tree in trees.items() if path.parent == package
             for d in tree.body
             if isinstance(d, (ast.FunctionDef, ast.ClassDef))
             and not any(d.name in names for stmt, names in reads
                         if stmt is not d)}
    assert found.keys() == TEST_ONLY.keys(), (
        "read only by tests (or nothing): " + ", ".join(
            f"{name} ({where})" for name, where in sorted(found.items())
            if name not in TEST_ONLY))


#: defaulted parameters no code outside the tests passes, each with the
#: reason it stays
DEFAULT_ONLY = {
    "basis_pursuit(max_iters)": "a test lowers the cap to provoke "
                                "NotConverged in a few hundred iterations",
    "numeric_certificate(origin)": "the soundness tests shift the sample "
                                   "grid across the u-box; the demos and "
                                   "the CLI use the centred grid",
}


def defaulted_parameters(tree: ast.Module):
    """(function, parameter, position) for each parameter with a default
    of a top-level function or method; position counts the arguments a
    call spells out (None for keyword-only parameters).  A class's
    ``__init__`` is named after the class, which is what its calls spell."""
    defs = [(d, d.name, False) for d in tree.body
            if isinstance(d, ast.FunctionDef)]
    defs += [(d, c.name if d.name == "__init__" else d.name, True)
             for c in tree.body if isinstance(c, ast.ClassDef)
             for d in c.body if isinstance(d, ast.FunctionDef)]
    for d, name, method in defs:
        bound = method and not any(isinstance(x, ast.Name)
                                   and x.id == "staticmethod"
                                   for x in d.decorator_list)
        positional = d.args.posonlyargs + d.args.args
        first = len(positional) - len(d.args.defaults)
        for i in range(first, len(positional)):
            yield name, positional[i].arg, i - bound
        for a, default in zip(d.args.kwonlyargs, d.args.kw_defaults):
            if default is not None:
                yield name, a.arg, None


def passes(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` spells out parameter ``name`` (at ``position``).
    ``*args`` and ``**kwargs`` only forward what their own caller passed,
    so they do not count."""
    if any(k.arg == name for k in call.keywords):
        return True
    spelled = next((i for i, a in enumerate(call.args)
                    if isinstance(a, ast.Starred)), len(call.args))
    return position is not None and spelled > position


def test_defaults_are_used():
    """A defaulted parameter of ``src/deconv2d`` is passed by some call in
    the package, a demo or the benchmark; otherwise its default is the only
    value it ever takes, and it should be a constant."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in NON_TEST}
    calls = [c for tree in trees.values() for c in ast.walk(tree)
             if isinstance(c, ast.Call)]
    package = ROOT / "src" / "deconv2d"
    unused = {f"{fn}({name})" for path, tree in trees.items()
              if path.parent == package
              for fn, name, position in defaulted_parameters(tree)
              if not any(getattr(c.func, "id", getattr(c.func, "attr", None))
                         == fn and passes(c, name, position) for c in calls)}
    assert unused == DEFAULT_ONLY.keys(), (
        "defaults never overridden outside the tests: "
        + ", ".join(sorted(unused - DEFAULT_ONLY.keys()))
        + "; listed but overridden: "
        + ", ".join(sorted(DEFAULT_ONLY.keys() - unused)))
