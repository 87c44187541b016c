"""Design checks over the source tree itself."""

import ast
from pathlib import Path

import lobexec

SRC = Path(lobexec.__file__).parent

# (file, function, parameter) unread on purpose, each with its reason.
ALLOWED = {
    # every policy's act(t, obs) is one interface; each reads what it needs
    ("strategies.py", "act", "t"),
    ("strategies.py", "act", "obs"),
    # ConstantMarket takes a seeded market factory's seed (the benchmark's
    # factory passes one); its constant quotes draw nothing
    ("synthetic.py", "__init__", "seed"),
}

# (file, qualified name) of functions that no code in src/ references, each
# kept on purpose with its reason.
UNREFERENCED = {
    # kept only because perfbench/tracing.py wraps these three through
    # OrderBook.__dict__: submit_limit and cancel are one-item requote calls,
    # and the production paths enter the book through requote, submit_market
    # and imbalances
    ("lob.py", "OrderBook.submit_limit"),
    ("lob.py", "OrderBook.cancel"),
    ("lob.py", "OrderBook.volume_imbalance"),
    # argparse calls it on a bad command line
    ("cli.py", "_Parser.error"),
    # kept only because perfbench/tracing.py wraps these three by name: they
    # read the caller's own io.StringIO sinks, which the caller can read
    # itself, and simulate streams its rows into files
    ("kernel.py", "SessionLog.snapshots_csv"),
    ("kernel.py", "SessionLog.fills_csv"),
    ("kernel.py", "SessionLog.fundamental_csv"),
}


def _is_stub(body) -> bool:
    """A body that only passes or raises, after any docstring."""
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]
    return bool(body) and all(isinstance(s, (ast.Pass, ast.Raise)) for s in body)


def unread_parameters(tree: ast.Module):
    """(qualified name, parameter) for every parameter of every function or
    method in ``tree`` that its body never reads; ``self``, ``cls`` and stub
    bodies are skipped."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                if not _is_stub(child.body):
                    a = child.args
                    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                              *filter(None, (a.vararg, a.kwarg)))]
                    read = {n.id for stmt in child.body for n in ast.walk(stmt)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                    found.extend((name, p) for p in params
                                 if p not in ("self", "cls") and p not in read)
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_every_parameter_is_read():
    """A parameter that nothing reads is a setting that changes nothing; the
    allowlist holds exactly the ones kept on purpose, so a stale entry fails
    too."""
    unread = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        unread.update((path.name, qualname.rsplit(".", 1)[-1], param)
                      for qualname, param in unread_parameters(tree))
    assert sorted(unread) == sorted(ALLOWED)


def test_the_scan_finds_an_unread_parameter():
    tree = ast.parse("def f(a, b):\n    return a\n\n"
                     "class C:\n    def g(self, x):\n        raise NotImplementedError\n"
                     "    def h(self, y, z):\n        return lambda: z\n")
    assert unread_parameters(tree) == [("f", "b"), ("C.h", "y")]


def unreferenced_functions(trees: dict):
    """(file, qualified name) for every function or method in ``trees``, a
    map of file name to module, that no code in them references. A method
    counts as referenced by an attribute of its name (``x.name``), any other
    function also by its bare name; dunder methods, which Python calls
    itself, are skipped."""
    defs, names, attrs = [], set(), set()

    def visit(node, file, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.", True)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((file, f"{prefix}{child.name}", child.name, in_class))
                visit(child, file, f"{prefix}{child.name}.", False)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                attrs.add(child.attr)
            visit(child, file, prefix, in_class)

    for file, tree in trees.items():
        visit(tree, file, "", False)
    return [(file, qualname) for file, qualname, name, method in defs
            if not (name.startswith("__") and name.endswith("__"))
            and name not in attrs and (method or name not in names)]


def test_every_function_is_referenced():
    """A function or method that nothing in src/ calls is API that nothing
    reads; the allowlist holds exactly the ones kept on purpose."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    assert sorted(unreferenced_functions(trees)) == sorted(UNREFERENCED)


def test_the_scan_finds_an_unreferenced_method():
    source = ("def helper():\n    return C().used()\n\n"
              "def main():\n    return helper()\n\n"
              "class C:\n"
              "    def __init__(self):\n        self.x = 1\n"
              "    def used(self):\n        return self.x\n"
              "    def unused(self):\n        return 2\n"
              "    def helper(self):\n        return 3\n")
    assert unreferenced_functions({"m.py": ast.parse(source)}) == [
        ("m.py", "main"), ("m.py", "C.unused"), ("m.py", "C.helper")]
