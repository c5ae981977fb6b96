"""Static hygiene of the package: no unused imports, no public function
that only a re-export or its own unit tests name, no defaulted
parameter that no caller sets and no more of them than a ratchet allows,
no more source lines than another ratchet allows, no environment variable
or thread pool, adaptive quadrature only where the integrand has kinks
no split point marks, and no sum through BLAS."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "maxprod").glob("*.py"))


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":  # re-exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in _imported_names(tree)
                   if name not in used]
    assert unused == []


def test_no_environment_variables_or_thread_pools():
    # arguments alone set the behaviour, and every run is single-threaded
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.stem}.{name}" for name in names
                      if name in ("environ", "environb", "getenv")
                      or name.split(".")[0] == "concurrent"]
    assert found == []


# callers are the package's modules, the benchmark and the acceptance
# suite: what only a re-export or its own unit tests reach is dead
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
CALLERS = (*MODULES, *sorted((ROOT / "bench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py")


def test_every_public_function_is_named_elsewhere():
    texts = {path: path.read_text(encoding="utf-8") for path in CALLERS}
    orphans = []
    for path in MODULES:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, ast.FunctionDef) \
                    or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            # the definition itself, docstring included, does not count
            own = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            others = (text for other, text in texts.items() if other != path)
            if not word.search(own) and not any(map(word.search, others)):
                orphans.append(f"{path.stem}.{node.name}")
    assert orphans == []


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position or None) for each defaulted parameter.

    Positions count from the first argument a caller passes, so a method's
    self or cls is dropped.
    """
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not any(
                   getattr(d, "id", None) == "staticmethod"
                   for d in node.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        names = [a.arg for a in positional][id(node) in methods:]
        for a in positional[len(positional) - len(args.defaults):]:
            yield node.name, a.arg, names.index(a.arg)
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, a.arg, None


def test_every_default_is_set_somewhere():
    calls = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls.setdefault(name, []).append(node)

    def is_set(call, param, position):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        return position is not None and (len(call.args) > position or any(
            isinstance(a, ast.Starred) for a in call.args))

    unset = [f"{path.stem}.{fn}({param})" for path in SOURCES
             for fn, param, position in _defaulted_parameters(
                 ast.parse(path.read_text(encoding="utf-8")))
             if not any(is_set(c, param, position) for c in calls.get(fn, ()))]
    assert unset == []


def test_defaulted_parameters_do_not_grow():
    # a ratchet: lower it when a default goes, never raise it
    total = sum(len(list(_defaulted_parameters(
        ast.parse(path.read_text(encoding="utf-8"))))) for path in SOURCES)
    assert total <= 11


def test_src_lines_do_not_grow():
    # a ratchet on the package's size, counted as the benchmark counts it:
    # lower it when code goes, never raise it without a reason in CHANGES.md
    total = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in SOURCES)
    assert total <= 2627


def test_adaptive_quadrature_only_for_unmarked_kinks():
    # the Orlicz functionals and the pair checks' rhs go through the sampled
    # path; adaptive Simpson stays for the kernel L1 norm and the pair
    # checks' lhs
    callers = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "adaptive" in (
                        getattr(node.func, "attr", None),
                        getattr(node.func, "id", None)):
                    callers.add(f"{path.stem}.{top.name}")
    assert callers == {"kernels.l1_norm", "analysis.check_modular_inequality"}


def test_blas_sums_do_not_spread():
    # BLAS picks its own summation order, by build and thread count, so a
    # call into it leaves reports machine-dependent; none is left
    blas = {"dot", "matmul", "einsum", "inner", "vdot"}
    callers = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.MatMult)
                call = isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", None) in blas
                if matmul or call:
                    name = getattr(top, "name", "<module>")
                    callers.add(f"{path.stem}.{name}")
    assert callers == set()


def _args_reads(fn: ast.FunctionDef) -> set:
    """Names read off ``args`` in a function, as args.X or getattr(args, X)."""
    reads = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) \
                and getattr(node.value, "id", None) == "args":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "getattr" \
                and getattr(node.args[0], "id", None) == "args":
            reads.add(node.args[1].value)
    return reads


def test_every_cli_flag_is_read():
    # each subcommand's flags are read by its command function or by a
    # helper the command hands ``args`` to
    tree = ast.parse((ROOT / "src" / "maxprod" / "cli.py").read_text(
        encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    helpers = {name: {node.func.id for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) in functions
                      and any(getattr(a, "id", None) == "args"
                              for a in node.args)}
               for name, fn in functions.items()}

    def reads(name, seen):
        seen.add(name)
        return _args_reads(functions[name]).union(
            *(reads(h, seen) for h in helpers[name] - seen))

    unread, dests = [], []
    for stmt in functions["build_parser"].body:
        call = getattr(stmt, "value", None)
        if not isinstance(call, ast.Call) \
                or getattr(call.func.value, "id", None) not in ("p", "sub"):
            continue
        if call.func.attr == "add_parser":
            command, dests = call.args[0].value, []
        elif call.func.attr == "add_argument":
            dest = next((k.value.value for k in call.keywords
                         if k.arg == "dest"),
                        call.args[0].value.lstrip("-").replace("-", "_"))
            dests.append(dest)
        elif call.func.attr == "set_defaults":
            func = next(k.value.id for k in call.keywords if k.arg == "func")
            read = reads(func, set())
            unread += [f"{command} --{d}" for d in dests if d not in read]
    assert unread == []
