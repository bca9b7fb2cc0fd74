"""Source hygiene: every module-level import, function parameter, class
member and definition of the package is used (an exported one may be read by
the benchmark instead), and every option a subcommand declares is read and
has an option string."""

import ast
import pathlib

import concentro
from concentro import cli

PACKAGE = pathlib.Path(concentro.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _unused_imports(path):
    """`file:line name` of each module-level import whose name the module
    never reads; `__future__` imports and lines marked `# noqa` are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_module_level_import_is_used():
    # the package root imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for path in modules for u in _unused_imports(path)] == []


def _defined_names(node):
    """The names a module-level statement defines: a function's or class's
    name, or the names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unread_definitions(select):
    """`module name` of each module-level function, class or assigned name of
    the package, among those `select(name)` picks, that is not read, as a name
    or an attribute, anywhere in the package outside its own statement."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    reads = [(n, n.id if isinstance(n, ast.Name) else n.attr)
             for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    defs = [(module, node, name) for module, tree in trees.items() for node in tree.body
            for name in _defined_names(node) if select(name)]
    assert defs
    unread = []
    for module, node, name in defs:
        inside = {id(n) for n in ast.walk(node)}
        if not any(read == name and id(n) not in inside for n, read in reads):
            unread.append(f"{module} {name}")
    return unread


def test_every_private_module_level_definition_is_read():
    """A module-level function, class or assigned name that starts with `_` is
    read, as a name or an attribute, somewhere in the package outside its own
    statement."""
    assert _unread_definitions(lambda name: name.startswith("_")) == []


def _benchmark_attribute_reads():
    """The names read as an attribute in perfbench/*.py."""
    trees = [ast.parse(p.read_text()) for p in sorted(PERFBENCH.glob("*.py"))]
    assert trees
    return {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


# exported names that nothing reads yet, each with the reason it stays
UNREAD_EXPORTS = {
    "bounds.py additive_functional_tail": "the paper's tail bound for an additive functional"
                                          " f(X_1) + .. + f(X_n); the `mc additive` mode of"
                                          " ROADMAP direction 7 checks it against Monte Carlo",
}


def test_every_definition_has_a_reader():
    """A module-level function, class or assigned name is read somewhere in
    the package outside its own statement, or, when the package root exports
    it, as an attribute in the benchmark (perfbench/*.py): code and constants
    that only tests read belong in the tests (reference oracles live in
    tests/oracles.py).  A bare name in the benchmark is its own definition
    (`perfbench/checks.py` imports nothing from the package), so it is no
    reader.  The exported names that are still unread are exactly
    `UNREAD_EXPORTS`, so that list can neither grow nor go stale."""
    root = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name for n in root.body if isinstance(n, ast.ImportFrom)
                for a in n.names}
    assert {key.split()[1] for key in UNREAD_EXPORTS} <= exported
    benchmark = _benchmark_attribute_reads()
    unread = _unread_definitions(lambda name: name not in exported or name not in benchmark)
    assert sorted(unread) == sorted(UNREAD_EXPORTS)


def test_every_class_member_has_a_reader():
    """Every def in a class body of the package (a method, classmethod or
    property) is read as an attribute in the package outside its own body, or
    by the benchmark (perfbench/*.py): each value has one constructor, and an
    alternate constructor or helper that only tests call belongs in the tests.
    Dunders are exempt, and so is a class with a base class, whose members may
    override it (`cli._Parser.error`)."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    benchmark = _benchmark_attribute_reads()
    reads = [n for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    members = [(f"{module}.{cls.name}.{fn.name}", fn) for module, tree in trees.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and not cls.bases
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    assert members
    unread = []
    for name, fn in members:
        inside = {id(n) for n in ast.walk(fn)}
        if fn.name not in benchmark and not any(n.attr == fn.name and id(n) not in inside
                                                for n in reads):
            unread.append(name)
    assert unread == []


def _args_reads(fn):
    """Names read as `args.<name>` or `getattr(args, "<name>")` in `fn`."""
    reads = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args":
            reads.add(n.attr)
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "getattr"
              and isinstance(n.args[0], ast.Name) and n.args[0].id == "args"
              and isinstance(n.args[1], ast.Constant)):
            reads.add(n.args[1].value)
    return reads


def _cli_functions():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    # the parameter echo prints every option, so it shows none is used
    del funcs["_header"]
    return funcs


def _reads(funcs, roots):
    """The options read by the functions `roots` and the cli helpers they call."""
    reached, todo = set(), list(roots)
    while todo:
        f = todo.pop()
        if f not in reached:
            reached.add(f)
            todo += [n.func.id for n in ast.walk(funcs[f]) if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Name) and n.func.id in funcs]
    return set().union(*(_args_reads(funcs[f]) for f in reached))


def test_every_cli_option_is_read():
    """Each leaf parser declares exactly the options that its function, the
    cli helpers that function calls and `dispatch` read."""
    funcs = _cli_functions()
    common = _reads(funcs, ["dispatch"])
    leaves = cli._parsers()[1]
    # eight subcommands, `mc` and `graphs` split into their six and two modes
    assert len(leaves) == 14
    unread, undeclared = [], []
    for func, (parser, _) in leaves.items():
        options = {a.dest: "/".join(a.option_strings) for a in parser._actions
                   if a.dest != "help"}
        reads = _reads(funcs, [func.__name__])
        unread += [f"{parser.prog} {flag}" for dest, flag in options.items()
                   if dest not in reads | common]
        undeclared += [f"{parser.prog} args.{name}" for name in sorted(reads - set(options))]
    assert unread == [] and undeclared == []


def test_every_leaf_option_has_an_option_string():
    """A config value is written as its option's first option string, so a
    leaf takes no positional argument."""
    leaves = cli._parsers()[1]
    assert [f"{parser.prog} {a.dest}" for parser, _ in leaves.values()
            for a in parser._actions if a.dest != "help" and not a.option_strings] == []


def test_only_norm_rows_solves_norms_in_bounds():
    """In `bounds`, `_norm_rows` alone builds derivative tensors and solves
    norms, so every report row comes from one producer."""
    solvers = {"norm_J", "mixed_norm", "expected_derivative_tensor"}
    tree = ast.parse((PACKAGE / "bounds.py").read_text())
    calls = set()
    for node in tree.body:
        for n in ast.walk(node):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                if name in solvers:
                    calls.add((node.name, name))
    assert calls == {("_norm_rows", name) for name in solvers}


def test_no_function_takes_a_worker_count():
    """The worker count is the `MCConfig` field `workers`, read by
    `_run_chunks`; no function of the package takes it beside its config."""
    # an ast.arg is a parameter of a def or a lambda
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.arg) and node.arg == "workers"]
    assert found == []


def test_only_tensor_builds_index_grids():
    """Index predicates have one home: `np.indices` appears only in
    `tensor.py`, where `IndexMask` applies its pair rule (and `symmetrize`
    picks orbit representatives); elsewhere a predicate is an `IndexMask`."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "tensor.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "indices"]
    assert found == []


def _nodes_inside(tree, path, home):
    """The ids of the nodes of the def `home`, a (file name, function name)
    pair, when `tree` is parsed from `path`; else none."""
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == home
            for node in ast.walk(fn)}


def test_only_eigenvalues_symmetric_calls_the_eigensolver():
    """One eigen path: LAPACK `eigvalsh` appears only inside
    `rmt.eigenvalues_symmetric`, which checks and symmetrises its input; a
    linear statistic reads the traces of matrix powers instead."""
    found, inside = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        home = _nodes_inside(tree, path, ("rmt.py", "eigenvalues_symmetric"))
        for node in ast.walk(tree):
            names = {getattr(node, "attr", None), getattr(node, "id", None),
                     getattr(node, "name", None)}
            if "eigvalsh" in names:
                if id(node) in home:
                    inside += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == [] and inside == 1


def _compares_a_uniform_draw(node):
    """Whether `node` compares the result of a `.random(...)` call by order,
    as an operand of `<`, `<=`, `>` or `>=` or an argument of `np.less` and
    its kin."""
    def drawn(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "random")
    if isinstance(node, ast.Compare):
        return (any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
                and any(map(drawn, [node.left, *node.comparators])))
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in {"less", "less_equal", "greater", "greater_equal"}
            and any(map(drawn, node.args)))


def test_only_bernoulli_bits_reads_raw_words():
    """One Bernoulli-bit routine: `random_raw` is read only inside
    `poly.bernoulli_bits`, and no uniform draw of the package is compared with
    a probability; a Bernoulli bit is a `bernoulli_bits` call."""
    found, inside = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        home = _nodes_inside(tree, path, ("poly.py", "bernoulli_bits"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "random_raw":
                if id(node) in home:
                    inside += 1
                else:
                    found.append(f"{path.name}:{node.lineno} random_raw")
            elif _compares_a_uniform_draw(node):
                found.append(f"{path.name}:{node.lineno} compares a uniform draw")
    assert found == [] and inside == 1


def _adds_to_a_zero_default(node):
    """Whether `node` is a sum with an operand `X.get(key, 0.0)`: a
    coefficient accumulated in a dict."""
    def zero_default(n):
        return (isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "get"
                and len(n.args) == 2 and isinstance(n.args[1], ast.Constant)
                and type(n.args[1].value) is float and n.args[1].value == 0.0)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and (zero_default(node.left) or zero_default(node.right)))


def test_only_the_polynomial_constructor_sums_coefficients():
    """Polynomial terms combine in one place: `poly._normalize_terms`, which
    the `Polynomial` constructor runs on a mapping or on (monomial,
    coefficient) pairs; no other code of the package adds to
    `X.get(key, 0.0)`, and a producer of terms passes its pairs instead."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        home = _nodes_inside(tree, path, ("poly.py", "_normalize_terms"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _adds_to_a_zero_default(node) and id(node) not in home]
    assert found == []


def test_only_the_polynomial_constructor_checks_counts():
    """In `poly`, `_count` is read only by the `Polynomial` constructor:
    `Polynomial.__post_init__` checks nvars and `_normalize_terms` every
    (variable, power) pair, so a producer of terms, the file loader among
    them, hands its pairs over unchecked."""
    homes = {"Polynomial.__post_init__", "_normalize_terms"}
    tree = ast.parse((PACKAGE / "poly.py").read_text())
    readers = []
    for node in tree.body:
        for scope in node.body if isinstance(node, ast.ClassDef) else [node]:
            name = getattr(scope, "name", "")
            if scope is not node:
                name = f"{node.name}.{name}"
            readers += [(name, n.lineno) for n in ast.walk(scope)
                        if isinstance(n, ast.Name) and n.id == "_count"]
    assert [f"{name} (poly.py:{line})" for name, line in readers if name not in homes] == []
    assert {name for name, _ in readers} == homes


def test_every_parameter_is_read():
    """Every parameter of every def in the package is read in its body, so no
    argument goes unused or restates another input.  A method's self or cls
    is exempt, and so are lambdas, whose parameters the caller fixes (the
    `power_value(v, r)` callbacks of `poly._substitute`)."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if id(fn) in methods:
                params = params[1:]
            reads = {n.id for stmt in fn.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name} {p.arg}" for p in params if p.arg not in reads]
    assert unread == []
