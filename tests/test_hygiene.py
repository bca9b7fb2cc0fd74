"""Source hygiene: every module-level import of the package is used, and
every option a subcommand declares is read."""

import ast
import pathlib

import concentro
from concentro import cli

PACKAGE = pathlib.Path(concentro.__file__).parent


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
    funcs = _cli_functions()
    unread = []
    for name, parser in cli._parsers()[1].items():
        # the handler, dispatch, and for `mc` the mode functions
        roots = ["dispatch", parser.get_default("func").__name__]
        if name == "mc":
            roots += [f.__name__ for f, _ in cli._MC_MODES.values()]
        reads = _reads(funcs, roots)
        unread += [f"{name} {'/'.join(a.option_strings) or a.dest}" for a in parser._actions
                   if a.dest != "help" and a.dest not in reads]
    assert unread == []


def test_each_mc_mode_reads_the_options_it_keeps():
    """`_cmd_mc` rejects a set option that its mode does not read, by the
    options listed in `_MC_MODES`: each mode's list must name exactly what it
    reads beyond the options that every mode reads, and every other option
    must be one of those."""
    funcs = _cli_functions()
    mc = cli._parsers()[1]["mc"]
    assert set(cli._MC_MODES) == set(mc._actions[1].choices)
    declared = {a.dest for a in mc._actions} - {"help"}
    reads = {mode: _reads(funcs, [fn.__name__]) & declared
             for mode, (fn, _) in cli._MC_MODES.items()}
    every = _reads(funcs, ["dispatch", "_cmd_mc"]) | set.intersection(*reads.values())
    listed = {mode: set(options) for mode, (_, options) in cli._MC_MODES.items()}
    for mode in cli._MC_MODES:
        assert reads[mode] - every == listed[mode], mode
    assert declared - set().union(*listed.values()) <= every
