"""Every top-level definition in src/ncol runs from the code that uses the package.

Reached code is all of scripts/ and perfbench/, the module-level statements of
the package (what an import runs) and the body of every definition it names,
to a fixed point: a definition that only unreached code names is unreached
too.  A name counts where code names it, as a name bound in its module
(`potential_stack`, or an imported `Trajectory`) or as an attribute of a
package module (`nbody.potential_stack`); docstrings, comments, strings and
reflection do not count, and a definition naming itself reaches nothing.
cli.main looks `cmd_<command>` up by name, so reaching it reaches the
command function of every subcommand build_parser lists.  There is no
allow-list: a definition only the tests use belongs in the tests.

A package module that imports a name it never uses fails too; __init__'s
re-exports and `from __future__` imports are exempt.

Every defaulted parameter of a public top-level function is an option: one
counted call passes it and another leaves it out.  A parameter no call
passes is a constant, and one every call passes needs no default.  The
counted calls are those of the reached code and of the acceptance checklist
(tests/test_acceptance.py with its fixtures in tests/conftest.py), which CI
runs as a deliverable; a call with *args or **kwargs is not counted.
"""

import argparse
import ast
from pathlib import Path

from ncol import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncol"
CALLERS = ("scripts", "perfbench")
CHECKLIST = ("tests/test_acceptance.py", "tests/conftest.py")
DEFINITION = (ast.FunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def package_modules() -> dict:
    """{module name: AST} of src/ncol."""
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}


def caller_trees() -> list:
    return [_parse(p) for d in CALLERS for p in sorted((ROOT / d).glob("*.py"))]


def checklist_trees() -> list:
    return [_parse(ROOT / p) for p in CHECKLIST]


def _scope(tree: ast.Module, modules, own: str | None) -> dict:
    """What each name of tree stands for: a package module (its name, "" for
    the package itself) or a definition ((module, name)).  own names the
    package module that tree is, if any; its top-level definitions are
    named bare."""
    scope = {}
    if own is not None:
        scope.update({node.name: (own, node.name) for node in tree.body
                      if isinstance(node, DEFINITION)})
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "ncol":
                    continue
                if alias.asname:  # `import ncol.cli as c` binds c to cli
                    scope[alias.asname] = alias.name[5:]
                else:  # `import ncol.cli` binds ncol, the package
                    scope["ncol"] = ""
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative, inside the package
                source = node.module or ""
            elif node.module.split(".")[0] == "ncol":
                source = node.module[5:]
            else:
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if not source and alias.name in modules:
                    scope[name] = alias.name
                else:
                    scope[name] = (source or "__init__", alias.name)
    return scope


def _target(node, scope, modules):
    if isinstance(node, ast.Name):
        return scope.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _target(node.value, scope, modules)
        if base == "":
            return node.attr if node.attr in modules else None
        if isinstance(base, str):
            return base, node.attr
    return None


def _named(nodes, scope, modules) -> set:
    """The definitions the code of nodes names."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            target = _target(node, scope, modules)
            if isinstance(target, tuple):
                out.add(target)
    return out


def _definitions(modules: dict) -> dict:
    return {(mod, node.name): node for mod, tree in modules.items()
            for node in tree.body if isinstance(node, DEFINITION)}


def reached_definitions(modules: dict, callers: list, commands) -> set:
    """(module, name) of the top-level definitions reached code names."""
    defs = _definitions(modules)
    scopes = {mod: _scope(tree, modules, mod) for mod, tree in modules.items()}
    reached = set()
    frontier = [_named(tree.body, _scope(tree, modules, None), modules) for tree in callers]
    frontier += [_named([n for n in tree.body if not isinstance(n, DEFINITION)], scopes[mod],
                        modules) for mod, tree in modules.items()]
    while frontier:
        for target in frontier.pop() - reached:
            if target not in defs:
                continue
            reached.add(target)
            mod = target[0]
            frontier.append(_named([defs[target]], scopes[mod], modules))
            if target == ("cli", "main"):
                frontier.append({("cli", f"cmd_{c}") for c in commands})
    return reached


def unreached(modules: dict, callers: list, commands) -> list:
    """Sorted "module.name" of the top-level definitions no reached code names."""
    live = reached_definitions(modules, callers, commands)
    return sorted(f"{mod}.{name}" for mod, name in set(_definitions(modules)) - live)


def _defaulted(fn: ast.FunctionDef) -> dict:
    """{name: position, None when keyword-only} of fn's defaulted parameters."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {p.arg: i for i, p in enumerate(positional) if i >= first}
    out.update({p.arg: None for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


def one_sided_parameters(modules: dict, callers: list, checklist: list, commands) -> list:
    """Sorted "module.function(parameter): never passed" or "...: always passed"
    for each defaulted parameter of a public top-level function that the
    calls of the reached code, callers and checklist do not both pass and
    leave out."""
    live = reached_definitions(modules, callers, commands)
    functions = {key: node for key, node in _definitions(modules).items()
                 if isinstance(node, ast.FunctionDef) and not key[1].startswith("_")}
    code = [(tree.body, _scope(tree, modules, None)) for tree in callers + checklist]
    code += [([n for n in tree.body if not isinstance(n, DEFINITION) or (mod, n.name) in live],
              _scope(tree, modules, mod)) for mod, tree in modules.items()]
    passed = {(key, name): set() for key, fn in functions.items() for name in _defaulted(fn)}
    for nodes, scope in code:
        for call in (c for top in nodes for c in ast.walk(top) if isinstance(c, ast.Call)):
            key = _target(call.func, scope, modules)
            keywords = {k.arg for k in call.keywords}
            if key not in functions or None in keywords or any(
                    isinstance(a, ast.Starred) for a in call.args):
                continue
            for name, i in _defaulted(functions[key]).items():
                passed[key, name].add(name in keywords or (i is not None and i < len(call.args)))
    return sorted(f"{mod}.{fn}({name}): {'always' if seen == {True} else 'never'} passed"
                  for ((mod, fn), name), seen in passed.items() if seen != {True, False})


def unused_imports(modules: dict) -> list:
    """Sorted "module.name" of the names a package module imports and never uses."""
    out = []
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append(f"{mod}.{name}")
    return sorted(out)


def subcommands() -> list:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


def test_every_definition_in_src_is_reached():
    dead = unreached(package_modules(), caller_trees(), subcommands())
    assert not dead, f"only tests reach {', '.join(dead)}: move them into the tests"


def test_every_defaulted_parameter_is_passed_and_left_out():
    one_sided = one_sided_parameters(package_modules(), caller_trees(), checklist_trees(),
                                     subcommands())
    assert not one_sided, ("make a parameter no call passes a constant, and drop the "
                           "default of one every call passes: " + "; ".join(one_sided))


def test_no_src_module_imports_a_name_it_does_not_use():
    unused = unused_imports(package_modules())
    assert not unused, f"imported and never used: {', '.join(unused)}"


def test_the_scans_find_what_was_planted():
    """A definition that only an unreached one names, a pair naming only each
    other, a command the parser does not list and an unused import are all
    found; the package's own call chains still reach what they reach."""
    modules = package_modules()
    modules["cli"].body += ast.parse(
        "def cmd_nowhere(args):\n    return _lonely()\n"
        "def _lonely():\n    return _lonely()\n"
        "def _ping():\n    return _pong()\n"
        "def _pong():\n    return _ping()\n").body
    modules["nbody"].body.insert(0, ast.parse("import os").body[0])
    dead = unreached(modules, caller_trees(), subcommands())
    assert {"cli._lonely", "cli._ping", "cli._pong", "cli.cmd_nowhere"} <= set(dead)
    assert not {"cli.main", "cli.cmd_morse", "morse._refine_until",
                "nbody.pair_separations"} & set(dead)
    assert "nbody.os" in unused_imports(modules)


def test_the_parameter_scan_finds_what_was_planted():
    """A parameter no reached call passes and one every reached call passes
    are both found; a call from unreached code does not count, and a
    parameter passed by one call and left out by another passes."""
    modules = package_modules()
    modules["cli"].body += ast.parse(
        "def planted(x, never=0, always=0, both=0):\n    return x\n"
        "planted(0, always=1, both=1)\n"
        "planted(0, always=1)\n"
        "def _unreached():\n    return planted(0, 1, 1)\n").body
    one_sided = one_sided_parameters(modules, caller_trees(), checklist_trees(), subcommands())
    assert one_sided == ["cli.planted(always): always passed", "cli.planted(never): never passed"]
