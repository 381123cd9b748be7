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
"""

import argparse
import ast
from pathlib import Path

from ncol import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncol"
CALLERS = ("scripts", "perfbench")
DEFINITION = (ast.FunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def package_modules() -> dict:
    """{module name: AST} of src/ncol."""
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}


def caller_trees() -> list:
    return [_parse(p) for d in CALLERS for p in sorted((ROOT / d).glob("*.py"))]


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


def unreached(modules: dict, callers: list, commands) -> list:
    """Sorted "module.name" of the top-level definitions no reached code names."""
    defs = {(mod, node.name): node for mod, tree in modules.items()
            for node in tree.body if isinstance(node, DEFINITION)}
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
    return sorted(f"{mod}.{name}" for mod, name in set(defs) - reached)


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
