"""The library holds only what the program uses.

Every public top-level name in src/pact must be reachable from the `pact`
entry point (`pact.cli.main`), from tests/test_acceptance.py or from
bench/.  A name is reachable when one of those names it, or when it is named
inside the definition of a reachable name.  Names are matched as plain
identifiers, without resolving modules, so the check can miss a dead name
that shares its spelling with a live one but never calls a live name dead.
Reference implementations that only tests compare against live in
tests/oracles.py.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _definitions() -> dict[str, set[str]]:
    """Top-level name in src/pact -> identifiers named inside its definition."""
    uses: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "pact").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            for name in names:
                uses.setdefault(name, set()).update(named)
    return uses


def test_every_public_name_is_reachable():
    uses = _definitions()
    roots = {"main"}
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]:
        roots |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    reached = set()
    todo = sorted(roots & uses.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(uses[name] & uses.keys())
    unreached = sorted(name for name in uses if not name.startswith("_") and name not in reached)
    assert unreached == []
