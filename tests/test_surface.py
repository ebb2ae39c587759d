"""The library holds only what the program uses.

Every public top-level name in src/pact must be reachable from the `pact`
entry point (`pact.cli.main`), from tests/test_acceptance.py or from
bench/.  A name is reachable when one of those names it, or when it is named
inside the definition of a reachable name.  Names are matched as plain
identifiers, without resolving modules, so the check can miss a dead name
that shares its spelling with a live one but never calls a live name dead.
Reference implementations that only tests compare against live in
tests/oracles.py.

Class members are checked the same way, one level down: every public method,
property and field of a class in src/pact must be named as `.attr` or as a
keyword `attr=` somewhere in src/pact, tests/test_acceptance.py or bench/.
This spelling match is looser still.  It cannot see a dead member whose name
is spelled the same as a live one: a schedule method named `dumps` or `loads`
would pass because of `json.dumps` and `json.loads`.  A use inside a dead
member also counts.

Every `pact.cli` name that bench/traced.py wraps is an attribute of
`pact.cli`, so removing one fails here by name rather than inside the
benchmark's traced run.  Every name `pact.cli` imports from a `pact` module
is used in it outside the import, or is one that bench/traced.py wraps.

Every `raise` in src/pact is a bare re-raise or raises ValueError, the one
error type of a refusal, or OSError, which `_pool_map` raises for a dead
worker.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pact").glob("*.py"))
ROOT_FILES = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]


def _definitions() -> dict[str, set[str]]:
    """Top-level name in src/pact -> identifiers named inside its definition."""
    uses: dict[str, set[str]] = {}
    for path in SOURCES:
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
    for path in ROOT_FILES:
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


def _members() -> list[tuple[str, str]]:
    """(class, member) for every public method, property and field of a class in src/pact."""
    members = []
    for path in SOURCES:
        for cls in ast.parse(path.read_text()).body:
            for node in cls.body if isinstance(cls, ast.ClassDef) else []:
                if isinstance(node, ast.FunctionDef):
                    members.append((cls.name, node.name))
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    members.append((cls.name, node.target.id))
    return [(c, m) for c, m in members if not m.startswith("_")]


def test_every_public_member_is_used():
    text = "\n".join(path.read_text() for path in [*SOURCES, *ROOT_FILES])
    used = set(re.findall(r"\.([A-Za-z_]\w*)", text)) | set(re.findall(r"(\w+)=(?!=)", text))
    assert sorted(f"{c}.{m}" for c, m in _members() if m not in used) == []


def test_every_raise_is_a_value_error_or_os_error():
    odd = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in ("ValueError", "OSError")):
                    odd.append(f"{path.name}:{node.lineno}")
    assert odd == []


def _bench_wrapped_cli_names() -> set[str]:
    """The pact.cli names bench/traced.py wraps: the keys of SPANS and WRITERS, the names of
    a `for attr in (...)` tuple and every `cli.<name>` it reads."""
    names = set()
    for node in ast.walk(ast.parse((ROOT / "bench" / "traced.py").read_text())):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "WRITERS") for t in node.targets):
            names |= {key.value for key in node.value.keys}
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            names |= {e.value for e in node.iter.elts if isinstance(e, ast.Constant)}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "cli"):
            names.add(node.attr)
    return names


def test_every_cli_name_the_bench_wraps_exists():
    from pact import cli

    names = _bench_wrapped_cli_names()
    assert {"ccdf_from_samples", "write_pmf_csv", "sample_d_theta", "sample_d_theta_multi",
            "grow_tree", "_COMMANDS"} <= names
    assert sorted(name for name in names if not hasattr(cli, name)) == []


def test_every_name_the_cli_imports_from_pact_is_used():
    tree = ast.parse((ROOT / "src" / "pact" / "cli.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "pact")
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - _bench_wrapped_cli_names()) == []
