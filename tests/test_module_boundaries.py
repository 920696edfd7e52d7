"""Only the front end reads C token syntax, and flow analysis reads no tree.

Every other module works on the block tree, whose statements carry
their kind and line span but no tokens.  The parser records the jumps
that flow analysis reads, so the classifier needs no block node type.
Importing the CLI loads none of the modules that only slow its start.
Every private module-level name and method is read somewhere in the
package, so no refactor leaves a dead helper behind.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "codearea"
TOKEN_NAMES = {"Token", "TokenKind"}
NODE_NAMES = {"Statement", "LoopBlock", "ConditionBlock", "ExceptionBlock", "FunctionDef"}


def _importers(wanted: set[str]) -> set[str]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):  # e.g. frontend.TokenKind
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            if names & wanted:
                found.add(path.name)
    return found


def test_only_the_front_end_imports_token_types():
    assert _importers(TOKEN_NAMES) <= {"frontend.py", "__init__.py"}


def test_the_classifier_uses_no_block_node_type():
    assert "classifier.py" not in _importers(NODE_NAMES)


def _definitions(path: Path) -> list[tuple[str, str]]:
    """(place, name) of each module-level name and each method in *path*."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((path.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{path.name}:{node.name}", item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(path.name, name.id) for target in targets
                      for name in ast.walk(target) if isinstance(name, ast.Name)]
    return found


def _reads(path: Path) -> set[str]:
    """Every name *path* reads, as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_private_name_is_read():
    # A private module-level name or method that nothing in the package
    # reads is dead code, left behind by a refactor.
    paths = sorted(PACKAGE.glob("*.py"))
    read = set().union(*map(_reads, paths))
    private = [
        (place, name) for path in paths for place, name in _definitions(path)
        if name.startswith("_") and not name.endswith("__")
    ]
    assert len(private) > 50
    assert [(place, name) for place, name in private if name not in read] == []


# ``dataclasses`` builds each class by generating and exec-ing code, and it
# imports ``inspect``, which imports ``ast`` and ``dis``; ``configparser``
# is only needed for ``--config``, and ``pathlib`` interns every path part.
SLOW_TO_IMPORT = ("dataclasses", "inspect", "ast", "dis", "configparser", "pathlib")


def test_importing_the_cli_loads_no_slow_module():
    # -S skips site, which may import some of these itself.
    probe = "import sys, codearea.cli; print(*sorted(set(sys.argv[1:]) & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", probe, *SLOW_TO_IMPORT],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert loaded == []
