"""Only the front end reads C token syntax.

Every other module works on the block tree, whose statements carry
their kind, line span and jump but no tokens.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "codearea"
TOKEN_NAMES = {"Token", "TokenKind"}


def _token_importers() -> set[str]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):  # e.g. frontend.TokenKind
                names = {node.attr}
            else:
                continue
            if names & TOKEN_NAMES:
                found.add(path.name)
    return found


def test_only_the_front_end_imports_token_types():
    assert _token_importers() <= {"frontend.py", "__init__.py"}
