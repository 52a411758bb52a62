"""No module under src/nkm imports a name it never uses. No linter is
installed, so this walks each module's syntax tree."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nkm"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that nothing else names. A name
    counts as used where it appears as a name, as the base of an attribute,
    in a quoted annotation, or in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation, or an entry of __all__
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_finds_an_unused_import():
    source = ("import math\nimport numbers as nb\nimport os.path\n"
              "from .checks import check_int, check_number\n"
              "def f(x: 'np.ndarray') -> float:\n"
              "    return math.pi + check_int(x, 'x')\n")
    assert unused_imports(source) == ["check_number (line 4)", "nb (line 2)",
                                      "os (line 3)"]
