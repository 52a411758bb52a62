"""Every command output goes through `data.write_csv`, and report
dataclasses are serialized by `dataclasses.asdict`: no module under
src/nkm but data.py uses the csv module, and no class defines to_dict."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nkm"


def second_writers(source: str, module: str) -> list[str]:
    """What in `source`, the text of `module`, bypasses the one writer or
    the one serializer: an import of csv outside data.py, each use of
    csv.writer past the first, and each method named to_dict."""
    found = []
    writers = 0
    for node in ast.walk(ast.parse(source)):
        if module != "data.py" and (
                (isinstance(node, ast.Import)
                 and any(a.name == "csv" for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "csv")):
            found.append(f"{module}:{node.lineno} imports csv")
        elif (isinstance(node, ast.Attribute) and node.attr == "writer"
              and isinstance(node.value, ast.Name) and node.value.id == "csv"):
            writers += 1
            if writers > 1:
                found.append(f"{module}:{node.lineno} calls csv.writer again")
        elif isinstance(node, ast.ClassDef):
            found += [f"{module}:{item.lineno} {node.name}.to_dict"
                      for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name == "to_dict"]
    return found


def test_one_csv_writer_and_no_to_dict():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in second_writers(path.read_text(), path.name)]
    assert found == []
    assert "csv.writer" in (SRC / "data.py").read_text()


def test_the_guard_finds_a_second_writer():
    source = ("import csv\nfrom csv import writer\n"
              "w = csv.writer(None)\n"
              "class Report:\n    def to_dict(self):\n        return {}\n")
    assert second_writers(source, "cli.py") == [
        "cli.py:1 imports csv", "cli.py:2 imports csv", "cli.py:5 Report.to_dict"]
    assert second_writers(source + "v = csv.writer(None)\n", "data.py") == [
        "data.py:5 Report.to_dict", "data.py:7 calls csv.writer again"]
