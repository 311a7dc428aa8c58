"""tools/program_trace.py lists the statement lines that no entry point of the program runs."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "program_trace.py"
SRC = ROOT / "src"
FILES = [ROOT / "corpus" / "jordan31.mtx", ROOT / "corpus" / "gauss5.mtx"]


def _function(module, name):
    tree = ast.parse((SRC / "biortho" / module).read_text())
    (node,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def test_a_program_dead_body_is_listed_and_the_eig_line_is_not():
    out = subprocess.run([sys.executable, str(TOOL), str(SRC), "--files", *map(str, FILES)],
                         check=True, capture_output=True, text=True).stdout.splitlines()
    listed = {line.split(": ", 1)[0] for line in out if line.count(":") >= 2}
    # every statement of condition_number's body, after its docstring, never runs
    body = _function("linalg.py", "condition_number").body[1:]
    lines = {sub.lineno for node in body for sub in ast.walk(node) if isinstance(sub, ast.stmt)}
    assert lines and {"linalg.py:%d" % k for k in lines} <= listed
    # point_spectrum's first eig call, eig(A), runs on every input
    eig = min(node.lineno for node in ast.walk(_function("spectral.py", "point_spectrum"))
              if isinstance(node, ast.Attribute) and node.attr == "eig")
    assert "spectral.py:%d" % eig not in listed
    # a summary line per module, and no docstring is a statement
    unrun = sum(1 for line in listed if line.startswith("linalg.py:"))
    assert "linalg.py: %d statement line(s) never ran" % unrun in out
    doc = _function("linalg.py", "condition_number").body[0].lineno
    assert "linalg.py:%d" % doc not in listed
