"""Every module-level function and class in qatlab, public or private, has
a caller in qatlab itself, so code that no task uses cannot linger, nor a
helper that has been merged away."""

import ast
from pathlib import Path

import qatlab

# Called from outside the package only: by the tests, the acceptance gate
# and the benchmark's span counters.
OUTSIDE_CALLERS = {"run_toy"}


def test_every_definition_is_referenced():
    defined, referenced = {}, set()
    for path in sorted(Path(qatlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined  # the sources were found
    unused = {name: module for name, module in defined.items() if name not in referenced}
    assert not unused.keys() - OUTSIDE_CALLERS, unused
