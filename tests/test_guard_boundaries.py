"""The guard boundary table (tests/guard_boundaries.py) names every guard
limit of frobq, each with its largest accepted input and its first refusal.
The rows themselves run only in that script: together they take a minute."""

import ast
import importlib.util
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "frobq"


def _rows():
    spec = importlib.util.spec_from_file_location("guard_boundaries",
                                                  TESTS / "guard_boundaries.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ROWS


def _guard_limits():
    # "module.MAX_NAME" for every module-level MAX_* assignment in src/frobq
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            names.update(f"{path.stem}.{t.id}" for t in targets
                         if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    return names


def test_every_guard_limit_has_its_accepted_input_and_its_refusal():
    rows = _rows()
    limits = _guard_limits()
    assert {row.guard for row in rows if row.code == 0} == limits
    assert {row.guard for row in rows if row.code != 0} == limits


def test_no_row_is_dropped():
    # 33 rows: a row removed from the table on purpose is counted out here
    assert len(_rows()) == 33



def test_every_guard_message_names_its_limit():
    # each `raise ValueError(f"... guard ...")` says which constant refused,
    # as NAME=value, and every MAX_* constant has such a message in its module
    named = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"):
                text = ast.unparse(node.exc.args[0])
                if " guard" in text:
                    limit = re.search(r"(MAX_\w+)=\{\1\}", text)
                    assert limit, f"{path.name}:{node.lineno}: {text}"
                    named.add(f"{path.stem}.{limit[1]}")
    assert named == _guard_limits()
