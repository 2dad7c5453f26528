"""Memo hygiene: no unbounded lru_cache beyond a known list.

An unbounded memo grows for the life of the process, so what a call
costs depends on what ran before it.  The allowlist only shrinks.
"""

import ast
from pathlib import Path

import trunksym

UNBOUNDED_ALLOWED = set()


def _is_unbounded_cache(decorator: ast.expr) -> bool:
    """@cache, or lru_cache called with maxsize None."""
    call = decorator if isinstance(decorator, ast.Call) else None
    func = call.func if call else decorator
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or call is None:
        return False
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def unbounded_memos() -> set[str]:
    found = set()
    for path in sorted(Path(trunksym.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_unbounded_cache(d) for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
    return found


def test_unbounded_memos_are_allowlisted():
    assert unbounded_memos() == UNBOUNDED_ALLOWED


def test_detector_sees_each_spelling():
    source = (
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@functools.lru_cache(None)\ndef b(): pass\n"
        "@cache\ndef c(): pass\n"
        "@lru_cache(maxsize=64)\ndef d(): pass\n"
        "@lru_cache\ndef e(): pass\n"
    )
    tree = ast.parse(source)
    flagged = {f.name for f in tree.body if any(_is_unbounded_cache(d) for d in f.decorator_list)}
    assert flagged == {"a", "b", "c"}
