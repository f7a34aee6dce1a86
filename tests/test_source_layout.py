"""Guard on the package's shape: every top-level function and class in
``src/robogather`` is used from the package itself, or is named below with
the reason it is kept."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "robogather"

# (module, name) -> why a definition with no caller in the package stays
UNREFERENCED_ALLOWED = {
    ("model", "execute"): "looked up by name from bench/ (a traced span)",
    ("geometry", "circumcircle"): "looked up by name from bench/ (a traced leaf)",
    ("gather2d", "gathering_point"): "looked up by name from bench/run.py",
    ("gather2d", "classify_phase"): "looked up by name from bench/workloads.py",
    ("geometry", "sec_bruteforce"): "test oracle for the Welzl smallest enclosing circle",
    ("gather2d", "target"): "the paper's target, whose equivariance the acceptance suite checks",
}


def _unreferenced() -> set[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    loaded: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in loaded
    }


def test_every_top_level_definition_has_a_caller_or_a_reason():
    assert _unreferenced() == set(UNREFERENCED_ALLOWED)
