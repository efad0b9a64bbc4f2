"""Every public name under ``src/repro`` has a caller that is not a test.

A public name is a module-level function, class or UPPER_CASE constant, or a
public method or property of a public class.  It must be referenced outside
its own definition by a non-test file under ``src/repro``, ``bench/``,
``benchmarks/`` or ``examples/``.  A reference is a NAME token or an
identifier inside a string literal: ``bench/layers.py`` names the callables
it wraps by dotted string.  The strings of an
``__all__`` list export a name, and a docstring describes one; neither
uses it.  Dunders, ``ecall_*`` and
``visit_*`` methods (reached by dispatch on the name) and decorated
module-level definitions (the ``@register`` lint rules) are exempt.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROOTS = ("src/repro", "bench", "benchmarks", "examples")
STRING_TOKENS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
IDENT = re.compile(r"[A-Za-z_]\w*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: qualname -> one-line reason it stays without a non-test caller.
ALLOWED: dict = {}


def _is_public(name: str) -> bool:
    return not name.startswith("_") and not name.startswith(("ecall_", "visit_"))


def _definitions(tree: ast.Module):
    """``(qualname, defining node)`` for every name the rule covers."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            if not _is_public(node.name):
                continue
            if not node.decorator_list:
                yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, FUNCTIONS) and _is_public(item.name):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and target.id.isupper() and _is_public(target.id):
                    yield target.id, target


def _docstring_starts(tree: ast.Module) -> set:
    """``(line, col)`` of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTIONS)) and ast.get_docstring(node):
            doc = node.body[0].value
            starts.add((doc.lineno, doc.col_offset))
    return starts


def _references(source: str, tree: ast.Module):
    """Every NAME token and string identifier that is not a definition's own name."""
    own = {(n.lineno, n.col_offset) for _, n in _definitions(tree) if isinstance(n, ast.Name)}
    docstrings = _docstring_starts(tree)
    exports = set()
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            exports.update(range(node.lineno, node.end_lineno + 1))
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class") and tok.start not in own:
            yield tok.string
        elif (
            tok.type in STRING_TOKENS
            and tok.start[0] not in exports
            and tok.start not in docstrings
        ):
            yield from IDENT.findall(tok.string)
        previous = tok.string


def unreferenced(root: Path) -> list:
    """Qualnames defined under ``root/src/repro`` that no non-test source uses."""
    defined, used = set(), set()
    for top in ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source)
            if top == "src/repro":
                defined.update(qualname for qualname, _ in _definitions(tree))
            used.update(_references(source, tree))
    return sorted(q for q in defined if q.rsplit(".", 1)[-1] not in used)


def test_every_public_name_has_a_non_test_caller():
    unused = sorted(set(unreferenced(REPO)) - set(ALLOWED))
    assert not unused, f"public names only tests reach (delete them or use them): {unused}"


def test_every_allowed_name_still_needs_its_entry():
    stale = sorted(set(ALLOWED) - set(unreferenced(REPO)))
    assert not stale, f"allow-list entries that now have a caller: {stale}"


def test_guard_flags_a_test_only_name_and_counts_bench_strings(tmp_path):
    files = {
        "src/repro/mod.py": (
            "__all__ = ['planted', 'in_bench', 'in_example']\n"
            "def planted():\n    pass\n"
            "def _documented():\n    '''Calls planted().'''\n"
            "def in_bench():\n    pass\n"
            "def in_example():\n    pass\n"
        ),
        "tests/test_mod.py": "from repro.mod import planted\nplanted()\n",
        "bench/tests/test_bench.py": "from repro.mod import planted\nplanted()\n",
        "bench/layers.py": "TARGETS = [('mod.in_bench', 'mod.self_s', None)]\n",
        "examples/demo.py": "from repro.mod import in_example\nin_example()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    (tmp_path / "benchmarks").mkdir()
    assert unreferenced(tmp_path) == ["planted"]
