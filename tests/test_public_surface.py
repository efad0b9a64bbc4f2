"""Every public name has a non-test caller; every settable value has a setter.

**Names.**  A public name is a module-level function, class or UPPER_CASE
constant, or a public method or property of a public class.  It must be referenced outside
its own definition by a non-test file under ``src/repro``, ``bench/``,
``benchmarks/`` or ``examples/``.  A reference is a NAME token or an
identifier inside a string literal: ``bench/layers.py`` names the callables
it wraps by dotted string.  The strings of an
``__all__`` list export a name, and a docstring describes one; neither
uses it.  Dunders, ``ecall_*`` and
``visit_*`` methods (reached by dispatch on the name) and decorated
module-level definitions (the ``@register`` lint rules) are exempt.

**Settable values.**  A settable value is a defaulted parameter of a
public function, of a public method or of the ``__init__`` of a public
class under ``src/repro``, or a defaulted field of a public
``@dataclass(frozen=True)``.  Some call site under ``src/repro``,
``bench/`` or ``benchmarks/`` must set it; otherwise it is an option no
run chooses, and belongs in the code as the constant it is.  A test
does not count as a setter: a test that needs another value patches the
module constant.  The callee is matched by its simple name (``f(...)``,
``x.f(...)``, ``partial(f, ...)``; ``super().__init__`` reaches the
enclosing class's bases, ``cls(...)`` the enclosing class), and a call
sets a value by keyword, by position, through ``dataclasses.replace(x,
name=...)``, or through ``**m`` where ``m`` is a ``dict(...)``/``{...}``
literal bound in the same function or module.  Any other ``*``/``**``
sets everything (conservative).  ``f(x=x)`` that forwards the enclosing
definition's own defaulted ``x`` sets ``f``'s ``x`` only if that ``x``
is set, resolved to a fixpoint.  ``ecall_*``/``visit_*`` methods and
dunders other than ``__init__`` are exempt, as are the calibration
vocabularies in :data:`VOCABULARIES`, whose fields are fitted constants,
and the entries of :data:`ALLOWED`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROOTS = ("src/repro", "bench", "benchmarks", "examples")
SETTER_ROOTS = ("src/repro", "bench", "benchmarks")
STRING_TOKENS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
IDENT = re.compile(r"[A-Za-z_]\w*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: qualname -> one-line reason it stays without a non-test caller (a
#: public name) or a non-test setter (a settable value).
ALLOWED = {
    "cli.main.argv": "the program's input: the console script passes none and argparse reads sys.argv",
    "faults.runner.run_chaos.obs": "an output sink, not a behaviour: the caller's registry receives the run's metrics",
}

#: Frozen dataclass -> why its unset fields stay fields: each is a
#: calibration vocabulary whose values a fit or a grid will set.
VOCABULARIES = {
    "sim.time_model.TimeModel": "ROADMAP item 3 fits the simulated-time constants",
    "tee.cost_model.SgxCostModel": "ROADMAP item 3 fits the SGX cost constants",
    "serve.costing.ServeCostModel": "the serve tier's member of the same cost-model family",
    "ml.mf.MfHyperParams": "the ROADMAP item 5 step 1 hyper-parameter grid",
    "ml.hyper.DnnHyperParams": "ROADMAP item 6 tunes or removes the DNN",
}


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
    _, unset = settable_values(REPO)
    stale = sorted(set(ALLOWED) - set(unreferenced(REPO)) - set(unset))
    assert not stale, f"allow-list entries that now have a caller or setter: {stale}"


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


# --------------------------------------------------------------------- #
# Settable values
# --------------------------------------------------------------------- #
def _callee(func: ast.expr):
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Call)
        and _callee(dec.func) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in dec.keywords)
        for dec in node.decorator_list
    )


def _params(func, method: bool):
    """``(positional names, defaulted names)``; a method drops ``self``/``cls``."""
    args = func.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    if method and not any(_callee(d) == "staticmethod" for d in func.decorator_list):
        positional = positional[1:]
    defaulted = set(positional[len(positional) - len(args.defaults):]) if args.defaults else set()
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    return positional, defaulted


def _fields(cls: ast.ClassDef):
    """``(init field names in order, defaulted ones)`` of a dataclass body."""
    names, defaulted = [], set()
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if "ClassVar" in ast.unparse(item.annotation) or (
            isinstance(value, ast.Call)
            and _callee(value.func) == "field"
            and any(k.arg == "init" for k in value.keywords)
        ):
            continue
        names.append(item.target.id)
        if value is not None:
            defaulted.add(item.target.id)
    return names, defaulted


def _signatures(tree: ast.Module, module: str):
    """``(callee name, qualname, positional, defaulted, public, def node)``
    for every callable a module defines (``None`` node: dataclass fields)."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            positional, defaulted = _params(node, method=False)
            qualname = f"{module}.{node.name}"
            yield node.name, qualname, positional, defaulted, _is_public(node.name), node
        elif isinstance(node, ast.ClassDef):
            public = _is_public(node.name)
            if _is_frozen_dataclass(node):
                names, defaulted = _fields(node)
                yield node.name, f"{module}.{node.name}", names, defaulted, public, None
            for item in node.body:
                if not isinstance(item, FUNCTIONS):
                    continue
                positional, defaulted = _params(item, method=True)
                qualname = f"{module}.{node.name}.{item.name}"
                if item.name == "__init__":
                    yield node.name, qualname, positional, defaulted, public, item
                elif not item.name.startswith("__"):
                    method_public = public and _is_public(item.name)
                    yield item.name, qualname, positional, defaulted, method_public, item


def _bindings(scope) -> dict:
    """Name -> every value bound to it in ``scope`` itself (``None``: not a
    plain assignment), nested definitions excluded."""
    out: dict = {}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    out.setdefault(target.id, []).append(node.value)
        elif isinstance(node, (ast.AugAssign, ast.NamedExpr)) and isinstance(node.target, ast.Name):
            out.setdefault(node.target.id, []).append(None)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _dict_keys(node, bindings: dict, seen: tuple = ()):
    """The keys a ``dict(...)``/``{...}`` literal, or a name bound only to
    such literals, can hold; ``None`` when the source does not say."""
    if isinstance(node, ast.Name):
        values = bindings.get(node.id)
        if not values or node.id in seen:
            return None
        parts = [_dict_keys(value, bindings, (*seen, node.id)) for value in values]
    elif isinstance(node, ast.Dict):
        parts = []
        for key, value in zip(node.keys, node.values):
            if key is None:  # a ``**value`` entry
                parts.append(_dict_keys(value, bindings, seen))
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                parts.append({key.value})
            else:
                return None
    elif isinstance(node, ast.Call) and _callee(node.func) == "dict":
        parts = [_dict_keys(arg, bindings, seen) for arg in node.args]
        parts += [
            {kw.arg} if kw.arg is not None else _dict_keys(kw.value, bindings, seen)
            for kw in node.keywords
        ]
    else:
        return None
    return None if any(part is None for part in parts) else set().union(*parts)


class _Calls(ast.NodeVisitor):
    """Every call of one module as ``(callee, [(slot, source), ...])``.

    ``slot`` is a positional index, a keyword, or ``...`` (everything);
    ``source`` is ``None`` for a value set outright, or ``(qualname,
    name)`` when the value is the enclosing definition's own defaulted
    parameter, forwarded.  ``replaced`` holds the same pairs for the
    keywords of ``replace(x, ...)``.
    """

    def __init__(self, tree: ast.Module, owners: dict):
        self.owners = owners  # def node -> (qualname, defaulted names)
        self.module = _bindings(tree)
        self.scopes: list = []  # (def node, params, bindings), innermost last
        self.classes: list = []  # (name, base names), innermost last
        self.calls: list = []
        self.replaced: list = []

    def _scoped(self, node, params: set) -> None:
        self.scopes.append((node, params, _bindings(node)))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node) -> None:
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        self._scoped(node, {a.arg for a in params if a is not None})

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:
        self.classes.append((node.name, [_callee(base) for base in node.bases]))
        self.generic_visit(node)
        self.classes.pop()

    def _source(self, value):
        if isinstance(value, ast.Name):
            for node, params, _ in reversed(self.scopes):
                if value.id in params:
                    owner = self.owners.get(node)
                    if owner is not None and value.id in owner[1]:
                        return owner[0], value.id
                    return None
        return None

    def _keys(self, node):
        bindings = self.module
        if isinstance(node, ast.Name):
            for _, params, scope in reversed(self.scopes):
                if node.id in scope or node.id in params:
                    bindings = scope
                    break
        return _dict_keys(node, bindings)

    def _record(self, callee, args, keywords) -> None:
        passed = []
        for index, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                passed.append((..., None))
                break
            passed.append((index, self._source(arg)))
        for kw in keywords:
            if kw.arg is not None:
                passed.append((kw.arg, self._source(kw.value)))
                continue
            keys = self._keys(kw.value)
            passed.extend([(..., None)] if keys is None else [(key, None) for key in keys])
        self.calls.append((callee, passed))

    def visit_Call(self, node) -> None:
        self.generic_visit(node)
        callee, args = _callee(node.func), list(node.args)
        if callee == "partial" and args:
            callee, args = _callee(args[0]), args[1:]
        if callee == "replace" and args:
            self.replaced.extend(
                (kw.arg, self._source(kw.value)) for kw in node.keywords if kw.arg is not None
            )
        elif callee == "__init__" and self.classes:
            for base in self.classes[-1][1]:
                self._record(base, args, node.keywords)
        elif callee == "cls" and self.classes:
            self._record(self.classes[-1][0], args, node.keywords)
        elif callee is not None:
            self._record(callee, args, node.keywords)


def settable_values(root: Path):
    """``(every settable value, the unset ones)`` as sorted ``qualname.name``."""
    trees = {}
    for top in SETTER_ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            trees[path] = (top, ast.parse(path.read_text(encoding="utf-8")))
    by_callee: dict = {}  # simple name -> [(qualname, positional)]
    defaulted: dict = {}  # qualname -> defaulted names
    frozen: dict = {}  # qualname -> defaulted fields
    owners: dict = {}  # def node -> (qualname, defaulted names)
    settable = set()
    for path, (top, tree) in trees.items():
        if top != "src/repro":
            continue
        module = ".".join(path.relative_to(root / top).with_suffix("").parts)
        for callee, qualname, positional, names, public, node in _signatures(tree, module):
            by_callee.setdefault(callee, []).append((qualname, positional))
            defaulted[qualname] = names
            if node is None:
                frozen[qualname] = names
            else:
                owners[node] = (qualname, names)
            if public:
                settable.update((qualname, name) for name in names)

    sources: dict = {}  # (qualname, name) -> {None: set outright, or a forwarder}

    def mark(qualname: str, name: str, source) -> None:
        if name in defaulted[qualname]:
            sources.setdefault((qualname, name), set()).add(source)

    for _top, tree in trees.values():
        calls = _Calls(tree, owners)
        calls.visit(tree)
        for callee, passed in calls.calls:
            for qualname, positional in by_callee.get(callee, ()):
                for slot, source in passed:
                    if slot is ...:
                        for name in defaulted[qualname]:
                            mark(qualname, name, None)
                    elif isinstance(slot, str):
                        mark(qualname, slot, source)
                    elif slot < len(positional):
                        mark(qualname, positional[slot], source)
        for name, source in calls.replaced:
            for qualname in frozen:
                mark(qualname, name, source)

    is_set = {value for value, found in sources.items() if None in found}
    grew = True
    while grew:
        grew = False
        for value, found in sources.items():
            if value not in is_set and found & is_set:
                is_set.add(value)
                grew = True
    return _dotted(settable), _dotted(settable - is_set)


def _dotted(values) -> list:
    return sorted(f"{qualname}.{name}" for qualname, name in values)


def test_every_settable_value_has_a_setter():
    settable, unset = settable_values(REPO)
    dead = [v for v in unset if v.rsplit(".", 1)[0] not in VOCABULARIES and v not in ALLOWED]
    assert not dead, f"values no call site sets (make each the constant it is): {dead}"
    classes = {v.rsplit(".", 1)[0] for v in settable}
    assert set(VOCABULARIES) <= classes, "a vocabulary entry names no frozen dataclass"


def test_guard_flags_dead_and_forwarded_only_values(tmp_path):
    files = {
        "src/repro/mod.py": (
            "from dataclasses import dataclass\n"
            "def dead(x, *, knob=1):\n    return x\n"
            "def outer(*, level=0):\n    return inner(level=level)\n"
            "def inner(*, level=0):\n    return level\n"
            "def _private(flag=False):\n    return flag\n"
            "@dataclass(frozen=True)\n"
            "class Shape:\n"
            "    size: int = 1\n"
            "    width: int = 2\n"
            "    depth: int = 3\n"
        ),
        "benchmarks/test_mod.py": (
            "from dataclasses import replace\n"
            "from repro.mod import Shape, dead, outer\n"
            "dead(1)\nouter()\n"
            "replace(Shape(), width=5)\n"
            "OPTIONS = dict(depth=4)\n"
            "def test_shape():\n    Shape(**OPTIONS)\n"
        ),
        # A test is not a setter: these leave ``knob`` and ``size`` unset.
        "tests/test_mod.py": (
            "from repro.mod import Shape, dead\n"
            "dead(1, knob=2)\nShape(size=3)\n"
        ),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    (tmp_path / "bench").mkdir()
    settable, unset = settable_values(tmp_path)
    assert "mod._private.flag" not in settable
    assert unset == ["mod.Shape.size", "mod.dead.knob", "mod.inner.level", "mod.outer.level"]
