"""No public name, method or option in ``src/repro`` exists only for the
tests.

A public function, class or method that no module, example or benchmark
uses, or a defaulted parameter that none of them sets, is an option or a
path that tests and docs keep covering while no workload runs it.  This
test walks the program's source with ``ast`` and fails when such a name
or parameter appears that its allowlist does not list.

A name counts as used when it is referenced (a name, an attribute or an
import) anywhere in ``src/repro``, ``examples`` or ``perfbench`` outside
its own definition.  ``__init__.py`` files and ``__all__`` lists are
skipped: a re-export is not a use.  Tests never count.  Methods follow
the same rules, matched by name: ``Class.method`` is used when any
program code outside the method's own body references an attribute or
name ``method``.

A defaulted parameter of a public function, a public method or an
``__init__`` counts as set when a call outside the definition's own body
passes it by keyword or by position, or passes ``*args``/``**kw``.
Calls are matched by name like references: ``f(...)`` for ``f``,
``.m(...)`` for ``Class.m``, ``Class(...)`` (or ``cls(...)`` inside one
of the class's classmethods) for ``Class.__init__``.  Parameters of
``ALLOWED`` names and ``ALLOWED_METHODS`` entries are not scanned: the
test that keeps the name is their caller.  Dataclass fields are not
parameters here.

``ALLOWED`` (top-level names) and ``ALLOWED_METHODS`` (``"Class.method"``)
map each kept name to what justifies it: the DESIGN.md or EXPERIMENTS.md
row whose test exercises it, the program output or the program path a
test checks with it, or the ROADMAP item that needs it.
``ALLOWED_PARAMS`` (``"f(p)"``, ``"Class.method(p)"``, ``"Class(p)"`` for
``__init__``) keeps two kinds only: deployment settings, and seams
through which a test substitutes a fake.  An entry whose name is used or
set again, or gone, fails the test too, so no list outlives its reason.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: name -> why a test-only public name stays.
ALLOWED: Dict[str, str] = {
    # Rows whose tests exercise the name.
    "check_introduction_effect": "EXPERIMENTS row O6 (tests/analysis/test_check_introduction.py)",
    "rack_scale_mttf_hours": "EXPERIMENTS row X2 (tests/core/test_rackscale.py)",
    "ettr_with_spares": "EXPERIMENTS row X2 (tests/core/test_rackscale.py)",
    "capacity_in_repair_fraction": "EXPERIMENTS row X2 (tests/core/test_rackscale.py)",
    "random_scenario": "EXPERIMENTS row X1 (tests/diagnostics/test_diagnosis.py)",
    "optimal_blocking_interval": "EXPERIMENTS row A3 (tests/storage/test_checkpointing.py)",
    "checkpoint_write_time": "EXPERIMENTS row A3 (tests/storage/test_checkpointing.py)",
    "model_checkpoint_gb": "EXPERIMENTS row A3 (tests/storage/test_checkpointing.py)",
    "flap_links": "EXPERIMENTS row 'SHIELD vs adaptive routing' (tests/network/test_shield.py)",
    "apply_shield_link_faulting": "EXPERIMENTS row 'SHIELD vs adaptive routing' (tests/network/test_shield.py)",
    "ShieldRouting": "EXPERIMENTS row 'SHIELD vs adaptive routing' (tests/network/test_shield.py)",
    # Checks of program output.
    "check_stream_well_formed": (
        "the telemetry stream contract (docs/OBSERVABILITY.md); "
        "tests/obs/test_summary.py and test_spans.py check written streams with it"
    ),
}

#: "Class.method" -> why a test-only public method stays.
ALLOWED_METHODS: Dict[str, str] = {
    "PriorityPolicy.sort_pending": (
        "the oracle of the pending queue's order "
        "(tests/property/test_pending_properties.py)"
    ),
    "ChaosPolicy.mangle_stream": (
        "ROADMAP item 2: the junk-item corpus of the live-ingest fuzz test "
        "(tests/live/test_malformed_stream.py)"
    ),
}

#: "Class(param)" / "Class.method(param)" / "function(param)" -> why a
#: defaulted parameter no program sets stays.
ALLOWED_PARAMS: Dict[str, str] = {
    # Deployment settings of a served session (``repro serve`` sets the
    # same ones on ``serve_until_shutdown``).
    "BackgroundServer(host)": "deployment setting: the interface to bind",
    "BackgroundServer(port)": (
        "deployment setting: the port; 0 binds an ephemeral one"
    ),
    "BackgroundServer(grace_s)": (
        "deployment setting: the shutdown grace (repro serve --grace)"
    ),
    "BackgroundServer(snapshot_out)": (
        "deployment setting: the final snapshot path "
        "(tests/serve/test_server.py::test_final_snapshot_written_on_stop)"
    ),
    # Seams through which a test substitutes a fake.
    "ReliabilityService(whatif_runner)": (
        "seam: failing, flaky, slow and counting what-if runners "
        "(tests/serve/test_service.py, tests/serve/test_server.py)"
    ),
    "ReliabilityService(retry)": (
        "seam: a zero-backoff retry policy, where the default one sleeps "
        "50-500 ms between attempts (tests/serve/test_service.py, "
        "tests/serve/test_server.py)"
    ),
}

#: Directories whose code counts as a program use.
PROGRAM_DIRS = ("src", "examples", "perfbench")

Definition = Tuple[str, Path, ast.AST]
#: (key, callee, position, definition node) of a defaulted parameter.
Parameter = Tuple[str, str, Optional[int], ast.AST]


def _modules(root: Path, sub: str) -> Iterator[Path]:
    for path in sorted((root / sub).rglob("*.py")):
        if path.name != "__init__.py":
            yield path


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    # One tree per file, so a definition's node is the one its own
    # references sit under.
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions(root: Path) -> List[Definition]:
    """Every public top-level function and class in ``src/repro``."""
    out = []
    for path in _modules(root, "src/repro"):
        for node in _parse(path).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                out.append((node.name, path, node))
    return out


def _references(tree: ast.Module) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """(name, ids of enclosing definitions) for each reference in ``tree``."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(n) for n in ast.walk(node))

    def visit(node: ast.AST, enclosing: Tuple[int, ...]):
        if id(node) in skipped:
            return
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + (id(node),)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing)

    yield from visit(tree, ())


def public_methods(root: Path) -> List[Definition]:
    """Every public method of a top-level class in ``src/repro``, keyed
    ``"Class.method"``."""
    out = []
    for name, path, node in public_definitions(root):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not item.name.startswith("_"):
                    out.append((f"{name}.{item.name}", path, item))
    return out


def _unused(root: Path, definitions: List[Definition]) -> List[str]:
    """Keys of ``definitions`` no program code references, sorted.

    A definition is referenced by the last part of its key: ``f`` for a
    function ``f``, ``m`` for a method ``Class.m``.
    """

    def ref_name(key: str) -> str:
        return key.rsplit(".", 1)[-1]

    wanted = {ref_name(key) for key, _path, _node in definitions}
    used_from: Dict[str, List[Tuple[int, ...]]] = {}
    for sub in PROGRAM_DIRS:
        for path in _modules(root, sub):
            for name, enclosing in _references(_parse(path)):
                if name in wanted:
                    used_from.setdefault(name, []).append(enclosing)
    unused = set()
    for key, _path, node in definitions:
        own = id(node)
        if not any(own not in enc for enc in used_from.get(ref_name(key), [])):
            unused.add(key)
    return sorted(unused)


def unused_public_names(root: Path) -> List[str]:
    """Public top-level names no program code references, sorted."""
    return _unused(root, public_definitions(root))


def unused_public_methods(root: Path) -> List[str]:
    """``"Class.method"`` of public methods no program code references."""
    return _unused(root, public_methods(root))


def _is_static(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list
    )


def defaulted_parameters(root: Path) -> List[Parameter]:
    """Every defaulted parameter of a public function, a public method or
    an ``__init__`` in ``src/repro``, keyed ``"f(p)"``, ``"Class.m(p)"``
    or ``"Class(p)"`` (for ``__init__``).

    Each entry also names what a call spells the callee (``f``, ``m`` or
    ``Class``), the parameter's position among the arguments a call
    passes (``None`` for keyword-only) and the definition's node.
    """
    out: List[Parameter] = []

    def add(key: str, callee: str, node: ast.AST, bound: bool) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if bound else 0  # self or cls, which a call never passes
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            out.append((f"{key}({arg.arg})", callee, i - skip, node))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((f"{key}({arg.arg})", callee, None, node))

    for name, _path, node in public_definitions(root):
        if not isinstance(node, ast.ClassDef):
            add(name, name, node, bound=False)
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                add(name, name, item, bound=True)
            elif not item.name.startswith("_"):
                bound = not _is_static(item)
                add(f"{name}.{item.name}", item.name, item, bound)
    return out


def _calls(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.Call, Tuple[int, ...]]]:
    """(callee, call, ids of enclosing definitions) for each call in ``tree``.

    The callee is the called name or attribute; ``cls(...)`` inside a
    classmethod calls the enclosing class.
    """

    def visit(node: ast.AST, enclosing: Tuple[int, ...], cls: str):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                callee = cls if func.id == "cls" and cls else func.id
                yield callee, node, enclosing
            elif isinstance(func, ast.Attribute):
                yield func.attr, node, enclosing
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + (id(node),)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing, cls)

    yield from visit(tree, (), "")


def _sets(call: ast.Call, name: str, position: Optional[int]) -> bool:
    """Whether ``call`` sets parameter ``name`` at ``position``."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args
    )


def unset_parameters(root: Path) -> List[str]:
    """Keys of defaulted parameters that no program call sets, sorted.

    A call outside the definition's own body sets a parameter when it
    passes it by keyword or by position, or passes ``*args``/``**kw``.
    Parameters of ``ALLOWED`` names and ``ALLOWED_METHODS`` entries are
    skipped: the row or check that keeps the name is their caller.
    """

    def kept(key: str) -> bool:
        owner = key[: key.index("(")]  # "f", "Class" or "Class.method"
        return owner.split(".")[0] in ALLOWED or owner in ALLOWED_METHODS

    params = [p for p in defaulted_parameters(root) if not kept(p[0])]
    wanted = {callee for _key, callee, _pos, _node in params}
    calls: Dict[str, List[Tuple[ast.Call, Tuple[int, ...]]]] = {}
    for sub in PROGRAM_DIRS:
        for path in _modules(root, sub):
            for callee, call, enclosing in _calls(_parse(path)):
                if callee in wanted:
                    calls.setdefault(callee, []).append((call, enclosing))
    unset = set()
    for key, callee, position, node in params:
        name = key[key.index("(") + 1 : -1]
        if not any(
            id(node) not in enclosing and _sets(call, name, position)
            for call, enclosing in calls.get(callee, [])
        ):
            unset.add(key)
    return sorted(unset)


def keys(entries) -> List[str]:
    """The keys of scanned definitions or parameters."""
    return [entry[0] for entry in entries]


def unexpected(unused: List[str], allowed: Dict[str, str]) -> List[str]:
    """Test-only names that ``allowed`` does not list, sorted."""
    return sorted(set(unused) - set(allowed))


def stale(
    unused: List[str], defined: Iterable[str], allowed: Dict[str, str]
) -> Tuple[List[str], List[str]]:
    """``(gone, used)``: entries of ``allowed`` that are not among the
    ``defined`` keys any more, and entries the program uses or sets
    again."""
    defined = set(defined)
    return (
        sorted(set(allowed) - defined),
        sorted(set(allowed) & defined - set(unused)),
    )


def test_every_test_only_public_name_is_allowed():
    names = unexpected(unused_public_names(ROOT), ALLOWED)
    assert not names, (
        f"{len(names)} public names in src/repro are used only by tests: "
        f"{names}. Delete them with the tests that check only them, or "
        "add each to ALLOWED with the row or test that pins it."
    )


def test_every_allowed_name_is_still_test_only():
    gone, used = stale(
        unused_public_names(ROOT), keys(public_definitions(ROOT)), ALLOWED
    )
    assert not gone, f"ALLOWED names that no longer exist: {gone}"
    assert not used, f"ALLOWED names the program now uses: {used}"


def test_every_test_only_public_method_is_allowed():
    methods = unexpected(unused_public_methods(ROOT), ALLOWED_METHODS)
    assert not methods, (
        f"{len(methods)} public methods in src/repro are used only by tests: "
        f"{methods}. Delete them with the tests that check only them, or "
        "add each to ALLOWED_METHODS with the row or test that pins it."
    )


def test_every_unset_parameter_is_allowed():
    params = unexpected(unset_parameters(ROOT), ALLOWED_PARAMS)
    assert not params, (
        f"{len(params)} defaulted parameters in src/repro are set by no "
        f"program call: {params}. Delete each (its default becomes the "
        "value the code uses) with the tests that check only it, or add it "
        "to ALLOWED_PARAMS if it is a deployment setting or a test seam."
    )


def test_every_allowed_parameter_is_still_unset():
    gone, used = stale(
        unset_parameters(ROOT), keys(defaulted_parameters(ROOT)), ALLOWED_PARAMS
    )
    assert not gone, f"ALLOWED_PARAMS entries that no longer exist: {gone}"
    assert not used, f"ALLOWED_PARAMS entries the program now sets: {used}"


def test_every_allowed_method_is_still_test_only():
    gone, used = stale(
        unused_public_methods(ROOT), keys(public_methods(ROOT)), ALLOWED_METHODS
    )
    assert not gone, f"ALLOWED_METHODS entries that no longer exist: {gone}"
    assert not used, f"ALLOWED_METHODS entries the program now uses: {used}"


# ----------------------------------------------------------------------
# the scans themselves, on a synthetic tree
# ----------------------------------------------------------------------
def _tree(root: Path, files: Dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    for sub in PROGRAM_DIRS[1:]:
        (root / sub).mkdir(exist_ok=True)
    return root


SYNTHETIC = {
    "src/repro/__init__.py": "from repro.lib import Store, only_self\n"
    "__all__ = ['Store', 'only_self', 'exported_only']\n",
    "src/repro/lib.py": (
        "class Store:\n"
        "    def called(self):\n"
        "        return 1\n"
        "\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n"
        "\n"
        "    def tested(self):\n"
        "        return 2\n"
        "\n"
        "    def from_example(self):\n"
        "        return 3\n"
        "\n"
        "    def _private(self):\n"
        "        return 4\n"
        "\n"
        "\n"
        "def only_self(n):\n"
        "    return only_self(n - 1) if n else 0\n"
        "\n"
        "\n"
        "def exported_only():\n"
        "    return 5\n"
    ),
    "src/repro/app.py": "from repro.lib import Store\nVALUE = Store().called()\n",
    "examples/demo.py": "from repro.lib import Store\nStore().from_example()\n",
    "tests/test_lib.py": (
        "from repro.lib import Store, exported_only\n"
        "\n"
        "\n"
        "def test_tested():\n"
        "    assert Store().tested() == 2 and exported_only() == 5\n"
    ),
}


def test_method_scan_on_a_synthetic_tree(tmp_path):
    root = _tree(tmp_path, SYNTHETIC)
    # ``called`` (from src) and ``from_example`` are used; ``recursive``
    # is referenced only inside its own body, ``tested`` only by a test.
    unused = unused_public_methods(root)
    assert unused == ["Store.recursive", "Store.tested"]
    assert unexpected(unused, {"Store.tested": "a reason"}) == ["Store.recursive"]
    allowed = {"Store.recursive": "a reason", "Store.tested": "a reason"}
    assert unexpected(unused, allowed) == []
    assert stale(unused, keys(public_methods(root)), allowed) == ([], [])


def test_stale_method_entries_fail_on_a_synthetic_tree(tmp_path):
    root = _tree(tmp_path, SYNTHETIC)
    allowed = {
        "Store.tested": "a reason",
        "Store.called": "used by src/repro/app.py",
        "Store.removed": "no longer defined",
    }
    gone, used = stale(
        unused_public_methods(root), keys(public_methods(root)), allowed
    )
    assert gone == ["Store.removed"]
    assert used == ["Store.called"]


def test_name_scan_on_a_synthetic_tree(tmp_path):
    root = _tree(tmp_path, SYNTHETIC)
    # ``Store`` is used from src; ``only_self`` calls only itself, and
    # ``exported_only`` is named only by ``__init__.py``/``__all__``.
    assert unused_public_names(root) == ["exported_only", "only_self"]
    gone, used = stale(
        unused_public_names(root),
        keys(public_definitions(root)),
        {"Store": "used", "only_self": "a reason", "gone_fn": "deleted"},
    )
    assert gone == ["gone_fn"] and used == ["Store"]


PARAMETERS = {
    "src/repro/__init__.py": "",
    "src/repro/knobs.py": (
        "class Knob:\n"
        "    def __init__(self, by_pos=1, by_kw=2, by_cls=3, unset=4, tested=5):\n"
        "        self.values = (by_pos, by_kw, by_cls, unset, tested)\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(by_cls=0)\n"
        "\n"
        "    def run(self, a, by_splat=1, *, kw_only=2):\n"
        "        return self.run(a, kw_only=kw_only) if a else by_splat\n"
        "\n"
        "\n"
        "def tool(x, by_dstar=1):\n"
        "    return x + by_dstar\n"
        "\n"
        "\n"
        "def own(n, depth=0):\n"
        "    return own(n - 1, depth=depth + 1) if n else depth\n"
    ),
    "src/repro/app.py": (
        "from repro.knobs import Knob, own, tool\n"
        "knob = Knob(0, by_kw=0)\n"
        "rest = (1,)\n"
        "VALUES = (knob.run(*rest), tool(1, **{}), Knob.make(), own(3))\n"
    ),
    "tests/test_knobs.py": (
        "from repro.knobs import Knob, own\n"
        "\n"
        "\n"
        "def test_knob():\n"
        "    assert Knob(tested=0).values[-1] == 0 and own(2, depth=1) == 3\n"
    ),
}


def test_parameter_scan_on_a_synthetic_tree(tmp_path):
    root = _tree(tmp_path, PARAMETERS)
    # Set by position, keyword, ``cls(...)``, ``*rest`` and ``**{}``; not
    # by a call inside the function's own body, nor by a test.
    unset = unset_parameters(root)
    assert unset == [
        "Knob(tested)",
        "Knob(unset)",
        "Knob.run(kw_only)",
        "own(depth)",
    ]
    allowed = {key: "a reason" for key in unset}
    assert unexpected(unset, {"Knob(unset)": "a reason"}) == [
        "Knob(tested)",
        "Knob.run(kw_only)",
        "own(depth)",
    ]
    assert stale(unset, keys(defaulted_parameters(root)), allowed) == ([], [])


def test_stale_parameter_entries_fail_on_a_synthetic_tree(tmp_path):
    root = _tree(tmp_path, PARAMETERS)
    allowed = {
        "Knob(unset)": "a reason",
        "Knob(by_cls)": "set by Knob.make",
        "tool(by_dstar)": "set by **{} in src/repro/app.py",
        "Knob(removed)": "no longer defined",
        "gone(p)": "function deleted",
    }
    gone, used = stale(
        unset_parameters(root), keys(defaulted_parameters(root)), allowed
    )
    assert gone == ["Knob(removed)", "gone(p)"]
    assert used == ["Knob(by_cls)", "tool(by_dstar)"]
