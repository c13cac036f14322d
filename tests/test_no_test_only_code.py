"""No public top-level name in ``src/repro`` exists only for the tests.

A public function or class that no module, example or benchmark uses
is an option or a path that tests and docs keep covering while no
workload runs it.  This test walks the program's source with ``ast``
and fails when such a name appears that ``ALLOWED`` does not list.

A name counts as used when it is referenced (a name, an attribute or an
import) anywhere in ``src/repro``, ``examples`` or ``perfbench`` outside
its own definition.  ``__init__.py`` files and ``__all__`` lists are
skipped: a re-export is not a use.  Tests never count.

``ALLOWED`` maps each kept name to what justifies it: the DESIGN.md or
EXPERIMENTS.md row whose test exercises it, the program output a test
checks with it, or the ROADMAP item that schedules its deletion.  An
entry whose name is used again, or gone, fails the test too, so the
list never outlives its reason.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

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
    # Scheduled for deletion, each with the tests that check only it.
    "wearout_regimes": "ROADMAP item 9",
    "large_job_failure_rate": "ROADMAP item 9",
    "collective_bus_factor": "ROADMAP item 9",
    "LogNormalSpec": "ROADMAP item 9",
    "ZipfSizeSpec": "ROADMAP item 9",
    "fit_exponential_mttf": "ROADMAP item 9",
    "gamma_fit": "ROADMAP item 9",
    "ecdf_at": "ROADMAP item 9",
    "weighted_fractions": "ROADMAP item 9",
    "histogram_by_bucket": "ROADMAP item 9",
    "kaplan_meier": "ROADMAP item 9",
    "exponential_survival": "ROADMAP item 9",
    "bootstrap_ci": "ROADMAP item 9",
    "format_duration": "ROADMAP item 9",
}

#: Directories whose code counts as a program use.
PROGRAM_DIRS = ("src", "examples", "perfbench")

Definition = Tuple[str, Path, ast.AST]


def _modules(root: Path, sub: str) -> Iterator[Path]:
    for path in sorted((root / sub).rglob("*.py")):
        if path.name != "__init__.py":
            yield path


def _parse(path: Path) -> ast.Module:
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


def unused_public_names(root: Path) -> List[str]:
    """Public top-level names no program code references, sorted."""
    definitions = public_definitions(root)
    wanted = {name for name, _path, _node in definitions}
    used_from: Dict[str, List[Tuple[int, ...]]] = {}
    for sub in PROGRAM_DIRS:
        for path in _modules(root, sub):
            for name, enclosing in _references(_parse(path)):
                if name in wanted:
                    used_from.setdefault(name, []).append(enclosing)
    unused = set()
    for name, _path, node in definitions:
        own = id(node)
        if not any(own not in enclosing for enclosing in used_from.get(name, [])):
            unused.add(name)
    return sorted(unused)


def test_every_test_only_public_name_is_allowed():
    unused = set(unused_public_names(ROOT))
    unexpected = sorted(unused - set(ALLOWED))
    assert not unexpected, (
        f"{len(unexpected)} public names in src/repro are used only by "
        f"tests: {unexpected}. Delete them with the tests that check only "
        "them, or add each to ALLOWED with the row or test that pins it."
    )


def test_every_allowed_name_is_still_test_only():
    unused = set(unused_public_names(ROOT))
    defined = {name for name, _path, _node in public_definitions(ROOT)}
    gone = sorted(set(ALLOWED) - defined)
    used = sorted(set(ALLOWED) & defined - unused)
    assert not gone, f"ALLOWED names that no longer exist: {gone}"
    assert not used, f"ALLOWED names the program now uses: {used}"
