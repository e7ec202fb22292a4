"""The package's module layout: one import order, and one owner per decision."""
import ast
import re
from pathlib import Path

import gencov

SRC = Path(gencov.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def _relative_imports(node):
    """(importing node, imported module) for every package-relative import
    under node; `from . import a, b` names modules a and b."""
    for imp in ast.walk(node):
        if isinstance(imp, ast.ImportFrom) and imp.level:
            if imp.module:
                yield imp, imp.module.split(".")[0]
            else:
                yield from ((imp, alias.name) for alias in imp.names)


def _graph():
    return {name: {target for _, target in _relative_imports(tree)}
            for name, tree in MODULES.items()}


def test_internal_imports_form_no_cycle():
    graph = _graph()
    done, on_path = set(), []

    def walk(name):
        assert name not in on_path, f"import cycle: {' -> '.join(on_path + [name])}"
        if name in done:
            return
        on_path.append(name)
        for target in sorted(graph.get(name, ())):
            walk(target)
        on_path.pop()
        done.add(name)

    for name in sorted(graph):
        walk(name)
    assert "bounds" not in graph["search"]
    assert graph["core"] <= {"errors"}


def test_no_internal_import_inside_a_function():
    inside = [f"{name}.{fn.name}: from .{target}"
              for name, tree in MODULES.items()
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for _, target in _relative_imports(fn)]
    assert inside == []


def test_only_core_names_the_shared_block_registry():
    named = sorted(p.name for p in SRC.glob("*.py")
                   if "_shared_blocks" in p.read_text(encoding="utf-8"))
    assert named == ["core.py"]


def test_only_verify_names_its_counting_internals():
    """Other modules count through verify's flow: they make the size
    rule's list (_patterns) once and pass it to _block_labels, _setups
    and _report, never calling the steps inside them."""
    internals = re.compile(r"\b(_rank_setup|_gram_setup|_pattern_counts|_rank_counts|"
                           r"_gram_counts|_slot_terms)\b")
    named = sorted(p.name for p in SRC.glob("*.py")
                   if internals.search(p.read_text(encoding="utf-8")))
    assert named == ["verify.py"]


def test_io_imports_only_core_and_errors():
    assert _graph()["io"] == {"core", "errors"}


def test_core_defines_both_design_types_on_one_body():
    """Design and PlaceholderDesign are defined in core and share one
    __post_init__, but neither is the other: require_design refuses a
    PlaceholderDesign, and the two never compare equal."""
    both = {"Design", "PlaceholderDesign"}
    owners = sorted(name for name, tree in MODULES.items() for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name in both)
    assert owners == ["core", "core"]
    assert gencov.PlaceholderDesign.__post_init__ is gencov.Design.__post_init__
    assert not issubclass(gencov.PlaceholderDesign, gencov.Design)
    assert not issubclass(gencov.Design, gencov.PlaceholderDesign)
