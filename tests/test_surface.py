"""A caller census of the library's public surface, and a census of the
places that open a file.

Every public module-level function or class of ``src/fiinet``, and every
public method of a public class, must be referenced somewhere in ``src/``
or ``perfbench/*.py`` outside its own definition.  A reference is a name,
an attribute or an imported name in the syntax tree; a string that names a
callable, as the benchmark's lists of traced ops do, is not one.  The few
names kept without a caller are listed in ``UNCALLED``, each with the
ROADMAP item that will call or delete it, and the list must stay exact.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fiinet"

# the only functions that may call the builtin open: every other reader and
# writer goes through them, so every file error names its path the same way
OPENERS = {"errors._open", "errors._replacing"}

UNCALLED = {
    # engine ops that the benchmark's OPS list pins by name (ROADMAP item 4)
    "engine.gather_rows": "item 4",
    "engine.stack_fields": "item 4",
    "engine.take_fields": "item 4",
    "engine.pad_channels": "item 4",
    "engine.scale_channels": "item 4",
    # the per-channel attention report that item 1's `report` command will write
    "sk_attention.channel_weight_means": "item 1",
    "sk_attention.write_attention_report": "item 1",
}


def references(tree: ast.AST) -> Counter:
    """Each name, attribute and imported name in ``tree``, counted."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def public_definitions():
    """(qualified name, name, definition node) of every public module-level
    function or class and every public method of a public class."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def uncalled() -> set[str]:
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    everywhere = Counter()
    for path in sources:
        everywhere.update(references(ast.parse(path.read_text(encoding="utf-8"))))
    return {
        qualified for qualified, name, node in public_definitions()
        if everywhere[name] == references(node)[name]
    }


def test_every_public_name_has_a_caller():
    extra = sorted(uncalled() - set(UNCALLED))
    assert not extra, f"public names that nothing in src/ or perfbench/ references: {extra}"


def test_the_uncalled_list_is_exact():
    defined = {qualified for qualified, _, _ in public_definitions()}
    gone = sorted(set(UNCALLED) - defined)
    called = sorted(set(UNCALLED) & defined - uncalled())
    assert not gone, f"UNCALLED lists names the library no longer defines: {gone}"
    assert not called, f"UNCALLED lists names that now have a caller: {called}"


def open_calls() -> dict[str, list[int]]:
    """The lines that call the builtin ``open`` in ``src/fiinet``, keyed by
    ``module.definition``: a module-level function or class, ``<module>``
    for any other statement."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            lines = [
                node.lineno for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "open"
            ]
            if lines:
                found.setdefault(f"{path.stem}.{getattr(top, 'name', '<module>')}", []).extend(lines)
    return found


def test_only_the_openers_call_open():
    others = {where: lines for where, lines in open_calls().items() if where not in OPENERS}
    assert not others, f"files opened outside {sorted(OPENERS)}: {others}"


def test_the_openers_list_is_exact():
    missing = sorted(OPENERS - set(open_calls()))
    assert not missing, f"OPENERS lists names that call no open: {missing}"
