import ast
from pathlib import Path

import qcpg_kit


def misplaced_imports(path: Path, marked: bool) -> list[str]:
    """With ``marked``, the names on import lines marked ``noqa: F401`` that the module reads;
    without, the names on unmarked lines that it never reads. A mark exempts only unread names."""
    source = path.read_text(encoding="utf-8")
    lines, tree = source.splitlines(), ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        and ("noqa: F401" in " ".join(lines[node.lineno - 1:node.end_lineno])) == marked
        for alias in node.names
    ]
    return [name for name in imported if (name in used) == marked]


def findings(marked: bool) -> dict[str, list[str]]:
    tests = Path(__file__).resolve().parent
    modules = [p for p in Path(qcpg_kit.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    modules += [*tests.with_name("demos").glob("*.py"), *tests.glob("*.py")]
    found = {f"{p.parent.name}/{p.name}": misplaced_imports(p, marked) for p in modules}
    return {name: names for name, names in found.items() if names}


def test_no_module_imports_a_name_it_never_uses():
    assert findings(marked=False) == {}


def test_noqa_f401_marks_only_names_the_module_never_reads():
    assert findings(marked=True) == {}
