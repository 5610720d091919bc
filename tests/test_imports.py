import ast
from pathlib import Path

import qcpg_kit


def unused_imports(path: Path) -> list[str]:
    """Names the module imports and never reads; an import marked ``noqa: F401`` is exempt."""
    source = path.read_text(encoding="utf-8")
    lines, tree = source.splitlines(), ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        and "noqa: F401" not in " ".join(lines[node.lineno - 1:node.end_lineno])
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    tests = Path(__file__).resolve().parent
    modules = [p for p in Path(qcpg_kit.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    modules += [*tests.with_name("demos").glob("*.py"), *tests.glob("*.py")]
    unused = {f"{p.parent.name}/{p.name}": unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
