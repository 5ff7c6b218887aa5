"""Every public name has a caller: each name in a module's `__all__` is read
somewhere in `src/hessk3` beyond its own definition, or has its line in
README's public-by-design section.  Every name README cites as
`module.name` exists."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hessk3"


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _exports(tree) -> list:
    """The names written out in a module's `__all__`, dunders aside."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names = [x.value for x in node.value.elts if isinstance(x, ast.Constant)]
            return [name for name in names if not name.startswith("__")]
    return []


def _reads(tree) -> set:
    """Every name a module reads: a loaded name, an attribute, an imported name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _public_by_design() -> set:
    """module.name of each line of README's public-by-design section."""
    _, _, section = (ROOT / "README.md").read_text().partition("\n## Public by design\n")
    section = section.partition("\n## ")[0]
    return set(re.findall(r"^- `(\w+\.\w+)`", section, re.MULTILINE))


def test_every_public_name_is_read_in_src_or_public_by_design():
    modules = _modules()
    read = set().union(*map(_reads, modules.values()))
    unread = {f"{m}.{name}" for m, tree in modules.items() for name in _exports(tree) if name not in read}
    assert unread <= _public_by_design()


def test_public_by_design_names_are_exported():
    exported = {f"{m}.{name}" for m, tree in _modules().items() for name in _exports(tree)}
    assert _public_by_design() <= exported


def _readme_names() -> list:
    """(module, name) of each backticked `module.name` or
    `hessk3.module.name` in README whose module is one of the package's."""
    modules = {path.stem for path in SRC.glob("*.py")}
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    cited = (re.fullmatch(r"(?:hessk3\.)?(\w+)\.(\w+)", span) for span in spans)
    return [m.groups() for m in cited if m and m.group(1) in modules]


def test_every_name_readme_cites_resolves():
    names = _readme_names()
    assert names
    missing = [f"{m}.{name}" for m, name in names if not hasattr(importlib.import_module(f"hessk3.{m}"), name)]
    assert missing == []
