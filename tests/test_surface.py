"""Every name the package defines is used by something other than its own unit tests."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "coherence_lab").glob("*.py"))
#: places a name may be used from besides the package itself
USERS = [ROOT / "README.md", *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _definitions(path: pathlib.Path, private: bool) -> list:
    """Module-level functions and classes of one source file, either the ``_``-prefixed ones or the rest."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") == private
    ]


def test_no_public_name_is_used_only_by_tests():
    src_text = "\n".join(path.read_text(encoding="utf-8") for path in SOURCES)
    user_text = "\n".join(path.read_text(encoding="utf-8") for path in USERS)
    unused = []
    for path in SOURCES:
        for name in _definitions(path, private=False):
            word = re.compile(rf"\b{name}\b")
            # the definition itself is one occurrence in src/
            if len(word.findall(src_text)) < 2 and not word.search(user_text):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names used only by their tests: {unused}"


def test_commands_leave_writing_to_main():
    """Each ``cmd_*`` takes the resolved parameters alone and yields its outputs; ``main`` writes them."""
    tree = ast.parse((ROOT / "src" / "coherence_lab" / "cli.py").read_text(encoding="utf-8"))
    writers = {"_write_csv", "_write_json", "open", "os.path.join"}
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            if [arg.arg for arg in node.args.args] != ["p"]:
                found.append(f"{node.name} takes {ast.unparse(node.args)}")
            calls = {ast.unparse(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)}
            found += [f"{node.name} calls {name}" for name in sorted(calls & writers)]
    assert not found, found


def test_no_private_helper_is_used_only_by_tests():
    src_text = "\n".join(path.read_text(encoding="utf-8") for path in SOURCES)
    unused = []
    for path in SOURCES:
        for name in _definitions(path, private=True):
            # the definition itself is one occurrence in src/
            if len(re.findall(rf"\b{name}\b", src_text)) < 2:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"private helpers named nowhere in src/ but their definition: {unused}"
