"""The README's library quick start runs as written against the package namespace."""

import pathlib
import re

import coherence_lab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = re.search(r"from coherence_lab import \((.*?)\)", block, re.S).group(1)
    assert {name.strip() for name in imported.split(",") if name.strip()} <= set(coherence_lab.__all__)
    assert all(hasattr(coherence_lab, name) for name in coherence_lab.__all__)
    exec(compile(block, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
