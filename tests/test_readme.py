"""The README's library quick start runs as written, on the golden cohort,
and every name of the package it mentions exists."""

import importlib
import re
from pathlib import Path

import wate
import wate.bootstrap
import wate.models

ROOT = Path(__file__).resolve().parent.parent
COHORT = ROOT / "tests" / "golden" / "cohort.csv"
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_library_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    code = blocks[0].replace('"cohort.csv"', repr(str(COHORT)))
    assert code != blocks[0]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` (``wate.a.b``) names a module of the package or an
    attribute of one."""
    obj = wate
    for i, part in enumerate(dotted.split(".")[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(dotted.split(".")[:i]))
        except ModuleNotFoundError:
            return False
    return True


def test_every_package_name_in_the_readme_resolves():
    # Code and prose alike: ``wate.<name>`` chains and ``from wate.<module>
    # import <names>`` lines.
    dotted = set(re.findall(r"\bwate(?:\.[A-Za-z_]\w*)+", README))
    for module, names in re.findall(r"^from (wate(?:\.\w+)*) import (.+)$", README, re.MULTILINE):
        dotted.update(f"{module}.{name.strip()}" for name in names.split(","))
    assert len(dotted) > 20
    assert sorted(name for name in dotted if not _resolves(name)) == []


def test_every_name_in_all_exists():
    assert [name for name in wate.__all__ if not hasattr(wate, name)] == []


def test_the_stack_rule_quotes_the_stack_size():
    # The README states the stack rule and the outcome part rule, which
    # round up, with their numbers; a change to a constant must change the
    # docs too.
    rules = re.findall(r"max\(1, ceil\((\d+) / n\)\)", README)
    assert rules == [str(wate.bootstrap._BATCH_ROWS), str(wate.models._PART_ROWS)]
