"""The README's library quick start runs as written, on the golden cohort."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COHORT = ROOT / "tests" / "golden" / "cohort.csv"


def test_library_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    code = blocks[0].replace('"cohort.csv"', repr(str(COHORT)))
    assert code != blocks[0]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
