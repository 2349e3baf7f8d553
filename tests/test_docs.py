"""The README stays in step with the repository it describes."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_lists_every_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^python (examples/\w+\.py)", readme, flags=re.MULTILINE)
    present = sorted(f"examples/{path.name}" for path in (ROOT / "examples").glob("*.py"))
    assert len(listed) == len(set(listed)), "README lists an example twice"
    assert sorted(listed) == present
