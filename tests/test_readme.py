import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    """The "Library in one minute" block runs as written, so a renamed or
    removed name cannot leave it stale."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library in one minute", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under the heading"
    scope = {}
    exec(compile(block.group(1), str(README), "exec"), scope)
    result = scope["result"]
    assert len(result.chosen) == 2 and len(result.values) == 3
