"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README.name} (Library use)", "exec"), namespace)
    assert namespace["candidates"]
    assert [cls.label for cls in namespace["result"].classes] == ["class1", "class2",
                                                                  "class3"]
