"""Every ``python`` block of README.md runs against the package in ``src``.

The blocks run in order in one namespace, as a reader would paste them, so
a renamed or deleted name cannot stay in the docs unnoticed.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    # what the tour's last comment says: the null stream is not rejected
    assert namespace["mon"].first == {}
