import os
import sys

# allow running the suite from a fresh checkout without installing: this
# process imports from src, and so does every child it starts (the CLI and
# demo tests run ``python -m ustatcs.cli`` and the demo scripts)
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
if os.path.isdir(_SRC):
    sys.path.insert(0, _SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
