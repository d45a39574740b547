"""Every output of a few CLI runs against the digests committed in
`digests.json`, made by `tools/output_digests.py --pinned`. A change that
moves an output on purpose regenerates the file and says which entry moved
and why."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "digests.json"


def test_outputs_are_the_pinned_bytes(tmp_path):
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    moved = tool.differences(pinned["runs"], tool.pinned(ROOT, tmp_path))
    assert not moved, (f"outputs differ from {PINNED.name} (made with NumPy {pinned['numpy']}, "
                       f"this is NumPy {np.__version__}): {moved}")
