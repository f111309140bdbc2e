"""The op-digest tool: at the default seed it gives perfbench's stored digests."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_digests.py"
spec = importlib.util.spec_from_file_location("op_digests", TOOL)
op_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(op_digests)


def test_default_seed_digests_equal_the_stored_ones(monkeypatch, tmp_path):
    # the tool re-imports the package from src/ and points the cache at its
    # own directory; the modules and the variable are put back afterwards
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "clusterperm":
            monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(op_digests.run, "SRC", ROOT / "src")
    seed = op_digests.workloads.DEFAULT_SEED
    rows = list(op_digests.op_digests(seeds=(seed,)))
    assert [(op_id, problem) for *_, op_id, _, problem in rows if problem] == []
    assert {op_id: d for _, _, op_id, d, _ in rows} == op_digests.checks.load_expected()
