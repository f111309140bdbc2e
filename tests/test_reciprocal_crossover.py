"""A smoke run of the reciprocal kernel crossover tool on small inputs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reciprocal_crossover.py"
spec = importlib.util.spec_from_file_location("reciprocal_crossover", TOOL)
reciprocal_crossover = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reciprocal_crossover)


def test_crossover_tool_reports_the_kernel_each_input_gets(capsys):
    # the tool asserts that the two kernels agree on every cell it times
    argv = ["--pairs", "1", "--orders", "24", "40", "--inputs", "123", "132"]
    assert reciprocal_crossover.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["123@24", "123@40", "132@24", "132@40"]
    picks = {key: row["picked"] for key, row in out.items()}
    assert picks == {"123@24": "list", "123@40": "packed", "132@24": "list", "132@40": "list"}
    for row in out.values():
        assert len(row["list_s"]) == len(row["packed_s"]) == 1
        assert row["width"] > 0 and row["cells"] > 0
