"""Smoke test of ``tools/answer_digest.py`` on one catalog circuit."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "answer_digest.py"


def test_one_circuit_prints_one_line_per_item(capsys):
    spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.main(["--circuits", "sallen_key"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 3 deviations x 3 epsilons; each: 5 arrays, nominal, labels,
    # 3 counters and the keys of its 3 configurations
    assert len(lines) == 9 * (5 + 2 + 3 + 3)
    pattern = r"[0-9a-f]{64}  sallen_key dev=0\.[235] eps=0\.\d+ \w+( C\d)?"
    assert all(re.fullmatch(pattern, line) for line in lines), lines
    items = [line.split("  ", 1)[1] for line in lines]
    assert len(set(items)) == len(items)
