"""`scripts/grid_probe.py` writes grid instances that the CLI solves."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "grid_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("grid_probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_grid_solves_alike_in_both_modes(tmp_path):
    probe = load_probe()
    assert len(probe.grid_edges(4, 3)) == 4 * 2 + 3 * 3
    argv, weights = probe.write_instance(tmp_path, 4, 3, "Z3", 1)
    fields = []
    for mode in ("enum", "proximity"):
        _, report = probe.run_case(argv + ["--mode", mode, "--weights", weights], 60)
        fields.append(re.search(r"status=(\S+) base=\S+ label=\S+ weight=(\S+)", report).groups())
    assert fields[0] == fields[1]
    assert fields[0][0] == "feasible"
