"""`scripts/scan_probe.py` times scans whose reports agree with the sparse
count alone, on ranges that start unaligned across a top digit."""

import importlib.util
from pathlib import Path
from unittest.mock import patch

from gcmb import lab
from gcmb.lab import isolation_scan, render_scan_report

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scan_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("scan_probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_grid_agrees_with_the_sparse_count():
    """Over Z2 each case is its whole index space, one high block at L = n:
    the reports the probe times, by whatever counts `_split` picks, equal
    those of the sparse count there."""
    probe = load_probe()
    cases = list(probe.cases(groups=["Z2"]))
    assert [case[0] for case in cases] == [
        f"{name}/Z2/{predicate}/{reduction}/0..{2**n}" for name, n in (("rank4", 8), ("u510", 10))
        for predicate in ("block", "strong_block") for reduction in ("none", "translation")
    ]
    for _, entries, group, predicate, reduction, index_range in cases:
        text, seconds = probe.run_case(entries, group, predicate, reduction, index_range, repeat=1)
        with patch.object(lab, "_split", lambda *args: (entries[0][1].n, False)):
            sparse = isolation_scan(entries, group, predicate, reduction, index_range)
        assert text == render_scan_report(sparse) and seconds > 0


def test_ranges_start_unaligned_across_the_top_digit():
    probe = load_probe()
    width = probe.LABELINGS
    assert probe.ranges(4, 8, 1) == [(0, 4**8)]  # two ranges would not fit
    edge = 3 * 5**7  # the edge of top digit 3 of 5
    assert probe.ranges(5, 8, 1) == [(0, width), (edge - width // 2 + 1, edge + width // 2 + 1)]
