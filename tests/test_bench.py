"""The benchmark op registry (:mod:`repro.bench`) at smoke size.

The timing gates run at full size in ``benchmarks/bench_perf_gates.py``;
here every op's two sides run once and must agree by the op's own check,
so a broken side or a disagreement between paths fails tier-1.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench import OPS, Timing


@pytest.mark.parametrize("op", OPS, ids=[op.name for op in OPS])
def test_op_sides_agree_at_smoke_size(op):
    baseline, candidate = op.build(op.size("smoke"))
    op.check(baseline(), candidate())


def test_gate_judges_the_minimums_plus_the_floor():
    op = replace(OPS[0], bound=1.1, floor=0.02)
    assert Timing(op, 1, [1.0, 3.0], [1.12, 5.0]).passes
    assert not Timing(op, 1, [1.0, 3.0], [1.13, 1.14]).passes
    assert Timing(replace(op, bound=None), 1, [1.0], [9.0]).passes


def test_summary_reports_the_median_per_repeat_ratio():
    """The minimums can come from two phases of the host's speed; the
    per-repeat ratios compare sides that ran back to back."""
    timing = Timing(OPS[0], 1, [1.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    assert timing.ratio == pytest.approx(2.0)
    assert timing.paired_ratio == pytest.approx(1.0)
    assert "1.000 per repeat" in timing.summary()
