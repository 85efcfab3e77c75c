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
