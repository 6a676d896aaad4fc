"""The benchmark's SIC order oracle, bench/reference.py's _program_order,
against the decoding orders of the analysis's stage tables.

The oracle imports sic.decoding_order, SystemState and SystemConfig when
called, so this test also fails if any of them stops importing.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from noma_harq.markov import _stage_tables, _state_digits

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("alphas,db,k", [
    ((0.29, 0.35, 0.36), -2.02, 25),
    ((0.2, 0.3, 0.3, 0.2), 0.0, 50),  # duplicated ratios: ties break low
], ids=["N3", "N4-duplicated"])
def test_program_order_matches_stage_tables(alphas, db, k):
    p0 = 10 ** (db / 10)
    order = load_reference()._program_order(alphas, p0, k, 100)
    n = len(alphas)
    orders, _ = _stage_tables(_state_digits(n), np.array(alphas) * p0)
    for state in range(3**n):
        assert list(order(state)) == orders[state].tolist(), state
