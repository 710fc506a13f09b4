"""Golden outputs: each configuration of ``regen_golden.CONFIGS`` writes the
data files pinned in ``golden.json``.  A failure here is a changed output;
re-pin with ``tests/regen_golden.py`` only when the change is meant."""

import json

import numpy as np
import pytest

from regen_golden import CKA_ATOL, CONFIGS, GOLDEN, golden_run

PINNED = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CONFIGS)
def test_data_outputs_match_the_pinned_ones(tmp_path, name):
    got, want = golden_run(name, tmp_path), PINNED[name]
    cka, want_cka = got.pop("cka"), want["cka"]
    assert got == {k: v for k, v in want.items() if k != "cka"}
    assert list(cka) == list(want_cka)
    np.testing.assert_allclose(list(cka.values()), list(want_cka.values()),
                               rtol=0, atol=CKA_ATOL, equal_nan=True)
