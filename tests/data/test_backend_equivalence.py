"""Row windows (:func:`repro.data.backend.iter_slices`) and empty tables."""

import pickle

import numpy as np

from repro.data.backend import iter_slices
from repro.data.table import Table


class TestBackendPrimitives:
    """Unit coverage of the row-window helper and empty tables."""

    def test_iter_slices_partitions_exactly(self):
        for n in (0, 1, 7, 64):
            for chunk in (0, 1, 3, 7, 100):
                windows = list(iter_slices(n, chunk))
                covered = [i for w in windows for i in range(w.start, w.stop)]
                assert covered == list(range(n))

    def test_empty_columns_roundtrip(self):
        table = Table({"a": np.array([], dtype=np.int64)})
        assert table.n_rows == 0
        assert table["a"].shape == (0,)
        clone = pickle.loads(pickle.dumps(table))
        assert clone.equals(table)
