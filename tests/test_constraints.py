import numpy as np
import pytest

import baresim as bs


class TestSimplexFace:
    def test_membership(self):
        pts = np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]])
        assert bs.simplex_face(0, 0.5, ">=").contains(pts).tolist() == [False, True, True]
        assert bs.simplex_face(1, 0.5, "<=").contains(pts).tolist() == [False, True, True]

    def test_bad_op_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            bs.simplex_face(0, 0.5, "=>")
