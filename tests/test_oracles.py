import numpy as np
import pytest

from oracles import DimensionTooLarge, brute_force_optimize
from tumorctrl.presets import preset_problem


class TestBruteForce:
    def test_zero_tracking_finds_zero(self):
        prob = preset_problem("time-sparsity-demo", beta1=0.0, beta2=0.0,
                              n=(2,), n_steps=2, t_final=0.4)
        u, j = brute_force_optimize(prob)
        assert j == 0.0
        assert np.all(u.u1.values == 0.0) and np.all(u.u2.values == 0.0)

    def test_dimension_guard(self):
        prob = preset_problem("time-sparsity-demo", n=(4,), n_steps=2)
        with pytest.raises(DimensionTooLarge):
            brute_force_optimize(prob)
