"""Optional slow suite: the simulation-study round trip at full scale.

Deselected by default; run with `pytest -m slow`. One seed of the
400-location, 5000-day censored experiment takes roughly two to three
minutes on a laptop-class machine.
"""

import numpy as np
import pytest

import raincop as rc


@pytest.mark.slow
def test_fullscale_censored_recovery():
    spec = rc.SynthSpec(n_locations=400, n_days=5000, seed=1)
    res = rc.simulate_dataset(spec)
    cfg = rc.ScoreConfig(seed=2, m=30)
    search = rc.ThetaSearchSpec(lower=200.0, upper=800.0, grid_size=13)
    est = rc.estimate_theta(res.panel.values, res.field, res.distance, cfg, search)
    assert abs(est.theta_hat - 450.0) <= 0.15 * 450.0
    scores = np.array([pt.score for pt in est.profile])
    assert np.argmin(scores) not in (0, len(scores) - 1)
    print(f"\nfull-scale recovery: theta_hat {est.theta_hat:.1f} "
          f"({est.wall_clock_s:.0f}s)")
