"""Write the `long` workload's inputs with raincop's own generator and writers.

20 locations x 5000 days whose zero-gamma marginals follow known link-linear
coefficients on d = 3 standard-normal features. Writes locations.csv,
rainfall.csv, features.csv, marginals.csv (the true field) and truth.json.

    PYTHONPATH=src python3 perfbench/make_long.py --out DIR --seed N [--n-locations 20 --days 5000]
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from workloads import LONG_COEFFS, LONG_SHAPE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n-locations", type=int, default=LONG_SHAPE[0])
    parser.add_argument("--days", type=int, default=LONG_SHAPE[1])
    args = parser.parse_args(argv)

    import raincop
    from raincop import panel, spatial, synth

    coeffs = raincop.JglmCoefficients(**{k: np.asarray(v) if isinstance(v, list) else v
                                         for k, v in LONG_COEFFS.items()})
    spec = synth.SynthSpec(n_locations=args.n_locations, n_days=args.days, coeffs=coeffs,
                           seed=args.seed)
    result = synth.simulate_dataset(spec)
    os.makedirs(args.out, exist_ok=True)
    spatial.write_locations(os.path.join(args.out, "locations.csv"), result.locations)
    panel.write_rain_csv(os.path.join(args.out, "rainfall.csv"), result.panel)
    panel.write_features_csv(os.path.join(args.out, "features.csv"), result.panel,
                             result.features)
    panel.write_marginals_csv(os.path.join(args.out, "marginals.csv"), result.panel,
                              result.field)
    synth.write_truth(os.path.join(args.out, "truth.json"), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
