#!/usr/bin/env python3
"""Write one draw of the built-in generator to a CSV file.

Useful for trying the `wate estimate` command without real data:

    python3 scripts/make_synthetic_csv.py --n 500 --seed 7 --out demo.csv
    wate estimate demo.csv --bootstrap 200

With --treated the treatment indicator is redrawn to hit an exact count
(weighted sampling without replacement by the true propensity), which is
handy for mimicking a cohort of fixed size.
"""

import argparse
import sys

import numpy as np

from wate.data import ObservationalDataset, save_csv
from wate.simulation import generate_dataset


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outcome-model", type=int, default=2, choices=(1, 2))
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--treated", type=int, default=None,
                        help="exact number of treated rows (default: random)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="synthetic.csv")
    args = parser.parse_args(argv)

    if args.treated is not None and not 2 <= args.treated <= args.n - 2:
        parser.error("--treated must leave at least two rows in each arm")
    rng = np.random.default_rng(args.seed)
    cf = generate_dataset(args.outcome_model, args.n, rng)
    ds = cf.observed()
    if args.treated is not None:
        pi = cf.pi_true
        A = np.zeros(args.n)
        A[rng.choice(args.n, size=args.treated, replace=False, p=pi / pi.sum())] = 1.0
        ds = ObservationalDataset(
            X=cf.X, A=A, Y=np.where(A == 1.0, cf.y1, cf.y0),
            covariate_names=cf.covariate_names,
        )
    save_csv(ds, args.out)
    print(f"{args.out}: n = {ds.n}, treated = {ds.n_treated}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
