"""Map out how the two growth thresholds shape the hierarchy.

Runs the clusterer over a small (tau1, tau2) grid on a dataset with
three coarse blobs and a 4x4 lattice of micro-clusters, then prints the
per-cell metrics. Lowering tau1 forces flatter, wider maps; lowering
tau2 drills deeper. The full table lands in --out-dir/sweep.csv.

    python3 scripts/sweep_demo.py --out-dir /tmp/sweep_run
"""

import argparse
from pathlib import Path

from ghsomkit import GhsomParams, sweep, tiered_blobs
from ghsomkit.evaluation import sweep_to_csv


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out-dir", type=Path, default=Path("sweep_run"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--taus", type=float, nargs="+", default=[0.2, 0.1, 0.05])
    return p.parse_args()


def main():
    args = parse_args()
    m = tiered_blobs(seed=args.seed)
    params = GhsomParams(lam=10, rng_seed=args.seed)
    grid = sweep(m, params, args.taus, args.taus, labels=m.labels)

    header = f"{'tau1':>6} {'tau2':>6} {'leaves':>7} {'depth':>6} {'units':>6} {'CH':>10} {'ARI':>7}"
    print(header)
    print("-" * len(header))
    for t1 in grid.tau1_values:
        for t2 in grid.tau2_values:
            c = grid.cell(t1, t2)
            if c.error:
                print(f"{t1:>6.3g} {t2:>6.3g}  error: {c.error}")
                continue
            print(f"{t1:>6.3g} {t2:>6.3g} {c.leaf_count:>7} {c.depth:>6} "
                  f"{c.total_units:>6} {c.ch:>10.2f} {c.ari:>7.4f}")

    for metric in ("ch", "ari"):
        best = grid.best_by(metric)
        if best is not None:
            print(f"best {metric}: tau1={best.tau1:g} tau2={best.tau2:g} "
                  f"({getattr(best, metric):.4f})")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    sweep_to_csv(grid, args.out_dir / "sweep.csv")
    print(f"wrote {args.out_dir / 'sweep.csv'}")


if __name__ == "__main__":
    main()
