"""Machine-speed calibration: fixed numpy work that does not touch meritfed.

    python3 perfbench/calibrate.py

The benchmark times this process from start to its `ready` line right next to
every measured run. Its work has the same character as a meritfed run -- an
interpreter start, a numpy import, bulk Gaussian draws, and a Python loop of
small seeded-generator and small-array calls -- so its time moves with the
shared machine's speed, while no change to the program under test can move
it.
"""

import sys

import numpy as np


def main() -> int:
    rng = np.random.default_rng(np.random.SeedSequence((0, 1)))
    shards = [rng.standard_normal((1000, 10)) for _ in range(60)]
    validation = rng.standard_normal((20000, 10))
    total = float(validation.mean(axis=0).sum())
    for i in range(400):
        draw = np.random.default_rng(np.random.SeedSequence((0, 4, i % 60, i)))
        rows = draw.choice(1000, size=100, replace=False)
        batch = shards[i % 60][rows].mean(axis=0)
        z = -batch - (-batch).max()
        total += float(np.exp(z).sum())
    theta = np.full((10, 10), 0.01)
    for _ in range(20):
        logits = validation[:4000] @ theta.T
        total += float(np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)).mean())
    sys.stdout.write(f"ready {total:.6g}\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
