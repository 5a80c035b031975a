"""Seeded benchmark inputs, made with numpy alone.

The inputs never come from ``ghsomkit.synthetic``: a change to the
program must not be able to change what the benchmark feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 2**-10 grid: every written cell is a short decimal that parses back to
# exactly the float the benchmark holds, whatever parser reads it
QUANTUM = 1.0 / 1024.0


@dataclass
class Blobs:
    """Samples with their generating labels at both scales."""

    values: np.ndarray  # (n, dim)
    fine: list[str]  # sub-blob label, e.g. "g2s1"
    coarse: list[str]  # coarse group label, e.g. "g2"

    @property
    def sample_ids(self) -> list[str]:
        return [f"s{i:05d}" for i in range(len(self.values))]


def nested_blobs(
    seed: int,
    per_sub: int,
    spread: float,
    n_coarse: int = 4,
    n_sub: int = 4,
    coarse_sep: float = 10.0,
    sub_sep: float = 1.5,
    dim: int = 8,
    part: int | None = None,
) -> Blobs:
    """Two-scale Gaussian blobs.

    Coarse group ``g`` sits at ``coarse_sep`` on axis ``g``; its ``n_sub``
    sub-blobs lie ``sub_sep`` apart on axis ``(n_coarse + g) % dim``.
    Rows are shuffled, and values are rounded to the ``QUANTUM`` grid.
    ``part`` draws one of several independent data sets from one seed.
    """
    entropy = [seed, 0xB10B] + ([] if part is None else [part])
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    blocks, fine, coarse = [], [], []
    for g in range(n_coarse):
        for s in range(n_sub):
            center = np.zeros(dim)
            center[g] = coarse_sep
            center[(n_coarse + g) % dim] += sub_sep * s
            blocks.append(center + rng.normal(0.0, spread, size=(per_sub, dim)))
            fine += [f"g{g}s{s}"] * per_sub
            coarse += [f"g{g}"] * per_sub
    values = np.vstack(blocks)
    order = rng.permutation(len(values))
    return Blobs(
        values=quantize(values[order]),
        fine=[fine[i] for i in order],
        coarse=[coarse[i] for i in order],
    )


def quantize(x: np.ndarray) -> np.ndarray:
    return np.rint(x / QUANTUM) * QUANTUM


@dataclass
class WideTable:
    """A labelled samples x attributes table as written to CSV."""

    values: np.ndarray  # (n, n_attributes)
    attribute_names: list[str]
    blobs: Blobs


def wide_table(seed: int, per_sub: int, spread: float, n_attributes: int,
               noise_lo: float, noise_hi: float) -> WideTable:
    """Nested blobs spread over random columns of a wide noise table.

    Each noise column gets its own standard deviation, spaced evenly in
    [noise_lo, noise_hi], so variance ranks have wide gaps and a top-k
    selection has one answer, not a tie broken by rounding.
    """
    blobs = nested_blobs(seed, per_sub, spread)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3A1D]))
    n, k = blobs.values.shape
    stds = rng.permutation(np.linspace(noise_lo, noise_hi, n_attributes - k))
    values = np.empty((n, n_attributes))
    structured = sorted(rng.choice(n_attributes, size=k, replace=False).tolist())
    noise_cols = sorted(set(range(n_attributes)) - set(structured))
    values[:, structured] = blobs.values
    values[:, noise_cols] = quantize(rng.normal(0.0, 1.0, size=(n, len(noise_cols))) * stds)
    names = [f"a{j:04d}" for j in range(n_attributes)]
    return WideTable(values=values, attribute_names=names, blobs=blobs)


def write_csv(table: WideTable, path, label_column: str) -> None:
    """Header, then one row per sample: id, attributes, fine label."""
    row_fmt = "%s," + ",".join(["%.12g"] * table.values.shape[1]) + ",%s\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id", *table.attribute_names, label_column]) + "\n")
        for sid, row, label in zip(table.blobs.sample_ids, table.values, table.blobs.fine):
            fh.write(row_fmt % (sid, *row, label))
