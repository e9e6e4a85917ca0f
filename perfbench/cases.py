"""Seeded case generator shared by the three benchmark workloads.

A case is one admissible family with its scale-factor data:

- the four families (1a, 1b, 2a, 2b) appear in equal shares;
- |xi|, |a0| are log-uniform over 1e-2..1e2 and alpha over 1e-1..1e1;
- the slope is a1 = u sqrt(|xi|) |a0|^{1/3} with u uniform in [-2, 2],
  which covers inward and outward slopes on both sides of theta = 0.

Cases are drawn in blocks.  Inside a block every family appears equally
often and each continuous coordinate is Latin-hypercube stratified: the
marginals are exactly the distributions above, but a block covers its
whole range evenly, so two seeds see the same mix of orbit types.  The
same (workload, seed, block) always gives the same cases.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# family -> (sigma, sign xi, sign a0), as in the package's sign table
FAMILIES = {
    "1a": (-1, -1, +1),
    "1b": (-1, +1, -1),
    "2a": (+1, +1, +1),
    "2b": (+1, -1, -1),
}

LOG10_XI = (-2.0, 2.0)
LOG10_A0 = (-2.0, 2.0)
LOG10_ALPHA = (-1.0, 1.0)
SLOPE_U = (-2.0, 2.0)

SWEEP_CASES = 200        # cases in one sweep config
VERIFY_BLOCK = 16        # verify items per block
CORRUPT_EVERY = 8        # every 8th verify item is corrupted
CORRUPT_FLAG = "u=1.01"
CONSTRUCT_BLOCK = 4      # distinct construct cases per block
CONSTRUCT_REPEAT = 4     # every 4th construct item repeats the one before


@dataclass(frozen=True)
class Case:
    family: str
    sigma: int
    xi: float
    alpha: float
    a0: float
    a1: float

    def block_text(self) -> str:
        # repr() round-trips every float exactly through the program's parser.
        return (f"sigma = {self.sigma}\nxi = {self.xi!r}\nalpha = {self.alpha!r}\n"
                f"a0 = {self.a0!r}\na1 = {self.a1!r}\n")


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in strata]


def draw_block(workload: str, seed: int, block: int, n: int) -> list[Case]:
    """n cases; n must be a multiple of 4 so the families share equally."""
    if n % len(FAMILIES):
        raise ValueError(f"block size {n} is not a multiple of {len(FAMILIES)}")
    rng = random.Random(f"ch2exact-bench/{workload}/{seed}/{block}")
    fams = list(FAMILIES) * (n // len(FAMILIES))
    rng.shuffle(fams)
    lxi = _stratified(rng, n, *LOG10_XI)
    la0 = _stratified(rng, n, *LOG10_A0)
    lal = _stratified(rng, n, *LOG10_ALPHA)
    us = _stratified(rng, n, *SLOPE_U)
    cases = []
    for fam, e_xi, e_a0, e_al, u in zip(fams, lxi, la0, lal, us):
        sigma, s_xi, s_a0 = FAMILIES[fam]
        xi = s_xi * 10.0 ** e_xi
        a0 = s_a0 * 10.0 ** e_a0
        a1 = u * abs(xi) ** 0.5 * abs(a0) ** (1.0 / 3.0)
        cases.append(Case(fam, sigma, xi, 10.0 ** e_al, a0, a1))
    return cases


@dataclass(frozen=True)
class Item:
    """One command of a workload: its cases, config text and extra CLI flags."""

    index: int
    cases: tuple[Case, ...]
    flags: tuple[str, ...] = ()
    repeat_of: int | None = None   # construct: index of the item it repeats

    @property
    def config(self) -> str:
        return "\n".join(c.block_text() for c in self.cases)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.config.encode()).hexdigest()

    @property
    def corrupt(self) -> bool:
        return "--seed-corrupt" in self.flags

    @property
    def units(self) -> int:
        """Work units the item completes: cases verified, grids or sweep cases."""
        return len(self.cases)


def item(workload: str, seed: int, k: int) -> Item:
    """Item k of the workload's deterministic stream."""
    if workload == "verify-cli":
        case = draw_block(workload, seed, k // VERIFY_BLOCK, VERIFY_BLOCK)[k % VERIFY_BLOCK]
        corrupt = k % CORRUPT_EVERY == CORRUPT_EVERY - 1
        return Item(k, (case,), ("--seed-corrupt", CORRUPT_FLAG) if corrupt else ())
    if workload == "construct-grid":
        d = k - (k + 1) // CONSTRUCT_REPEAT   # distinct-case index
        case = draw_block(workload, seed, d // CONSTRUCT_BLOCK, CONSTRUCT_BLOCK)[d % CONSTRUCT_BLOCK]
        repeat = k % CONSTRUCT_REPEAT == CONSTRUCT_REPEAT - 1
        return Item(k, (case,), ("--grid", "401,401"), k - 1 if repeat else None)
    if workload == "sweep-batch":
        return Item(k, tuple(draw_block(workload, seed, k, SWEEP_CASES)))
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = {
    "verify-cli": "verify",
    "construct-grid": "construct",
    "sweep-batch": "sweep",
}
