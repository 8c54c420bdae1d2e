"""Dispatch policies mapping an arriving task to a server id.

ECMP draws uniformly, WCMP draws proportionally to processor counts, LSQ
picks the shortest local queue, and SED picks the smallest (queue+1)/weight
score.  The learned balancer reuses the SED scoring rule with inferred
per-server speed weights that are refreshed only at step boundaries, while
the local ongoing counts update on every dispatch/completion.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np


@dataclass
class PolicyContext:
    """Per-LB view handed to a policy at dispatch time.

    ``ongoing`` counts this LB's own dispatched-but-uncompleted tasks per
    server; ``weights`` are processor counts for WCMP/SED or learned speeds
    for the RL balancer.  Both lists have one entry per server.
    """

    ongoing: list
    weights: list
    rng: Optional[np.random.Generator] = None

    @property
    def n(self) -> int:
        return len(self.ongoing)


def _argmin(scores, tie_break: str, rng) -> int:
    """Index of the least score; a random tie-break draws among the tied ones."""
    best = min(scores)
    j = scores.index(best)
    if tie_break == "random":
        ties = scores.count(best)
        if ties > 1:
            for _ in range(rng.integers(ties)):
                j = scores.index(best, j + 1)
    return j


def ecmp(ctx: PolicyContext) -> int:
    """Uniformly random server."""
    return int(ctx.rng.integers(ctx.n))


def wcmp(ctx: PolicyContext) -> int:
    """Server drawn with probability weight_j / sum(weights)."""
    w = ctx.weights
    total = 0.0
    for v in w:
        if v <= 0:
            raise ValueError(f"wcmp requires positive weights, got {w}")
        total += v
    u = ctx.rng.random() * total
    acc = 0.0
    for j in range(len(w) - 1):
        acc += w[j]
        if u < acc:
            return j
    return len(w) - 1


def lsq(ctx: PolicyContext, tie_break: str = "lowest") -> int:
    """Server with the fewest locally-ongoing tasks; ties go to the lowest id."""
    return _argmin(ctx.ongoing, tie_break, ctx.rng)


def sed(ctx: PolicyContext, tie_break: str = "lowest") -> int:
    """Server minimizing (ongoing + 1) / processors; ties go to the lowest id."""
    c = ctx.ongoing
    w = ctx.weights
    return _argmin([(c[j] + 1) / w[j] for j in range(len(c))], tie_break, ctx.rng)


def rlb_assign(ctx: PolicyContext, tie_break: str = "lowest") -> int:
    """SED's rule on inferred speeds: the server minimizing (ongoing + 1) / speed.

    Scale-invariant in the weights: multiplying every inferred speed by the
    same positive constant leaves the decision unchanged.  Counts move on
    every dispatch while the speeds stay frozen between step boundaries.
    """
    if min(ctx.weights) <= 0:
        raise RuntimeError(f"inferred speed must be positive, got {ctx.weights}")
    return sed(ctx, tie_break)


class Draws:
    """``integers(k)`` and ``random()`` of a PCG64 ``Generator``, value for value,
    replayed in Python on raw words fetched in blocks: no numpy call per draw.
    PCG64 gives 32-bit outputs as the low, then the high half of a word, and
    numpy bounds them by Lemire's multiply-and-reject (arXiv:1805.10941).
    The wrapped generator runs ahead of the draws served."""

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"Draws replays PCG64 only, got {type(bitgen).__name__}")
        self._word = chain.from_iterable(
            iter(lambda: bitgen.random_raw(512).tolist(), None)).__next__
        # a word is fetched when its low half is asked for, so random() can
        # take whole words while a high half waits, as in PCG64's own state
        state = bitgen.state
        self._uint32 = chain([state["uinteger"]] if state["has_uint32"] else [],
                             (h for w in iter(self._word, None)
                              for h in (w & 0xFFFFFFFF, w >> 32))).__next__

    def integers(self, k: int) -> int:
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"Draws.integers needs 1 <= k <= 2**32, got {k}")
        if k == 1:
            return 0
        m = self._uint32() * k
        if m & 0xFFFFFFFF < k:  # numpy's shortcut: the threshold 2**32 % k is below k
            while m & 0xFFFFFFFF < (1 << 32) % k:
                m = self._uint32() * k
        return m >> 32

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53


class Policy:
    """A dispatch policy bound to one load balancer.

    ``select`` is called on every arrival; ``on_step`` at each step boundary
    and may return new weights; ``on_episode_end`` once per episode after
    the clock reaches the episode duration.

    Ties break at seeded random: with integer processor counts the
    score-based policies hit exact ties constantly (every SED-balanced state
    is one), and always picking the lowest index starves small servers at
    light load.  Seeded streams keep runs bitwise reproducible.
    """

    name = "base"
    wants_observations = False
    rng: Optional[Draws] = None

    def bind(self, rng: np.random.Generator) -> "Policy":
        self.rng = Draws(rng)
        return self

    def initial_weights(self, topology) -> list:
        return [float(p) for p, _ in topology.servers]

    def select(self, ctx: PolicyContext) -> int:
        raise NotImplementedError

    def on_step(self, view, now: float) -> Optional[list]:
        return None

    def on_episode_end(self, view, now: float) -> None:
        return None


class EcmpPolicy(Policy):
    name = "ecmp"

    def select(self, ctx):
        return ecmp(ctx)


class WcmpPolicy(Policy):
    name = "wcmp"

    def select(self, ctx):
        return wcmp(ctx)


class LsqPolicy(Policy):
    name = "lsq"

    def select(self, ctx):
        return lsq(ctx, "random")


class SedPolicy(Policy):
    name = "sed"

    def select(self, ctx):
        return sed(ctx, "random")


BASELINE_POLICIES = {
    "ecmp": EcmpPolicy,
    "wcmp": WcmpPolicy,
    "lsq": LsqPolicy,
    "sed": SedPolicy,
}
