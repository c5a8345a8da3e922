"""Per-round client messages: honest stochastic gradients and attacks.

Honest clients send the task gradient on a batch of their shard; the engine
computes those. Byzantine clients either corrupt their own honestly computed
gradient (bit-flip, random-noise) or collude using the round's honest
messages (inner-product manipulation, mean-shift). A run has one attack,
shared by its whole Byzantine block. Collusion rules run once per round
after all honest messages exist; the engine enforces that two-phase order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal, Optional

import numpy as np

from .errors import PositiveFloat, check_fields

ATTACK_NONE = "none"  # the default, for a run without attackers; its parameters are still checked
ATTACK_BIT_FLIP = "bit-flip"
ATTACK_RANDOM_NOISE = "random-noise"
ATTACK_IPM = "ipm"
ATTACK_ALIE = "alie"

ATTACK_KINDS = (ATTACK_BIT_FLIP, ATTACK_RANDOM_NOISE, ATTACK_IPM, ATTACK_ALIE)
AttackKind = Literal[(ATTACK_NONE, *ATTACK_KINDS)]


@dataclass
class AttackSpec:
    """Byzantine behavior and its parameters, checked at construction."""

    kind: AttackKind
    sigma: Annotated[float, ">= 0"] = 1.0  # random-noise scale
    epsilon: PositiveFloat = 0.1  # inner-product manipulation scale
    z: PositiveFloat = 100.0  # mean-shift multiplier in standard deviations
    shift_sign: Literal[-1, 1] = -1  # mean-shift direction; -1 shifts against the mean

    __post_init__ = check_fields

    @property
    def reads_own(self) -> bool:
        """Whether the messages read the attackers' own honest gradients; colluders' do not."""
        return self.kind in (ATTACK_BIT_FLIP, ATTACK_RANDOM_NOISE)


def attack_ipm(honest_gradients: list[np.ndarray], epsilon: float) -> np.ndarray:
    """Inner-product manipulation: the scaled negative honest mean.

    Every colluding worker sends the identical vector -epsilon * mean(honest).
    """
    return -epsilon * np.mean(np.asarray(honest_gradients, dtype=float), axis=0)


def attack_alie(honest_gradients: list[np.ndarray], z: float, shift_sign: int = -1) -> np.ndarray:
    """Mean-shift collusion: honest mean shifted by z sample standard deviations.

    Per coordinate the colluders send mean + shift_sign * z * std, with the
    sample standard deviation (ddof=1) over the honest set.
    """
    stacked = np.asarray(honest_gradients, dtype=float)
    return stacked.mean(axis=0) + shift_sign * z * stacked.std(axis=0, ddof=1)


def byzantine_messages(
    attack: AttackSpec, own: np.ndarray, pool: np.ndarray, noise: Optional[np.ndarray]
) -> np.ndarray:
    """Phase-two messages of the Byzantine block, which all run the one attack.

    own holds the (k, d) gradients the k attackers would honestly send (used
    by the self-corrupting attacks); pool holds the target group's honest
    gradients, the only ones colluders see (the run's spec check gives it at
    least one row, and two under alie); noise holds each attacker's
    pre-drawn standard-normal row (read by the random-noise attack only).
    The colluding attacks return the one vector every attacker sends, which
    broadcasts when assigned to the block.
    """
    if attack.kind == ATTACK_BIT_FLIP:
        return -own
    if attack.kind == ATTACK_RANDOM_NOISE:
        return own + attack.sigma * noise
    if attack.kind == ATTACK_IPM:
        return attack_ipm(pool, attack.epsilon)
    return attack_alie(pool, attack.z, attack.shift_sign)
