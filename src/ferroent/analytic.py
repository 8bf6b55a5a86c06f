"""Closed-form pair density matrices and concurrences of symmetric spin states.

All density-matrix entries here are exact rationals (``fractions.Fraction``),
so identities like the equal-weight average over all symmetric states
collapsing to the universal separable form hold exactly, with no floating
point tolerance.  Concurrence values involve square roots and are floats.

For N spins with n up in the completely symmetric (Dicke) state, the pair
entries are

    alpha = n(n-1) / (N(N-1))            both up
    beta = gamma = delta = n(N-n) / (N(N-1))
    epsilon = (N-n)(N-n-1) / (N(N-1))    both down

and the equal mixture of all N+1 symmetric states has the universal
entries ``UNIVERSAL_ENTRIES`` = (1/3, 1/6, 1/6, 1/6, 1/3) for every N.
The module stays exact and standalone: it returns entries, not density
matrices, and its concurrences are evaluated in closed form, so the
numerical pair states of ``rdm`` and ``sweep`` can be checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt


@dataclass(frozen=True)
class SymmetricRdmEntries:
    """Exact pair-RDM entries of the n_up-of-n_total symmetric state."""

    n_total: int
    n_up: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    epsilon: Fraction


UNIVERSAL_ENTRIES = (
    Fraction(1, 3),
    Fraction(1, 6),
    Fraction(1, 6),
    Fraction(1, 6),
    Fraction(1, 3),
)


def symmetric_rdm_entries(n_total: int, n_up: int) -> SymmetricRdmEntries:
    """Exact pair-RDM entries from the up/down counting combinatorics."""
    _check_args(n_total, n_up)
    denom = n_total * (n_total - 1)
    n_down = n_total - n_up
    return SymmetricRdmEntries(
        n_total=n_total,
        n_up=n_up,
        alpha=Fraction(n_up * (n_up - 1), denom),
        beta=Fraction(n_up * n_down, denom),
        gamma=Fraction(n_up * n_down, denom),
        delta=Fraction(n_up * n_down, denom),
        epsilon=Fraction(n_down * (n_down - 1), denom),
    )


def mean_entries(entries: list[SymmetricRdmEntries]) -> tuple[Fraction, ...]:
    """Equal-weight average of entry tuples, exact."""
    count = len(entries)
    if count == 0:
        raise ValueError("cannot average zero states")
    sums = [Fraction(0)] * 5
    for entry in entries:
        for slot, value in enumerate(
            (entry.alpha, entry.beta, entry.gamma, entry.delta, entry.epsilon)
        ):
            sums[slot] += value
    return tuple(value / count for value in sums)


def ground_mixture_entries(n_total: int) -> tuple[Fraction, ...]:
    """Exact entries of the equal mixture over all n_total + 1 symmetric states."""
    if n_total < 2:
        raise ValueError(f"n_total must be >= 2, got {n_total}")
    return mean_entries([symmetric_rdm_entries(n_total, n) for n in range(n_total + 1)])


def concurrence_symmetric(n_total: int, n_up: int) -> float:
    """Concurrence of one symmetric state:

    2/(N(N-1)) * ( n(N-n) - sqrt(n(n-1)(N-n)(N-n-1)) ),

    zero only for n = 0 and n = N.
    """
    _check_args(n_total, n_up)
    n_down = n_total - n_up
    product = n_up * (n_up - 1) * n_down * (n_down - 1)
    return 2.0 * (n_up * n_down - sqrt(product)) / (n_total * (n_total - 1))


def concurrence_pairwise_mixed(n_total: int, n_up: int) -> float:
    """Concurrence of the equal two-state mixture of n up and N-n up:

    max(0, 4n(N-n)/(N(N-1)) - 1).

    Computed in exact rational arithmetic before the clamp, so the result
    is exactly 0.0 on and outside the cancellation thresholds.
    """
    _check_args(n_total, n_up)
    raw = Fraction(4 * n_up * (n_total - n_up), n_total * (n_total - 1)) - 1
    return float(raw) if raw > 0 else 0.0


@dataclass(frozen=True)
class ZoneSpec:
    """Indices strictly between the cancellation thresholds (N -+ sqrt(N))/2."""

    n_total: int
    lower: float
    upper: float
    members: tuple[int, ...]


def zone(n_total: int) -> ZoneSpec:
    """Strict-interior zone membership, decided in integer arithmetic.

    n lies strictly inside (N - sqrt(N))/2 < n < (N + sqrt(N))/2 exactly
    when (2n - N)^2 < N, so perfect-square boundaries are excluded
    without floating point.
    """
    if n_total < 2:
        raise ValueError(f"n_total must be >= 2, got {n_total}")
    members = tuple(
        n for n in range(n_total + 1) if (2 * n - n_total) ** 2 < n_total
    )
    half_width = sqrt(n_total) / 2.0
    return ZoneSpec(
        n_total=n_total,
        lower=n_total / 2.0 - half_width,
        upper=n_total / 2.0 + half_width,
        members=members,
    )


def zone_mixture_entries(n_total: int) -> tuple[Fraction, ...]:
    """Exact entries of the equal mixture over the zone's symmetric states."""
    members = zone(n_total).members
    return mean_entries([symmetric_rdm_entries(n_total, n) for n in members])


def zone_mixture_concurrence(n_total: int) -> float:
    """Concurrence of the equal mixture of the zone states; decays like 1/N."""
    alpha, _, gamma, _, epsilon = zone_mixture_entries(n_total)
    return max(0.0, 2.0 * (float(gamma) - sqrt(float(alpha) * float(epsilon))))


def figure1_data(n_total: int) -> list[tuple[int, float, float]]:
    """Rows (n, symmetric-state concurrence, pairwise-mixed concurrence)."""
    if n_total < 2:
        raise ValueError(f"n_total must be >= 2, got {n_total}")
    return [
        (
            n,
            concurrence_symmetric(n_total, n),
            concurrence_pairwise_mixed(n_total, n),
        )
        for n in range(n_total + 1)
    ]


def figure2_data(n_min: int, n_max: int) -> list[tuple[int, float]]:
    """Rows (N, zone-mixture concurrence) for N in [n_min, n_max]."""
    if not (2 <= n_min <= n_max):
        raise ValueError(f"need 2 <= n_min <= n_max, got ({n_min}, {n_max})")
    return [(n, zone_mixture_concurrence(n)) for n in range(n_min, n_max + 1)]


def _check_args(n_total: int, n_up: int) -> None:
    if n_total < 2:
        raise ValueError(f"n_total must be >= 2, got {n_total}")
    if not (0 <= n_up <= n_total):
        raise ValueError(f"n_up must be in [0, {n_total}], got {n_up}")
