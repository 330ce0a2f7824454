"""Brute-force reference solvers for small instances.

These exist to check the real solver, so they favour being obviously correct
over being fast and deliberately share no code with the table builders
(``Instance`` is the only common type).

``brute_force_min_length`` tries every window length in ascending order, up
to the total length of the strings, where laying them side by side always
fits; for each length and each choice of mistake string it enumerates a
start offset for every string.  A placement is feasible when the exact
strings agree pairwise on every shared position and the mistake string
conflicts with the exact consensus in at most k positions (positions
covered only by the mistake string are free, as are positions covered by
nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

from .instance import Instance


class OracleLimitError(RuntimeError):
    """The instance exceeds the oracle's hard caps."""


@dataclass(frozen=True)
class OracleLimits:
    """Hard caps beyond which the enumeration refuses to run: the number of
    strings and their total length, which also bounds the lengths tried."""

    max_n: int = 4
    max_total_len: int = 26


class OracleResult(NamedTuple):
    length: int
    witness: str
    mistake_index: int


def _agrees(a: str, b: str, delta: int) -> bool:
    """True when b placed `delta` positions right of a matches a on the overlap."""
    lo = max(0, delta)
    hi = min(len(a), delta + len(b))
    return all(a[x] == b[x - delta] for x in range(lo, hi))


def brute_force_min_length(
    instance: Instance, limits: OracleLimits | None = None
) -> OracleResult:
    """Exhaustive minimal length (with one witness) for the instance."""
    limits = limits or OracleLimits()
    if instance.n > limits.max_n or instance.total_len > limits.max_total_len:
        raise OracleLimitError(
            f"oracle limits: n={instance.n} total={instance.total_len} "
            f"caps=(n<={limits.max_n}, total<={limits.max_total_len})"
        )
    strings = instance.strings
    n = instance.n
    k = instance.k

    # conflicting relative offsets for every ordered pair, precomputed once;
    # deltas outside the overlapping range can never conflict
    forbidden: dict[tuple[int, int], set[int]] = {}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            forbidden[a, b] = {
                d
                for d in range(-len(strings[b]) + 1, len(strings[a]))
                if not _agrees(strings[a], strings[b], d)
            }

    # laid side by side the strings fit in total_len, so some length is found
    for length in range(instance.c, instance.total_len + 1):
        for mistake in range(n):
            exact = [i for i in range(n) if i != mistake]
            found = _search(strings, exact, mistake, k, length, forbidden, [])
            if found is not None:
                placed, m_at = found
                witness = _render(strings, placed, mistake, m_at, length)
                return OracleResult(length, witness, mistake)


def _search(strings, exact, mistake, k, length, forbidden, placed):
    """Try every offset for the next exact string, then place the mistake string."""
    if len(placed) < len(exact):
        i = exact[len(placed)]
        for at in range(length - len(strings[i]) + 1):
            if all(at - prev_at not in forbidden[prev_i, i] for prev_i, prev_at in placed):
                placed.append((i, at))
                found = _search(strings, exact, mistake, k, length, forbidden, placed)
                placed.pop()
                if found is not None:
                    return found
        return None

    consensus: list[str | None] = [None] * length
    for i, at in placed:
        for t, ch in enumerate(strings[i]):
            consensus[at + t] = ch
    s = strings[mistake]
    for at in range(length - len(s) + 1):
        conflicts = 0
        for t, ch in enumerate(s):
            seen = consensus[at + t]
            if seen is not None and seen != ch:
                conflicts += 1
                if conflicts > k:
                    break
        if conflicts <= k:
            return list(placed), at
    return None


def _render(strings, placed, mistake, m_at, length) -> str:
    # exact strings first; the mistake string only fills untouched positions
    chars: list[str | None] = [None] * length
    for i, at in placed:
        for t, ch in enumerate(strings[i]):
            chars[at + t] = ch
    for t, ch in enumerate(strings[mistake]):
        if chars[m_at + t] is None:
            chars[m_at + t] = ch
    fill = min(min(s) for s in strings)
    return "".join(ch if ch is not None else fill for ch in chars)


def _suffix_prefix(a: str, b: str) -> int:
    for t in range(min(len(a), len(b)) - 1, 0, -1):
        if a[-t:] == b[:t]:
            return t
    return 0


def brute_force_scs(instance: Instance, max_n: int = 6) -> int:
    """Classical shortest-superstring length by trying every string order.

    Valid because no input contains another: for a fixed left-to-right order
    the shortest arrangement chains adjacent strings at maximal overlap.
    """
    if instance.n > max_n:
        raise OracleLimitError(f"oracle limits: n={instance.n} > {max_n}")
    strings = instance.strings
    best = instance.total_len
    for order in permutations(range(instance.n)):
        total = len(strings[order[0]])
        for prev, cur in zip(order, order[1:]):
            total += len(strings[cur]) - _suffix_prefix(strings[prev], strings[cur])
        best = min(best, total)
    return best
