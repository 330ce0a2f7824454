"""Problem instances: parsing, validation and serialization.

An instance is a tuple of non-empty strings together with a non-negative
integer mismatch budget ``k``; :class:`Instance` refuses any other shape.
The solver searches for the shortest string that contains every input
exactly, except for one designated input that may disagree with it in at
most ``k`` positions.  For the problem to be well posed no input string may
occur as a substring of another (this also rules out duplicates);
:func:`validate` reports every such pair.

The text format is one string per line; lines starting with ``#`` are
comments and blank lines are skipped.  Symbols are arbitrary code points,
compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

# The subset tables downstream grow as n * 2^n entries, so refuse instances
# that would silently allocate gigabytes.
DEFAULT_MAX_STRINGS = 20


class InstanceError(ValueError):
    """Input text or parameters cannot form an instance."""


class InvalidInstanceError(InstanceError):
    """An instance failed validation; `violations` holds what :func:`validate` found."""

    def __init__(self, violations: list[tuple[int, int]]):
        super().__init__(f"invalid instance: {violations}")
        self.violations = violations


@dataclass(frozen=True)
class Instance:
    """An immutable problem instance, safe to share.

    A tuple of at least one string, each a non-empty ``str``, and a
    non-negative ``int`` budget that is not a ``bool``, or InstanceError.
    Containment between the strings is :func:`validate`'s to report.
    """

    strings: tuple[str, ...]
    k: int

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 0:
            raise InstanceError("invalid budget")
        if not isinstance(self.strings, tuple):
            raise InstanceError("strings is not a tuple")
        if not self.strings:
            raise InstanceError("no strings")
        for i, s in enumerate(self.strings):
            if not isinstance(s, str) or not s:
                raise InstanceError(f"string {i} is not a non-empty str")

    @property
    def n(self) -> int:
        """Number of strings."""
        return len(self.strings)

    @property
    def c(self) -> int:
        """Length of the longest string."""
        return max(len(s) for s in self.strings)

    @property
    def total_len(self) -> int:
        """Sum of all string lengths."""
        return sum(len(s) for s in self.strings)


def make_instance(strings, k: int, *, max_strings: int = DEFAULT_MAX_STRINGS) -> Instance:
    """Build an Instance from an iterable of strings, checking the cap on their number.

    The iterable becomes the tuple :class:`Instance` requires, and the
    Instance checks its own shape.  Substring-freeness is deliberately not
    checked here; use :func:`validate`.
    """
    instance = Instance(strings=tuple(strings), k=k)
    if instance.n > max_strings:
        raise InstanceError(
            f"too many strings: {instance.n} > {max_strings} "
            f"(the subset tables grow as n * 2^n; raise max_strings to override)"
        )
    return instance


def parse_instance(text: str, k: int, *, max_strings: int = DEFAULT_MAX_STRINGS) -> Instance:
    """Parse the line-oriented text format into an Instance.

    One string per non-empty, non-comment line; ``#``-prefixed lines are
    ignored; trailing line terminators are stripped; order is preserved.
    """
    strings = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        strings.append(line)
    return make_instance(strings, k, max_strings=max_strings)


def serialize_instance(instance: Instance) -> str:
    """Render an instance back into the text format (one string per line)."""
    return "".join(s + "\n" for s in instance.strings)


def validate(instance: Instance) -> list[tuple[int, int]]:
    """Every pair (a, b) with strings[a] inside strings[b], a != b; empty means valid.

    A direct substring scan is run for every ordered pair, in index order;
    equal strings give a pair in both directions.  No string is empty (the
    Instance refused it), so none is trivially contained.
    """
    strings = instance.strings
    return [(a, b) for a, sa in enumerate(strings) for b, sb in enumerate(strings) if a != b and sa in sb]
