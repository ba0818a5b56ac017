"""Subset labels and colexicographic ranking of m-subsets of {1, ..., n}.

Every subset-labelled graph family in this package indexes its vertices by
the colex rank implemented here, so rank/unrank is a frozen contract:
rank 0 is {1, ..., m} and rank C(n, m) - 1 is {n-m+1, ..., n}, and rank
order is ascending mask order.  Ground sets are capped at 64 elements so a
subset always fits in one mask word.
"""

from __future__ import annotations

from math import comb
from operator import attrgetter

MAX_GROUND_SET = 64


class _Value:
    """Base of the package's immutable values.

    A subclass names its fields in order in ``__match_args__``, which the
    repr shows, and the fields that equality and the hash read in ``_key``,
    an ``operator.attrgetter`` of them.  Its ``__init__`` sets each field
    once through ``object.__setattr__``; after that no attribute can be set
    or deleted.  Values of different classes never compare equal.  The
    subclasses declare no ``__slots__``, so each keeps an instance dict,
    where cached views and search records live outside the fields.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


def binomial(n: int, m: int) -> int:
    """Exact C(n, m) for 0 <= m <= n <= 64.

    Out-of-range arguments are rejected rather than clamped; the 64 cap
    matches the one-word subset representation used everywhere else.
    """
    if not 0 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size must be in 0..{MAX_GROUND_SET}, got {n}")
    if not 0 <= m <= n:
        raise ValueError(f"subset size must be in 0..{n}, got {m}")
    return comb(n, m)


class SubsetLabel(_Value):
    """A subset of the ground set {1, ..., n}, stored as a bit mask.

    Bit i-1 of ``mask`` is set exactly when element i is present.  The
    ground set size travels with the label so complements are well defined.
    """

    __match_args__ = ("n", "mask")
    _key = attrgetter(*__match_args__)

    def __init__(self, n: int, mask: int) -> None:
        if not 1 <= n <= MAX_GROUND_SET:
            raise ValueError(f"ground set size must be in 1..{MAX_GROUND_SET}, got {n}")
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask:#x} does not fit a {n}-element ground set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @property
    def m(self) -> int:
        return self.mask.bit_count()

    @classmethod
    def from_elements(cls, n: int, elements) -> "SubsetLabel":
        """Build a label from 1-based elements."""
        mask = 0
        for e in elements:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} outside ground set 1..{n}")
            mask |= 1 << (e - 1)
        return cls(n, mask)

    @classmethod
    def parse(cls, text: str, n: int) -> "SubsetLabel":
        """Parse the text form, e.g. ``{1,2,5}``.  ``{}`` is the empty set."""
        s = text.strip()
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"subset text must be brace-delimited, got {text!r}")
        body = s[1:-1].strip()
        if not body:
            return cls(n, 0)
        try:
            elements = [int(part) for part in body.split(",")]
        except ValueError:
            raise ValueError(f"malformed subset text {text!r}") from None
        label = cls.from_elements(n, elements)
        if label.m != len(elements):
            raise ValueError(f"repeated element in subset text {text!r}")
        return label

    def elements(self) -> tuple[int, ...]:
        """1-based elements in ascending order."""
        return tuple(i + 1 for i in range(self.n) if (self.mask >> i) & 1)

    def complement(self) -> "SubsetLabel":
        return SubsetLabel(self.n, self.mask ^ ((1 << self.n) - 1))

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements()) + "}"


def intersection_size(a: SubsetLabel, b: SubsetLabel) -> int:
    """Popcount of the intersection; both labels must share a ground set."""
    if a.n != b.n:
        raise ValueError(f"mismatched ground sets: {a.n} vs {b.n}")
    return (a.mask & b.mask).bit_count()


def rank_subset(s: SubsetLabel) -> int:
    """Colex rank of s among all subsets of its size.

    The rank is the combinatorial number system value: the sum of
    C(e, i+1) over the 0-based elements e in ascending order.
    """
    rank = 0
    index = 1
    mask = s.mask
    while mask:
        low = mask & -mask
        rank += comb(low.bit_length() - 1, index)
        index += 1
        mask ^= low
    return rank


def unrank_subset(rank: int, n: int, m: int) -> SubsetLabel:
    """Inverse of rank_subset for m-subsets of {1, ..., n}."""
    total = binomial(n, m)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside 0..{total - 1} for C({n},{m})")
    mask = 0
    remaining = rank
    c = n - 1
    for i in range(m, 0, -1):
        while comb(c, i) > remaining:
            c -= 1
        mask |= 1 << c
        remaining -= comb(c, i)
        c -= 1
    return SubsetLabel(n, mask)
