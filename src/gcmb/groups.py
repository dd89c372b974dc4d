"""Finite abelian groups in invariant-factor form.

A group is described by its invariant factors m_1 | m_2 | ... | m_r; elements
are residue vectors added componentwise.  Specs parsed from strings such as
"Z4" or "Z2xZ6" are canonicalized to this form (so "Z2xZ3" becomes "Z6").
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal, Optional, Sequence

import numpy as np

from .errors import CapacityError, UsageError, magnitude, quote

_SPEC_TOKEN = re.compile(r"^[zZ](\d+)$")

#: Largest group order gcmb builds.  Isolation scans count bases per group
#: value and solves walk |G|-long signatures, so both grow with |G|; groups
#: past the limit are refused when they are built, before any factoring.
GROUP_TABLE_LIMIT = 4096


def _check_order(factors: Sequence[int]) -> None:
    order = math.prod(factors)
    if order > GROUP_TABLE_LIMIT:
        raise CapacityError(
            f"group order {magnitude(order)} exceeds the limit |G| <= {GROUP_TABLE_LIMIT} "
            f"(GROUP_TABLE_LIMIT)"
        )


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariant_factors(factors: Sequence[int]) -> tuple[int, ...]:
    """Canonicalize arbitrary cyclic factor orders to invariant-factor form.

    Collects the prime-power components of every factor and regroups them so
    that each invariant factor divides the next (fundamental theorem of
    finite abelian groups).
    """
    for m in factors:
        if m < 2:
            raise UsageError(f"cyclic factor must be >= 2, got {m}")
    _check_order(factors)
    by_prime: dict[int, list[int]] = {}
    for m in factors:
        for p, e in _factorize(m).items():
            by_prime.setdefault(p, []).append(p**e)
    if not by_prime:
        return ()
    for powers in by_prime.values():
        powers.sort(reverse=True)
    depth = max(len(v) for v in by_prime.values())
    out = []
    for i in range(depth):
        m = 1
        for powers in by_prime.values():
            if i < len(powers):
                m *= powers[i]
        out.append(m)
    out.reverse()
    return tuple(out)


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z_{m_1} x ... x Z_{m_r} with m_1 | m_2 | ... | m_r."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, m in enumerate(self.invariant_factors):
            if m < 2:
                raise UsageError(f"invariant factor must be >= 2, got {m}")
            if i > 0 and m % self.invariant_factors[i - 1] != 0:
                raise UsageError(
                    f"invariant factors must form a divisibility chain, got "
                    f"{self.invariant_factors}"
                )
        _check_order(self.invariant_factors)

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Parse a spec string like "Z4" or "Z2xZ2" (case-insensitive).

        Factor lists that are not a divisibility chain are canonicalized, so
        "Z2xZ3" parses to the same group as "Z6".
        """
        parts = [p for p in text.strip().replace("X", "x").split("x") if p]
        if not parts:
            raise UsageError(f"empty group spec {quote(text)}")
        factors = []
        for part in parts:
            m = _SPEC_TOKEN.match(part.strip())
            if not m:
                raise UsageError(f"bad group spec token {quote(part)} in {quote(text)}")
            digits = m.group(1).lstrip("0")
            if len(digits) > len(str(GROUP_TABLE_LIMIT)):
                # Over the limit on its own.  Refused before int(), which
                # raises ValueError on strings of more than 4300 digits.
                what = "group order" if len(parts) == 1 else "group factor"
                value = digits if len(digits) <= 30 else f"of {len(digits)} digits"
                raise CapacityError(
                    f"{what} {value} exceeds the limit |G| <= {GROUP_TABLE_LIMIT} "
                    f"(GROUP_TABLE_LIMIT)"
                )
            value = int(digits or "0")
            if value == 1:
                continue  # trivial factor contributes nothing
            factors.append(value)
        return cls(_invariant_factors(factors))

    @classmethod
    def of(cls, *factors: int) -> "GroupSpec":
        return cls(_invariant_factors(factors))

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{m}" for m in self.invariant_factors)

    # -- elements: canonical indices, read from and written as text -----------

    def element_at(self, index: int) -> "GroupElement":
        """The element with canonical index `index`, for printing."""
        if not 0 <= index < self.order:
            raise UsageError(f"element index {magnitude(index)} out of range for {self}")
        return GroupElement(self, tuple(col[index] for col, _, _ in arithmetic(self)._parts))

    def parse_index(self, text: str) -> int:
        """The canonical index of the element written as "1,3" (comma-joined
        residues) or as a bare integer for rank-1 groups."""
        parts = [p.strip() for p in text.strip().split(",")]
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise UsageError(f"bad group element {quote(text)} for {self}") from None
        if not self.invariant_factors:
            if values not in ([0], []):
                raise UsageError(f"bad element {quote(text)} for the trivial group")
            return 0
        if len(values) != len(self.invariant_factors):
            raise UsageError(
                f"element {quote(text)} has {len(values)} residues, {self} needs "
                f"{len(self.invariant_factors)}"
            )
        return sum(v % m * p for v, (_, m, p) in zip(values, arithmetic(self)._parts))


class IndexArithmetic:
    """The group law on canonical element indices, and the one code that
    splits an index into residues: index x carries the residue (x // place) % m
    in each invariant factor m, the first factor most significant.  Sums are
    taken factor by factor, so no |G| x |G| table is built; the trivial group
    has no factor, and every sum is 0.  Sets of elements are bitmasks over
    indices, and label sums over numpy arrays are arrays of indices.  Get one
    through `arithmetic(spec)`, which keeps one instance per group.
    """

    def __init__(self, spec: GroupSpec):
        self.order = spec.order
        factors = spec.invariant_factors
        places = [math.prod(factors[i + 1 :]) for i in range(len(factors))]
        # Per factor: the residue of every index, the modulus m and the place p.
        self._parts = tuple(
            (tuple(x // p % m for x in range(self.order)), m, p) for m, p in zip(factors, places)
        )
        self._low_masks: dict[tuple[int, int], tuple[int, int]] = {}  # (f, d) -> (low, width)

    def add(self, a: int, b: int) -> int:
        out = 0
        for col, m, p in self._parts:
            out += (col[a] + col[b]) % m * p
        return out

    def neg(self, a: int) -> int:
        return self.times(a, -1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def times(self, a: int, n: int) -> int:
        """The n-fold sum of element a (n < 0 negates)."""
        out = 0
        for col, m, p in self._parts:
            out += col[a] * n % m * p
        return out

    def total(self, indices: Iterable[int]) -> int:
        """The sum of the listed elements."""
        indices = list(indices)
        out = 0
        for col, m, p in self._parts:
            out += sum(map(col.__getitem__, indices)) % m * p
        return out

    def label(self, counts: Sequence[int]) -> int:
        """The sum over elements x of counts[x] copies of x."""
        out = 0
        for col, m, p in self._parts:
            out += sum(map(operator.mul, counts, col)) % m * p
        return out

    def shift_mask(self, mask: int, a: int) -> int:
        """The set {x + a : x in mask}, sets as bitmasks over indices.  A mask
        wider than |G| bits is a row of such sets, |G| bits each, and every
        set of the row is shifted."""
        for f, (col, m, p) in enumerate(self._parts):
            d = col[a]
            if d:
                # The bits whose residue stays below m, over `width` bits of
                # whole sets; widened, at least doubled, when the mask passes it.
                low, width = self._low_masks.get((f, d), (0, 0))
                if mask >> width:
                    width = max(2 * width, -(-mask.bit_length() // self.order) * self.order)
                    low = ((1 << (m - d) * p) - 1) * (((1 << width) - 1) // ((1 << m * p) - 1))
                    self._low_masks[f, d] = low, width
                mask = (mask & low) << d * p | (mask & ~low) >> (m - d) * p
        return mask

    def label_sums(
        self, incidence: np.ndarray, digits: np.ndarray, shift: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The label index of every incidence row (rows) under every labeling
        (columns), summed over the elements that are the incidence's columns.

        `digits` holds the labelings' element indices, one row per element;
        `shift`, one label index per row, is added to each row's sum.  Per
        invariant factor m, sums are the integer product incidence @ residues
        mod m; residue dtypes fit the largest row sum, so products cannot wrap.
        """
        terms = int(incidence.sum(axis=1).max(initial=0)) + (shift is not None)
        labels = np.zeros((incidence.shape[0], digits.shape[1]), dtype=digits.dtype)
        for _, m, p in self._parts:
            dtype = np.min_scalar_type(max(terms, 1) * m)
            residues = (digits // p % m).astype(dtype)
            sums = np.einsum("be,ec->bc", incidence.astype(dtype), residues)
            if shift is not None:
                sums += (shift // p % m).astype(dtype)[:, None]
            labels += (sums % m).astype(labels.dtype) * p
        return labels

    def differences(self, subtrahends: np.ndarray) -> np.ndarray:
        """The index of v - h for every index h in `subtrahends` and every group
        value v, which indexes a new last axis of length |G|."""
        values = np.arange(self.order, dtype=np.int64)
        rows = np.zeros((*subtrahends.shape, self.order), dtype=np.int64)
        for _, m, p in self._parts:
            rows += (values // p % m - subtrahends[..., None] // p % m) % m * p
        return rows


@lru_cache(maxsize=None)
def arithmetic(spec: GroupSpec) -> IndexArithmetic:
    return IndexArithmetic(spec)


@dataclass(frozen=True)
class GroupElement:
    """An element of a GroupSpec, stored as a reduced residue vector."""

    spec: GroupSpec
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.residues) != len(self.spec.invariant_factors):
            raise UsageError(
                f"residue vector {self.residues} does not match {self.spec}"
            )
        for r, m in zip(self.residues, self.spec.invariant_factors):
            if not 0 <= r < m:
                raise UsageError(f"residue {magnitude(r)} not reduced modulo {m}")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.spec != other.spec:
            raise UsageError(f"cannot add elements of {self.spec} and {other.spec}")
        res = tuple(
            (a + b) % m
            for a, b, m in zip(self.residues, other.residues, self.spec.invariant_factors)
        )
        return GroupElement(self.spec, res)

    def __str__(self) -> str:
        if not self.residues:
            return "0"
        return ",".join(str(r) for r in self.residues)


def _check_set(spec: GroupSpec, mask: int) -> None:
    if mask >> spec.order:
        raise UsageError(f"element set {mask:#x} is not a set of indices of {spec}")


def stabilizer(spec: GroupSpec, image: int) -> int:
    """The subgroup {g : g + F = F} of a set F, sets as bitmasks over
    canonical indices."""
    _check_set(spec, image)
    ar = arithmetic(spec)
    return sum(1 << g for g in range(spec.order) if ar.shift_mask(image, g) == image)


def cosets(spec: GroupSpec, subgroup: int) -> tuple[int, ...]:
    """The cosets of a subgroup, as bitmasks over canonical indices, in the
    order of their least elements: each is the subgroup shifted by the least
    element that no coset before it holds."""
    _check_set(spec, subgroup)
    ar = arithmetic(spec)
    members = (h for h in range(spec.order) if subgroup >> h & 1)
    if not subgroup & 1 or any(ar.shift_mask(subgroup, h) != subgroup for h in members):
        raise UsageError("element set is not closed under the group operation")
    parts, covered = [], 0
    while covered != (1 << spec.order) - 1:
        part = ar.shift_mask(subgroup, (~covered & covered + 1).bit_length() - 1)
        parts.append(part)
        covered |= part
    return tuple(parts)


# -- Davenport constant ----------------------------------------------------


def davenport_lower_bound(spec: GroupSpec) -> int:
    """Sum of (m_i - 1) plus one; equals the Davenport constant for p-groups
    and for groups with at most two invariant factors."""
    return sum(m - 1 for m in spec.invariant_factors) + 1


def _formula_applies(spec: GroupSpec) -> bool:
    if len(spec.invariant_factors) <= 2:
        return True
    primes = set()
    for m in spec.invariant_factors:
        primes.update(_factorize(m))
    return len(primes) == 1  # p-group


def davenport(spec: GroupSpec) -> int:
    """The Davenport constant D(G): the least L such that every length-L
    sequence over G has a nonempty zero-sum subsequence.

    It is the closed form sum(m_i - 1) + 1, exact for p-groups and for groups
    with at most two invariant factors (Olson 1969); any other group, of
    order 24 or more, is refused.
    """
    if not _formula_applies(spec):
        raise UsageError(
            f"closed-form Davenport constant is only valid for p-groups and "
            f"groups with <= 2 invariant factors; {spec} is neither"
        )
    return davenport_lower_bound(spec)


def closeness_class(spec: GroupSpec) -> Literal["proven", "unproven"]:
    """Whether (|G|-1)-closeness of the group is certified.

    Certified classes: |G| a product of two primes (not necessarily
    distinct), or a cyclic group of prime-power order.  The trivial group is
    certified vacuously.
    """
    n = spec.order
    if n == 1:
        return "proven"
    factorization = _factorize(n)
    total_exponent = sum(factorization.values())
    if total_exponent == 2:  # pq, including p*p
        return "proven"
    if len(factorization) == 1 and len(spec.invariant_factors) == 1:  # cyclic p^n
        return "proven"
    return "unproven"
