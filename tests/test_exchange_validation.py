"""Base-exchange validation of explicit base lists against the plain triple
loop and the element-by-element loop, independence against "is a subset of
some base", and validation done once per parsed catalog entry, in its batch."""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcmb import matroids as matroids_mod
from gcmb.catalog import CatalogEntry, parse_catalog, parse_indicator_file
from gcmb.errors import UsageError
from gcmb.matroids import EXPLICIT_VALIDATE_MAX, ExplicitMatroid

from oracles import validate_exchange_loop


def plain_validate(base_frozen):
    """The exchange check as a triple loop over frozensets (test oracle)."""
    for a_set in base_frozen:
        for b_set in base_frozen:
            for a in a_set - b_set:
                if not any((a_set - {a}) | {b} in base_frozen for b in b_set - a_set):
                    raise UsageError(
                        f"base exchange axiom fails: no swap for element {a} of "
                        f"{tuple(sorted(a_set))} toward {tuple(sorted(b_set))}"
                    )


def outcome(check):
    try:
        check()
    except UsageError as exc:
        return str(exc)
    return None


@st.composite
def base_families(draw):
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, n))
    subsets = list(itertools.combinations(range(n), r))
    if draw(st.booleans()):
        # all r-subsets but a few: uniform matroids and near misses
        dropped = draw(st.sets(st.sampled_from(subsets), max_size=3))
        family = [s for s in subsets if s not in dropped]
    else:
        family = draw(st.lists(st.sampled_from(subsets), min_size=1, unique=True))
    return n, family


@settings(max_examples=200, deadline=None)
@given(base_families())
def test_validator_matches_plain_loop(family):
    n, bases = family
    try:
        m = ExplicitMatroid(n, bases, trust=True)  # structural checks only
    except UsageError:
        assume(False)
    assert outcome(lambda: ExplicitMatroid(n, bases)) == outcome(
        lambda: plain_validate(tuple(map(frozenset, m.base_list)))
    )
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            expected = any(set(subset) <= set(b) for b in bases)
            assert m.is_independent(subset) == expected


@st.composite
def base_lists(draw):
    """Random base lists up to the validation limit, n = 0 and r = 0 included;
    about a third of them fail the exchange axiom."""
    n = draw(st.integers(0, EXPLICIT_VALIDATE_MAX))
    r = draw(st.integers(0, n))
    if draw(st.booleans()):
        subsets = list(itertools.combinations(range(n), r))
        family = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=40, unique=True))
    else:
        base = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True) if n else st.just([])
        family = draw(st.lists(base, min_size=1, max_size=40))
    # cover every element, so that the list has no loops
    others = [[e, *[x for x in range(n) if x != e][: r - 1]] for e in range(n)]
    family += [b for b in others if r and not any(b[0] in c for c in family)]
    return n, family


@settings(max_examples=300, deadline=None)
@given(base_lists())
def test_table_validator_matches_element_loop(family):
    n, bases = family
    try:
        m = ExplicitMatroid(n, bases, trust=True)  # structural checks only
    except UsageError:
        assume(False)
    assert outcome(lambda: ExplicitMatroid(n, bases)) == outcome(lambda: validate_exchange_loop(m))


def test_empty_ground_set_validates():
    m = ExplicitMatroid(0, [()])
    assert (m.base_list, m.full_rank) == (((),), 0)
    assert outcome(lambda: validate_exchange_loop(m)) is None


def test_parsed_entry_is_not_validated_again(monkeypatch):
    calls = []
    original = matroids_mod._adopt_base_lists

    def counting(items, trust):
        calls.extend(n for _, n, _ in items)
        return original(items, trust)

    monkeypatch.setattr(matroids_mod, "_adopt_base_lists", counting)
    (entry,) = parse_catalog("u24 4 2 0,1;0,2;0,3;1,2;1,3;2,3\n")
    (imported,) = parse_indicator_file("n 4\nr 2\nu24 111111\n")
    assert len(calls) == 2
    assert entry.matroid() is entry.matroid()
    assert imported.matroid() is imported.matroid()
    assert len(calls) == 2
    assert entry == imported and hash(entry) == hash(imported)
    by_hand = CatalogEntry(entry.id, entry.n, entry.r, entry.bases)
    assert by_hand == entry
    by_hand.matroid()
    assert len(calls) == 3
