"""The record types: construction, equality, hash, order, repr, immutability
and validation errors, pinned independently of how the classes are made."""

import copy
import pickle
from fractions import Fraction

import pytest

from clusterperm.cache import cached_cluster_counts
from clusterperm.clusters import Cluster, ClusterTable, cluster_counts
from clusterperm.equivalence import PatternBijection, Theorem13Report
from clusterperm.graph import (
    Edge,
    EdgeLabel,
    NotReducedError,
    OverlapGraph,
    PatternCollection,
)
from clusterperm.monotone import OdeEquation, OdePolyTerm, OdeSystem, OdeTerm
from clusterperm.perms import DomainError

PC = PatternCollection(((1, 3, 2),))
LABEL = EdgeLabel((1,), (2,), 3)
EDGE = Edge((1,), (1,), LABEL, (1, 3, 2))
TERM = OdeTerm(0, 1, 2, (1,))
EQUATION = OdeEquation((1,), 2, (TERM,))

EDGE_REPR = (
    "Edge(source=(1,), target=(1,), label=EdgeLabel(mu_i=(1,), mu_f=(2,), "
    "length=3), pattern=(1, 3, 2))"
)
GRAPH_REPR = (
    "OverlapGraph(collection=PatternCollection(patterns=((1, 3, 2),)), "
    f"vertices=((1,),), edges=({EDGE_REPR},))"
)

# (type, field names, field values, a changed value of the first field,
# repr)
RECORDS = [
    (PatternCollection, ("patterns",), (((1, 3, 2),),), ((1, 2, 3),),
     "PatternCollection(patterns=((1, 3, 2),))"),
    (EdgeLabel, ("mu_i", "mu_f", "length"), ((1,), (2,), 3), (2,),
     "EdgeLabel(mu_i=(1,), mu_f=(2,), length=3)"),
    (Edge, ("source", "target", "label", "pattern"),
     ((1,), (1,), LABEL, (1, 3, 2)), (1, 2), EDGE_REPR),
    (OverlapGraph, ("collection", "vertices", "edges"), (PC, ((1,),), (EDGE,)),
     PatternCollection(((1, 2, 3),)), GRAPH_REPR),
    (Cluster, ("sigma", "patterns", "offsets"), ((1, 3, 2), ((1, 3, 2),), (1,)),
     (2, 1), "Cluster(sigma=(1, 3, 2), patterns=((1, 3, 2),), offsets=(1,))"),
    (ClusterTable, ("collection", "n_max", "q_max", "rows", "_engine"),
     (PC, 3, 2, [[], [1], [], [0, 1]], None),
     PatternCollection(((1, 2, 3),)),
     "ClusterTable(collection=PatternCollection(patterns=((1, 3, 2),)), "
     "n_max=3, q_max=2, rows=[[], [1], [], [0, 1]])"),
    (OdeTerm, ("a", "b", "c", "target"), (0, 1, 2, (1,)), 1,
     "OdeTerm(a=0, b=1, c=2, target=(1,))"),
    (OdeEquation, ("vertex", "order", "terms"), ((1,), 2, (TERM,)), (1, 2),
     "OdeEquation(vertex=(1,), order=2, terms=(OdeTerm(a=0, b=1, c=2, "
     "target=(1,)),))"),
    (OdeSystem, ("equations", "boundary"),
     ((EQUATION,), {(1,): ([1],)}), (),
     "OdeSystem(equations=(OdeEquation(vertex=(1,), order=2, terms=(OdeTerm("
     "a=0, b=1, c=2, target=(1,)),)),), boundary={(1,): ([1],)})"),
    (OdePolyTerm, ("coeff", "t_power", "pre_degree", "a", "b", "c", "target"),
     (Fraction(1, 2), 1, 0, 0, 1, 2, (1,)), Fraction(1, 3),
     "OdePolyTerm(coeff=Fraction(1, 2), t_power=1, pre_degree=0, a=0, b=1, "
     "c=2, target=(1,))"),
    (PatternBijection, ("pairs",), ((((1, 2), (2, 1)),),), (((1, 2), (1, 2)),),
     "PatternBijection(pairs=(((1, 2), (2, 1)),))"),
    (Theorem13Report, ("ok", "failures"), (True, ()), False,
     "Theorem13Report(ok=True, failures=())"),
]
IDS = [r[0].__name__ for r in RECORDS]


def _changed(cls, values, first):
    """The field values with the first one changed; a cluster's other fields
    follow its permutation, so that it stays a cluster."""
    if cls is Cluster:
        return first, (first,), (1,)
    return (first, *values[1:])


@pytest.mark.parametrize("cls, names, values, changed, text", RECORDS, ids=IDS)
def test_construction_equality_and_repr(cls, names, values, changed, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for x in (by_position, by_keyword):
        assert tuple(getattr(x, name) for name in names) == values
        assert repr(x) == text
    assert by_position == by_keyword
    assert not by_position != by_keyword
    other = cls(*_changed(cls, values, changed))
    assert by_position != other
    assert not by_position == other


@pytest.mark.parametrize("cls, names, values, changed, text", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, names, values, changed, text):
    x = cls(*values)
    try:
        expected = hash(values)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == expected
    values = _changed(cls, values, changed)
    assert hash(cls(*values)) == hash(values)


@pytest.mark.parametrize("cls, names, values, changed, text", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, names, values, changed, text):
    x = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, changed)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == values[names.index(name)]


def test_tables_of_one_request_are_equal_whatever_engine_filled_them(tmp_path):
    # 14253 takes the refined engine, which each table keeps in ``_engine``;
    # only the public fields, the ones the repr shows, are the table's value
    coll = PatternCollection(((1, 4, 2, 5, 3),))
    first, second = cluster_counts(coll, 8, 3), cluster_counts(coll, 8, 3)
    assert first._engine is not None and first._engine is not second._engine
    assert first == second and not first != second
    cold = cached_cluster_counts(coll, 8, 3, tmp_path)
    hit = cached_cluster_counts(coll, 8, 3, tmp_path)
    assert hit._engine is None and cold._engine is not None
    assert hit == cold == first
    rows = [row[:] for row in first.rows]
    rows[8] += [0] * (4 - len(rows[8]))
    rows[8][3] += 1
    assert hit != ClusterTable(coll, 8, 3, rows)


def test_list_built_records_store_the_tuples_they_checked():
    # a list-built collection once kept its list, so (1) was not seen as the
    # one pattern and no record built from lists hashed or equalled its twin
    for pats in ([(1,)], [(1, 3, 2, 4)]):
        tuples, lists = PatternCollection(tuple(pats)), PatternCollection(pats)
        assert cluster_counts(lists, 6, 6).rows == cluster_counts(tuples, 6, 6).rows
    assert cluster_counts(PatternCollection([[1]]), 3, 3).rows == [[], [1, 1], [], []]
    twins = [
        (PatternCollection([[1, 3, 2]]), PC),
        (Cluster([1, 3, 2], [[1, 3, 2]], [1]), Cluster((1, 3, 2), ((1, 3, 2),), (1,))),
        (PatternBijection([([1, 2], [2, 1])]), PatternBijection((((1, 2), (2, 1)),))),
    ]
    for built, twin in twins:
        assert built == twin and hash(built) == hash(twin), twin
    with pytest.raises(DomainError, match=r"duplicate pattern \(1, 2\)"):
        PatternCollection([[1, 2], [1, 2]])


# the records made on ``graph._Record``; the last table keeps its engine
REDUCIBLE = [
    PC,
    Cluster((1, 3, 2), ((1, 3, 2),), (1,)),
    PatternBijection((((1, 2), (2, 1)),)),
    ClusterTable(PC, 3, 2, [[], [1], [], [0, 1]]),
    cluster_counts(PatternCollection(((1, 4, 2, 5, 3),)), 8, 3),
]


@pytest.mark.parametrize("record", REDUCIBLE, ids=lambda r: type(r).__name__)
def test_copies_and_pickles_are_equal_records(record):
    for other in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(other) is type(record) and other == record


def test_unpickling_rebuilds_through_init():
    class Edited:  # pickles as PC does, with its patterns replaced
        def __reduce__(self):
            cls, _ = PC.__reduce__()
            return cls, (((1, 2), (1, 2, 3)),)

    with pytest.raises(NotReducedError):
        pickle.loads(pickle.dumps(Edited()))


def test_labels_and_terms_sort_by_their_field_tuples():
    labels = [EdgeLabel((2,), (1,), 3), EdgeLabel((1,), (2,), 4),
              EdgeLabel((1,), (2,), 3), EdgeLabel((1, 2), (1,), 3)]
    assert sorted(labels) == [labels[2], labels[1], labels[3], labels[0]]
    assert EdgeLabel((1,), (2,), 3) < EdgeLabel((1,), (3,), 1)
    assert EdgeLabel((1,), (2,), 3) <= EdgeLabel((1,), (2,), 3)
    assert EdgeLabel((2,), (1,), 1) > EdgeLabel((1,), (9,), 9)
    assert str(labels[3]) == "({1,2},{1};3)"
    terms = [OdeTerm(1, 0, 0, (1,)), OdeTerm(0, 2, 1, (1, 2)),
             OdeTerm(0, 2, 1, (1,)), OdeTerm(0, 1, 5, (1,))]
    assert sorted(terms) == [terms[3], terms[2], terms[1], terms[0]]
    assert max(terms) is terms[0]


def test_report_truth_is_its_ok_field():
    assert Theorem13Report(True, ())
    assert not Theorem13Report(False, ("x",))


@pytest.mark.parametrize("patterns, error, text", [
    ((), DomainError, "empty pattern collection"),
    (((1, 2), (1, 2)), DomainError, "duplicate pattern (1, 2)"),
    (((1, 2), (1, 2, 3)), NotReducedError, "collection not reduced: (1, 2) divides (1, 2, 3)"),
    (((1, 1),), DomainError, "not a permutation of 1..2: (1, 1)"),
])
def test_collection_errors(patterns, error, text):
    with pytest.raises(error) as info:
        PatternCollection(patterns)
    assert str(info.value) == text
    if error is NotReducedError:
        assert (info.value.divisor, info.value.multiple) == ((1, 2), (1, 2, 3))


@pytest.mark.parametrize("args, text", [
    (((1, 3, 2), (), ()), "cluster needs q >= 1 patterns with matching offsets"),
    (((1, 3, 2), ((1, 2),), (1, 2)), "cluster needs q >= 1 patterns with matching offsets"),
    (((1, 3, 2), ((1, 2),), (2,)), "first offset must be 1"),
    (((2, 1, 3), ((1, 2, 3),), (1,)), "window 1 is not an occurrence of (1, 2, 3)"),
    (((1, 2, 3), ((1, 2), (1, 2)), (1, 3)), "adjacent occurrences must overlap"),
    (((1, 3, 2), ((1, 2),), (1,)), "cluster must be completely covered"),
    (((1, 1), ((1,),), (1,)), "not a permutation of 1..2: (1, 1)"),
])
def test_cluster_errors(args, text):
    with pytest.raises(DomainError) as info:
        Cluster(*args)
    assert str(info.value) == text


@pytest.mark.parametrize("pairs", [
    (((1,), (2, 1)), ((1,), (1, 2))),
    (((1, 2), (1,)), ((2, 1), (1,))),
])
def test_bijection_errors(pairs):
    with pytest.raises(DomainError) as info:
        PatternBijection(pairs)
    assert str(info.value) == "mapping is not a bijection"
