"""_IndexedClusters == repeated update_clusters, exactly.

``build_clusters`` now grows the Alg. 2 structure through an
inverted-index builder (O(touched) per insertion instead of O(clusters));
these tests pin the equivalence down to append order and request-set
contents against the direct reference transcription, which stays
exported as the oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import Cluster, _IndexedClusters, update_clusters

OFFER_IDS = tuple(f"o{j}" for j in range(8))

best_sets = st.lists(
    st.frozensets(st.sampled_from(OFFER_IDS), min_size=0, max_size=5),
    min_size=1,
    max_size=25,
)


def _reference(insertions):
    clusters = []
    for i, best in enumerate(insertions):
        update_clusters(clusters, f"r{i}", best)
    return clusters


def _indexed(insertions):
    builder = _IndexedClusters()
    for i, best in enumerate(insertions):
        builder.insert(f"r{i}", best)
    return builder.clusters


def _shape(clusters):
    return [(c.offer_ids, sorted(c.request_ids)) for c in clusters]


@settings(max_examples=300, deadline=None)
@given(best_sets)
def test_indexed_builder_matches_reference(insertions):
    assert _shape(_indexed(insertions)) == _shape(_reference(insertions))


def test_subset_superset_folding():
    # A chain a ⊂ ab ⊂ abc inserted out of order: superset requests must
    # fold into subsets, intersections must materialize once.
    insertions = [
        frozenset({"o0", "o1", "o2"}),
        frozenset({"o0", "o1"}),
        frozenset({"o1", "o2", "o3"}),
        frozenset({"o0", "o1"}),
        frozenset({"o0"}),
    ]
    assert _shape(_indexed(insertions)) == _shape(_reference(insertions))


def test_empty_best_set_ignored():
    builder = _IndexedClusters()
    builder.insert("r0", frozenset())
    assert builder.clusters == []


def test_intersection_seeded_with_host_requests():
    insertions = [
        frozenset({"o0", "o1", "o2"}),
        frozenset({"o1", "o2", "o3"}),
    ]
    indexed = _indexed(insertions)
    reference = _reference(insertions)
    assert _shape(indexed) == _shape(reference)
    by_key = {c.offer_ids: c for c in indexed}
    assert by_key[frozenset({"o1", "o2"})].request_ids == {"r0", "r1"}


def test_duplicate_cluster_objects_never_created():
    insertions = [frozenset({"o0", "o1"})] * 4 + [frozenset({"o0", "o2"})] * 3
    indexed = _indexed(insertions)
    keys = [c.offer_ids for c in indexed]
    assert len(keys) == len(set(keys))
    assert _shape(indexed) == _shape(_reference(insertions))


# ------------------------------------------------------------------ plans
#
# ``insert`` keeps, per distinct ``best``, what it derived from the
# cluster list's offer sets (position, subsets, strict supersets,
# intersections that already exist) until the next ``_append``.  Streams
# that repeat a few keys — as a zone market's requests do — interleaved
# with new keys, new intersections and supersets must still leave the
# reference's list after *every* insert.

#: few distinct keys over few offers: repeats, overlaps and nestings
repeating_streams = st.lists(
    st.sampled_from(
        [
            frozenset({"o0", "o1", "o2"}),
            frozenset({"o0", "o1"}),
            frozenset({"o1", "o2"}),
            frozenset({"o1", "o2", "o3"}),
            frozenset({"o0", "o1", "o2", "o3"}),
            frozenset({"o2", "o3", "o4"}),
            frozenset({"o4"}),
            frozenset({"o5", "o6"}),
        ]
    )
    | st.frozensets(st.sampled_from(OFFER_IDS), min_size=1, max_size=4),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(repeating_streams)
def test_plans_leave_the_reference_list_after_every_insert(insertions):
    builder = _IndexedClusters()
    reference = []
    for i, best in enumerate(insertions):
        builder.insert(f"r{i}", best)
        update_clusters(reference, f"r{i}", best)
        assert _shape(builder.clusters) == _shape(reference)


def test_a_repeated_best_set_reuses_its_plan_until_the_next_append():
    builder = _IndexedClusters()
    abc, bcd = frozenset({"o0", "o1", "o2"}), frozenset({"o1", "o2", "o3"})
    builder.insert("r0", abc)  # appends abc, then keeps the plan it derived
    assert builder.plans_reused == 0 and abc in builder._plans
    for i in (1, 2, 3):
        builder.insert(f"r{i}", abc)
    assert builder.plans_reused == 3
    # A new key appends twice (itself, then its intersection with abc):
    # every plan is dropped, abc's included — bc is now one of its
    # subsets — and bcd's own is not kept, since deriving it appended.
    builder.insert("r4", bcd)
    assert builder._plans == {}
    builder.insert("r5", abc)  # derived afresh against the longer list
    assert builder.plans_reused == 3 and abc in builder._plans
    builder.insert("r6", abc)
    builder.insert("r7", bcd)  # bcd's first repeat derives, joining bc
    builder.insert("r8", bcd)
    assert builder.plans_reused == 5
    insertions = [abc] * 4 + [bcd, abc, abc, bcd, bcd]
    assert _shape(builder.clusters) == _shape(_reference(insertions))
    by_key = {c.offer_ids: c for c in builder.clusters}
    assert by_key[frozenset({"o1", "o2"})].request_ids == {
        f"r{i}" for i in range(9)
    }
