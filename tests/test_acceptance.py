"""Acceptance gate: the thirteen verification checks with their runtime
tolerances.  One PASS/FAIL line is printed per criterion."""

import sys

import numpy as np
import pytest

from tensorforge import tensor, verify
from tensorforge.catalog import catalog_groups_up_to
from tensorforge.presentations import coset_enumerate, table_to_group
from tensorforge.verify import CHECKS, run_verification
from test_groups import column_route, table_route
from test_presentations import same_standardization

# (criterion number, check name, runtime bound in seconds; None = only the
# overall suite bound applies)
TOLERANCES = [
    (1, "Z3xZ3-case1-trivial", 1.0),
    (2, "Z3xZ3-case2-inversion-alpha", 1.0),
    (3, "Z3xZ3-case3-incompatible", 1.0),
    (4, "prop5.3-inversion-AxZ2", 10.0),
    (5, "prop2.2(2)-trivial-actions", 120.0),
    (6, "prop2.2(1)-abelian-tensors", None),
    (7, "theorem1-claim1-necessity", None),
    (8, "theorem1-claim2-induced-beta", None),
    (9, "theorem2-hypercenter-congruence", 720.0),
    (10, "prop5.2-z2-criterion", None),
    (11, "free-group-counterexample", None),
    (12, "heisenberg3-aut-derivative", None),
    (13, "enumerator-round-trip", None),
]

# Rows documented to disagree with the paper: key -> (the paper's value,
# the value the definition gives).  Row 02 is Z3 acting on Z3 with b sent
# to inversion and b^2 to the identity, which is not an action; the
# biderivation relators over all elements (Brown-Loday) force a(x)b = 1,
# so the paper's order 3 cannot come from the definition.  A listed row
# must disagree at exactly these keys; every other row must pass.
DOCUMENTED_DISAGREEMENTS = {2: {"order": (3, 1)}}


@pytest.fixture(scope="module")
def suite():
    """The rows of one suite run by name, the order and the stats of
    every coset enumeration it made, and each distinct presentation it
    enumerated with the first table it got."""
    enumerations = []
    tables = {}

    def counted(presentation, **limits):
        table = coset_enumerate(presentation, **limits)
        enumerations.append((table.ncosets, table.stats))
        tables.setdefault(presentation, table)
        return table

    with pytest.MonkeyPatch.context() as mp:
        for module in (tensor, verify):
            mp.setattr(module, "coset_enumerate", counted)
        rows = run_verification()
    return {r["name"]: r for r in rows}, enumerations, tables


@pytest.fixture(scope="module")
def records(suite):
    return suite[0]


def _announce(number, record, bound):
    verdict = "PASS" if record["passed"] else "FAIL"
    print(f"criterion {number:2d} {verdict} {record['name']:34s} "
          f"{record['seconds']:8.3f} s",
          file=sys.__stdout__, flush=True)
    if bound is not None:
        assert record["seconds"] < bound, \
            f"{record['name']} took {record['seconds']} s (bound {bound})"
    expected, computed = record["expected"], record["computed"]
    message = (f"{record['name']}: expected {expected}, computed {computed}"
               + (f" ({record['detail']})" if record["detail"] else ""))
    documented = DOCUMENTED_DISAGREEMENTS.get(number)
    if documented is None:
        assert record["passed"], message
    else:
        assert expected.keys() == computed.keys(), message
        differing = {key: (expected[key], computed[key]) for key in expected
                     if expected[key] != computed[key]}
        assert differing == documented, message
        assert not record["passed"], message


@pytest.mark.parametrize("number,name,bound", TOLERANCES,
                         ids=[f"criterion-{n:02d}" for n, _, _ in TOLERANCES])
def test_acceptance_criterion(records, capfd, number, name, bound):
    assert name in records, f"missing verification row {name}"
    with capfd.disabled():
        _announce(number, records[name], bound)


def test_suite_names_cover_all_checks(records):
    assert len(CHECKS) == 13
    assert {name for _, name, _ in TOLERANCES} == set(records)


# detail lines that count what a check went through, so that a change to
# how a check finds its cases cannot drop some of them unseen
DETAILS = [
    ("theorem1-claim2-induced-beta", "749 induced pairs built and verified"),
    ("prop5.2-z2-criterion", "506 involutive automorphisms"),
]


@pytest.mark.parametrize("name,detail", DETAILS, ids=[n for n, _ in DETAILS])
def test_suite_detail_lines(records, name, detail):
    assert records[name]["detail"] == detail


def test_suite_enumeration_counts(suite):
    # the enumerator's own counts over the suite.  The representatives
    # and the filter's length groups feed relators and skipped, which a
    # change that leaves the tables alone can still move; skipping a twin
    # moves one scan to skipped, so their sum stays 1,279,759.  Checks 05
    # and 06 compute each unordered pair of groups once: these are 539 of
    # the 975 enumerations of their ordered loops, each with the same
    # stats.
    enumerations = suite[1]
    assert len(enumerations) == 539
    assert sum(order for order, _ in enumerations) == 7_396
    names = ("survivors", "involutions", "relators", "defined",
             "coincidences", "scans", "skipped")
    totals = {name: sum(getattr(stats, name) for _, stats in enumerations)
              for name in names}
    assert totals == {"survivors": 5_424, "involutions": 3_803,
                      "relators": 34_590, "defined": 16_229,
                      "coincidences": 5_307, "scans": 229_733,
                      "skipped": 1_050_026}
    assert totals["scans"] + totals["skipped"] == 1_279_759


def test_suite_closed_scans(suite):
    # the scans that find their length-3 relator closed in three table
    # reads, and so stop there, count in scans too: 136,834 of the
    # suite's 229,733 scans change nothing
    enumerations = suite[1]
    assert all(stats.closed <= stats.scans for _, stats in enumerations)
    assert sum(stats.closed for _, stats in enumerations) == 136_834


def test_suite_tables_match_expanded_standardization(suite):
    # every distinct presentation of the suite: standardizing over the
    # survivors' columns numbers the cosets as standardizing the table
    # expanded to one column pair per letter did
    tables = suite[2]
    assert len(tables) < len(suite[1])
    for presentation, table in tables.items():
        same_standardization(presentation, table)


def test_suite_groups_column_route_matches_table_route(suite):
    # every distinct presentation of the suite: the functions that
    # compute_tensor calls on the product read its coset table's columns
    # and give what they give on its Cayley table
    for table in suite[2].values():
        T = table_to_group(table)[0]
        assert column_route(T) == table_route(T)


def test_suite_total_runtime(records, capfd):
    total = sum(r["seconds"] for r in records.values())
    with capfd.disabled():
        print(f"verification suite total {total:8.3f} s",
              file=sys.__stdout__, flush=True)
    assert total < 300.0


def test_free_counterexample():
    # with phi(x1) = y1 and psi trivial, y2^x1 = y1^-1 y2 y1 is a reduced
    # word different from y2
    record = verify.check_free_counterexample()
    assert record["passed"] and record["computed"] is True


def test_round_trip_check_compares_the_enumerators_own_map(monkeypatch):
    # check 13 reads the image of each generator back from the table; with
    # the images of elements 1 and 2 swapped, exactly the groups in which
    # that swap is no automorphism fail
    read_back = verify.table_to_group

    def swapped(table):
        K, images = read_back(table)
        images[1:3] = images[2:0:-1]
        return K, images
    monkeypatch.setattr(verify, "table_to_group", swapped)
    record = verify.check_enumerator_round_trip()
    want = []
    for key, G in catalog_groups_up_to(27):
        swap = np.arange(G.order)
        swap[1:3] = swap[2:0:-1]
        if not np.array_equal(swap[G.table], G.table[swap[:, None], swap]):
            want.append(key)
    assert record["computed"] == want
    assert "cyclic:3" not in want and "dihedral:4" in want
    assert record["detail"] == "50 catalog groups up to order 27"
