"""Domain enumeration: counts, order, determinism, spec round-trips."""

from itertools import product

import pytest

from metriclass.enumeration import (
    DomainSpec,
    cardinality,
    element_from_str,
    element_to_str,
    enumerate_domain,
    format_domain,
    parse_domain,
    partitioned,
)
from metriclass.errors import DomainTooLargeError, ParseError

SPEC_STRINGS = [
    "binary:L=4,R=4,N=8",
    "binary:L=4,R=2,N=6",
    "binary:L=4,R=2,N=6,rel=2",
    "binary:L=3..4,R=4,N=8",
    "graded:levels=3,L=3,R=3,N=6",
    "graded:levels=5,L=4,R=4,N=8",
    "contingency:N=15,R=5,n=5",
    "contingency:N=15,R=5,n=0..15",
    "user:U=1,A=1..4",
    "leveled:docs=4,s=1",
]


class TestCardinality:
    def test_binary_unconstrained(self):
        assert cardinality(parse_domain("binary:L=4")) == 16

    def test_three_grades_cube(self):
        assert cardinality(parse_domain("graded:levels=3,L=3")) == 27

    def test_contingency_fixed_retrieved(self):
        assert cardinality(parse_domain("contingency:N=15,R=5,n=5")) == 6

    def test_binary_long(self):
        assert cardinality(parse_domain("binary:L=10")) == 1024

    def test_contingency_free_retrieved_brute_force(self):
        # independent count: all feasible (tp, fp) with tp <= R, fp <= N - R
        brute = sum(
            1 for tp in range(0, 6) for fp in range(0, 11)
        )
        spec = parse_domain("contingency:N=15,R=5")
        assert cardinality(spec) == brute == 66

    def test_length_range_sums(self):
        assert cardinality(parse_domain("binary:L=3..4")) == 8 + 16

    def test_exact_relevant_counts_combinations(self):
        assert cardinality(parse_domain("binary:L=4,R=2,rel=2")) == 6
        assert cardinality(parse_domain("binary:L=4,R=1,rel=1")) == 4

    def test_leveled_brute_force(self):
        # independent recursive generator over level compositions
        def gen(remaining, acc, out):
            if remaining == 0:
                if sum(r for r, _ in acc) >= 1:
                    out.append(tuple(acc))
                return
            for size in range(1, remaining + 1):
                for rel in range(0, size + 1):
                    acc.append((rel, size - rel))
                    gen(remaining - size, acc, out)
                    acc.pop()

        brute = []
        for total in range(1, 5):
            gen(total, [], brute)
        spec = parse_domain("leveled:docs=4,s=1")
        assert cardinality(spec) == len(brute) == 100

    def test_user_domain(self):
        assert cardinality(parse_domain("user:U=1,A=1..4")) == 24

    def test_contingency_closed_form_matches_the_loop(self):
        for collection in range(0, 13):
            for relevant in range(0, collection + 1):
                nonrel = collection - relevant
                for lo in range(0, collection + 1):
                    for hi in range(lo, collection + 1):
                        looped = sum(
                            max(0, min(relevant, n) - max(0, n - nonrel) + 1)
                            for n in range(lo, hi + 1)
                        )
                        spec = DomainSpec(kind="contingency", collection=collection,
                                          relevant=relevant, retrieved=(lo, hi))
                        assert cardinality(spec) == looped, (collection, relevant, lo, hi)

    def test_user_closed_form_matches_the_loop(self):
        for known in range(1, 13):
            for max_retrieved in range(1, 20):
                looped = sum(
                    a - rk + 1
                    for a in range(1, max_retrieved + 1)
                    for rk in range(0, min(known, a) + 1)
                )
                spec = DomainSpec(kind="user", known=known, max_retrieved=max_retrieved)
                assert cardinality(spec) == looped, (known, max_retrieved)

    @pytest.mark.parametrize("measure,domain", [
        ("recall", "contingency:N=3000000,R=5"),
        ("novelty-ratio", "user:U=1,A=1..3000000"),
    ])
    def test_over_cap_domain_is_refused_without_counting_it_out(self, measure, domain):
        import io
        import time

        from metriclass.cli import run

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = run(["classify", "--measure", measure, "--domain", domain], out=out, err=err)
        took = time.perf_counter() - start
        assert code == 2
        assert "above the cap" in err.getvalue()
        assert took < 0.5


class TestEnumerate:
    @pytest.mark.parametrize("text", SPEC_STRINGS)
    def test_length_matches_cardinality(self, text):
        spec = parse_domain(text)
        assert len(list(enumerate_domain(spec))) == cardinality(spec)

    @pytest.mark.parametrize("text", SPEC_STRINGS)
    def test_duplicate_free(self, text):
        spec = parse_domain(text)
        elements = list(enumerate_domain(spec))
        assert len(set(elements)) == len(elements)

    def test_lexicographic_order(self):
        elements = list(enumerate_domain(parse_domain("binary:L=4")))
        assert elements[0].items == ("0", "0", "0", "0")
        assert elements[1].items == ("0", "0", "0", "1")
        assert elements[-1].items == ("1", "1", "1", "1")

    def test_relevant_constraint_respected(self):
        for ranking in enumerate_domain(parse_domain("binary:L=4,R=2")):
            assert ranking.relevant_count <= 2

    def test_partitions_reassemble_the_stream(self):
        for text in SPEC_STRINGS:
            spec = parse_domain(text)
            whole = list(enumerate_domain(spec))
            parts = partitioned(spec)
            flattened = [el for part in parts for el in part]
            assert flattened == whole

    def test_seeded_shuffle_same_multiset(self):
        plain = list(enumerate_domain(parse_domain("binary:L=4")))
        shuffled = list(enumerate_domain(parse_domain("binary:L=4,seed=9")))
        again = list(enumerate_domain(parse_domain("binary:L=4,seed=9")))
        assert shuffled == again  # deterministic
        assert shuffled != plain
        assert sorted(r.items for r in shuffled) == sorted(r.items for r in plain)

    @pytest.mark.parametrize("text", [
        "binary:L=1..4", "binary:L=5,R=2", "binary:L=5,R=3,rel=2", "binary:L=3,R=0",
        "graded:levels=3,L=1..3,R=2", "graded:levels=4,L=3,rel=1",
    ])
    def test_pruned_walk_matches_filtered_product(self, text):
        spec = parse_domain(text)
        expected = []
        for length in spec.lengths:
            for combo in product(spec.scheme.labels, repeat=length):
                rel = sum(1 for x in combo if spec.scheme.is_relevant(x))
                wanted = spec.exact_relevant
                if rel <= spec.universe.total_relevant and wanted in (None, rel):
                    expected.append(combo)
        assert [r.items for r in enumerate_domain(spec)] == expected

    def test_sparse_domain_is_walked_not_filtered(self):
        # 26 elements out of 2^26 tuples: the pruned walk must not visit the rest
        import io
        import json
        import time

        from metriclass.cli import run

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = run(["classify", "--measure", "rr", "--domain", "binary:L=26,rel=1", "--json"],
                   out=out, err=err)
        took = time.perf_counter() - start
        assert code == 0, err.getvalue()
        verdict = json.loads(out.getvalue())["verdict"]
        assert verdict["elements"] == 26
        assert verdict["category"] == "ordinal/metric"  # 1/r is injective, gaps uneven
        assert took < 2.0

    def test_cap_refusal_reports_cardinality(self):
        with pytest.raises(DomainTooLargeError) as err:
            list(enumerate_domain(parse_domain("binary:L=10"), cap=1000))
        assert err.value.cardinality == 1024
        assert err.value.cap == 1000


class TestSpecText:
    @pytest.mark.parametrize("text", SPEC_STRINGS)
    def test_round_trip(self, text):
        spec = parse_domain(text)
        again = parse_domain(format_domain(spec))
        assert again == spec

    def test_defaults_materialize(self):
        spec = parse_domain("binary:L=4")
        assert format_domain(spec) == "binary:L=4,R=4,N=8"

    def test_malformed_specs_rejected(self):
        for bad in (
            "binary",
            "binary:L=",
            "binary:L=4,L=5",
            "binary:L=4,bogus=1",
            "mystery:L=4",
            "contingency:N=15",
            "user:U=1,A=2..4",
            "leveled:docs=4",
        ):
            with pytest.raises(ParseError):
                parse_domain(bad)

    def test_element_display_round_trip(self):
        for text in SPEC_STRINGS:
            spec = parse_domain(text)
            for element in enumerate_domain(spec):
                again = element_from_str(spec, element_to_str(element))
                assert again == element
