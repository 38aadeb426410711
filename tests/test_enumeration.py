"""Domain enumeration: counts, order, determinism, spec round-trips."""

import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclass.enumeration import (
    ElementOrder,
    Rankings,
    cardinality,
    element_to_str,
    enumerate_domain,
    format_domain,
    parse_domain,
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
                        spec = parse_domain(f"contingency:N={collection},R={relevant},n={lo}..{hi}")
                        assert cardinality(spec) == looped, (collection, relevant, lo, hi)

    def test_user_closed_form_matches_the_loop(self):
        for known in range(1, 13):
            for max_retrieved in range(1, 20):
                looped = sum(
                    a - rk + 1
                    for a in range(1, max_retrieved + 1)
                    for rk in range(0, min(known, a) + 1)
                )
                spec = parse_domain(f"user:U={known},A=1..{max_retrieved}")
                assert cardinality(spec) == looped, (known, max_retrieved)

    def test_leveled_count_matches_the_recursion(self):
        @lru_cache(maxsize=None)
        def looped(remaining, need):  # level sequences of exactly `remaining` documents
            if remaining == 0:
                return 1 if need <= 0 else 0
            return sum(
                looped(remaining - size, max(0, need - rel))
                for size in range(1, remaining + 1)
                for rel in range(0, size + 1)
            )

        for docs in range(1, 11):
            for need in range(1, 12):
                expected = sum(looped(m, need) for m in range(1, docs + 1))
                spec = parse_domain(f"leveled:docs={docs},s={need}")
                assert cardinality(spec) == expected, (docs, need)

    @pytest.mark.parametrize("text", SPEC_STRINGS + [
        "binary:L=3..9,R=4", "graded:levels=4,L=2..6,rel=3", "leveled:docs=9,s=3",
    ])
    def test_capped_count_is_exact_or_a_lower_bound_above_the_cap(self, text):
        spec = parse_domain(text)
        exact = cardinality(spec)
        for cap in sorted({*range(-1, exact + 2, max(1, exact // 60)), exact - 1, exact}):
            got = cardinality(spec, cap)
            if exact <= cap:
                assert got == exact, (cap, got)
            else:
                assert cap < got <= exact, (cap, got)

    @pytest.mark.parametrize("measure,domain", [
        ("recall", "contingency:N=3000000,R=5"),
        ("novelty-ratio", "user:U=1,A=1..3000000"),
        ("ap", "binary:L=15000"),
        ("ap", "binary:L=1..200000"),
        ("esl", "leveled:docs=1500,s=1"),
        ("ap", "binary:L=1..20000000,R=0"),
        pytest.param("novelty-ratio", f"user:U=1,A=1..{'9' * 1500}", id="user-1500-digit-A"),
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

    def test_leveled_walk_skips_outputs_short_of_the_need(self):
        # 2^14 elements among about 10^8 level sequences of up to 15 documents
        import time

        start = time.perf_counter()
        outputs = list(enumerate_domain(parse_domain("leveled:docs=15,s=15")))
        assert len(outputs) == 2**14
        assert all(out.total_relevant == 15 for out in outputs)
        assert time.perf_counter() - start < 2.0

    def test_seeded_shuffle_same_multiset(self):
        plain = list(enumerate_domain(parse_domain("binary:L=4")))
        shuffled = list(enumerate_domain(parse_domain("binary:L=4,seed=9")))
        again = list(enumerate_domain(parse_domain("binary:L=4,seed=9")))
        assert shuffled == again  # deterministic
        assert shuffled != plain
        assert sorted(r.items for r in shuffled) == sorted(r.items for r in plain)

    @pytest.mark.parametrize("text", [
        "binary:L=1..4,R=2,N=6,seed=9", "graded:levels=3,L=3,seed=2",
        "contingency:N=12,R=4,seed=5", "user:U=2,A=1..5,seed=1", "leveled:docs=4,s=1,seed=3",
    ])
    def test_seeded_order_is_the_shuffled_lexicographic_order(self, text):
        spec = parse_domain(text)
        elements = list(spec.elements())
        random.Random(spec.order_seed).shuffle(elements)
        assert list(enumerate_domain(spec)) == elements
        order = ElementOrder(spec)
        positions = range(len(elements))
        assert order.labels_at(*positions) == [element_to_str(e) for e in elements]

    @pytest.mark.parametrize("text", [
        "binary:L=1..4", "binary:L=5,R=2", "binary:L=5,R=3,rel=2", "binary:L=3,R=0",
        "graded:levels=3,L=1..3,R=2", "graded:levels=4,L=3,rel=1",
    ])
    def test_pruned_walk_matches_filtered_product(self, text):
        spec = parse_domain(text)
        expected = []
        for length in spec.lengths:
            for combo in product(spec.scheme.labels, repeat=length):
                rel = sum(1 for x in combo if x != spec.scheme.labels[0])
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

    def test_many_grades_are_refused_before_any_is_built(self, monkeypatch):
        from metriclass.intrinsic import induced_order
        from metriclass.measures import measure_from_id
        from metriclass.model import GradeScheme

        def refuse(levels):
            raise AssertionError(f"built a scheme of {levels} grades")

        monkeypatch.setattr(GradeScheme, "equispaced", staticmethod(refuse))
        spec = parse_domain("graded:levels=100000,L=2")
        assert format_domain(spec) == "graded:levels=100000,L=2,R=2,N=4"
        with pytest.raises(DomainTooLargeError):
            induced_order(measure_from_id("ap"), spec)

    def test_cap_refusal_reports_cardinality(self):
        with pytest.raises(DomainTooLargeError) as err:
            list(enumerate_domain(parse_domain("binary:L=10"), cap=1000))
        assert err.value.cardinality == 1024
        assert err.value.cap == 1000


@st.composite
def rankings_specs(draw):
    """Small rankings spec strings: R below, at or above L, R=0, rel= and seeds."""
    levels = draw(st.integers(2, 4))
    lo = draw(st.integers(1, 6))
    hi = draw(st.integers(lo, 6))
    r = draw(st.integers(0, hi + 1))
    text = ("binary:" if levels == 2 else f"graded:levels={levels},") + f"L={lo}..{hi},R={r}"
    rel = draw(st.none() | st.integers(0, min(r, hi)))  # rel > lo leaves lengths empty
    if rel is not None:
        text += f",rel={rel}"
    seed = draw(st.none() | st.integers(0, 99))
    return text if seed is None else f"{text},seed={seed}"


@st.composite
def count_tuple_specs(draw):
    """Small contingency and user spec strings, empty rows and seeds included."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 9))
        r = draw(st.integers(0, n))
        lo = draw(st.integers(0, n))
        text = f"contingency:N={n},R={r},n={lo}..{draw(st.integers(lo, n))}"
    else:
        text = f"user:U={draw(st.integers(1, 4))},A=1..{draw(st.integers(1, 6))}"
    seed = draw(st.none() | st.integers(0, 99))
    return text if seed is None else f"{text},seed={seed}"


class TestRows:
    @settings(max_examples=100, deadline=None)
    @given(count_tuple_specs())
    @example("contingency:N=0,R=0")
    @example("contingency:N=6,R=6,n=2..4")
    def test_rows_expand_to_the_count_tuples(self, text):
        spec = parse_domain(text)
        expanded = [tuple(c + i * d for c, d in zip(first, spec.delta))
                    for first, m in spec.rows() for i in range(m)]
        assert all(m > 0 for _, m in spec.rows())
        assert expanded == list(spec.count_tuples())


class TestLabelsAt:
    @settings(max_examples=150, deadline=None)
    @given(rankings_specs())
    @example("binary:L=1..6,R=5,rel=4")
    @example("graded:levels=4,L=2..5,R=3,rel=3,seed=7")
    @example("graded:levels=3,L=1..4,R=0")
    @example("binary:L=3..6,R=2,rel=0,seed=1")
    def test_unranked_labels_are_the_arranged_labels(self, text):
        spec = parse_domain(text)
        order = ElementOrder(spec)
        arranged = list(order.arrange(spec.labels()))
        assert order.labels_at(*range(len(arranged))) == arranged
        for position in (0, len(arranged) // 2, len(arranged) - 1)[:len(arranged)]:
            assert order.labels_at(position) == [arranged[position]]

    def test_rankings_unrank_without_walking(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("labels_at walked the domain")

        monkeypatch.setattr(Rankings, "walk", refuse)
        spec = parse_domain("binary:L=20")
        first, millionth = ElementOrder(spec).labels_at(0, 10**6)
        assert first == "<" + ",".join("0" * 20) + ">"
        assert millionth == "<" + ",".join(format(10**6, "020b")) + ">"
        with pytest.raises(IndexError):
            spec.labels_at([2**20])

    @settings(max_examples=150, deadline=None)
    @given(count_tuple_specs())
    @example("contingency:N=8,R=3,n=2..6,seed=4")
    @example("user:U=2,A=1..5")
    def test_count_tuple_labels_are_unranked_from_rows(self, text):
        spec = parse_domain(text)
        order = ElementOrder(spec)
        arranged = list(order.arrange(spec.labels()))
        assert order.labels_at(*range(len(arranged))) == arranged
        labels = list(spec.labels())
        assert spec.labels_at([len(labels) - 1, 0, 0]) == [labels[-1], labels[0], labels[0]]
        with pytest.raises(IndexError):
            spec.labels_at([len(labels)])

    def test_count_tuples_unrank_without_walking(self, monkeypatch):
        spec = parse_domain("contingency:N=3000,R=1000")

        def refuse(*args, **kwargs):
            raise AssertionError("labels_at walked the domain")

        monkeypatch.setattr(type(spec), "count_tuples", refuse)
        assert spec.labels_at([0, 2_003_000]) == ["tp=0,fp=0,fn=1000,tn=2000",
                                                 "tp=1000,fp=2000,fn=0,tn=0"]

    def test_other_kinds_walk_to_the_last_index(self):
        spec = parse_domain("leveled:docs=4,s=2")
        labels = list(spec.labels())
        assert spec.labels_at([7, 2, 7]) == [labels[7], labels[2], labels[7]]


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
                again = spec.element(element_to_str(element))
                assert again == element
