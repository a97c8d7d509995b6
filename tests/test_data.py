"""Loader validation, join semantics, and round-trip identity for persisted formats."""

from __future__ import annotations

import json
import re
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragtrim.data import (
    AnnotatedTriplet,
    CompressionLabel,
    DataError,
    QAExample,
    RankedDocument,
    RetrievalSet,
    join_dataset,
    load_examples,
    load_retrievals,
    load_triplets,
    save_examples,
    save_retrievals,
    save_triplets,
)
from helpers import make_example, make_retrieval


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class TestLoadExamples:
    def test_direct_field_mapping(self, tmp_path):
        p = tmp_path / "ex.jsonl"
        write_jsonl(
            p, [{"id": "q1", "query": "who wrote Hamlet", "answers": ["William Shakespeare", "Shakespeare"]}]
        )
        examples = load_examples(p)
        assert examples[0].id == "q1"
        assert len(examples[0].gold_answers) == 2

    def test_empty_answers_rejected_with_line(self, tmp_path):
        p = tmp_path / "ex.jsonl"
        write_jsonl(p, [{"id": "q1", "query": "q", "answers": []}])
        with pytest.raises(DataError, match="ex.jsonl line 1: gold_answers empty"):
            load_examples(p)

    def test_duplicate_id_rejected_with_line(self, tmp_path):
        p = tmp_path / "ex.jsonl"
        write_jsonl(
            p,
            [
                {"id": "q1", "query": "a", "answers": ["x"]},
                {"id": "q2", "query": "b", "answers": ["y"]},
                {"id": "q1", "query": "c", "answers": ["z"]},
            ],
        )
        with pytest.raises(DataError, match="ex.jsonl line 3: duplicate id q1"):
            load_examples(p)

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "ex.jsonl"
        p.write_text('{"id": "q1", "query": "a", "answers": ["x"]}\n{oops\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_examples(p)

    def test_missing_field_named(self, tmp_path):
        p = tmp_path / "ex.jsonl"
        write_jsonl(p, [{"id": "q1", "query": "a"}])
        with pytest.raises(DataError, match="answers"):
            load_examples(p)

    def test_conversational_history_parsed(self, tmp_path):
        p = tmp_path / "ex.jsonl"
        write_jsonl(
            p,
            [
                {
                    "id": "c1",
                    "query": "and when",
                    "answers": ["1912"],
                    "history": [["user", "tell me about the ship"], ["assistant", "it sank"]],
                }
            ],
        )
        examples = load_examples(p, format="conversational")
        assert examples[0].history == (("user", "tell me about the ship"), ("assistant", "it sank"))
        # qa format ignores history
        assert load_examples(p, format="qa")[0].history is None

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "ex.jsonl"
        write_jsonl(p, [{"id": "q1", "query": "a", "answers": ["x"]}])
        with pytest.raises(DataError):
            load_examples(p, format="tsv")


class TestLoadRetrievals:
    def test_ranks_assigned_in_order(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(
            p,
            [
                {
                    "query_id": "q1",
                    "docs": [
                        {"doc_id": "d1", "text": "a", "score": 0.9},
                        {"doc_id": "d2", "text": "b", "score": 0.7},
                        {"doc_id": "d3", "text": "c", "score": 0.5},
                    ],
                }
            ],
        )
        retrievals = load_retrievals(p)
        assert [d.rank for d in retrievals["q1"].docs] == [1, 2, 3]

    def test_score_increase_warns_but_loads(self, tmp_path, caplog):
        p = tmp_path / "r.jsonl"
        write_jsonl(
            p,
            [
                {
                    "query_id": "q1",
                    "docs": [
                        {"doc_id": "d1", "text": "a", "score": 0.5},
                        {"doc_id": "d2", "text": "b", "score": 0.9},
                    ],
                }
            ],
        )
        with caplog.at_level("WARNING"):
            retrievals = load_retrievals(p)
        assert [d.rank for d in retrievals["q1"].docs] == [1, 2]
        assert any("increase" in rec.message for rec in caplog.records)

    def test_five_docs_gives_n_five(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(
            p,
            [
                {
                    "query_id": "q1",
                    "docs": [
                        {"doc_id": f"d{i}", "text": f"t{i}", "score": 1.0 - 0.1 * i}
                        for i in range(5)
                    ],
                }
            ],
        )
        assert load_retrievals(p)["q1"].n == 5

    def test_empty_docs_rejected(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"query_id": "q1", "docs": []}])
        with pytest.raises(DataError, match="empty retrieval set"):
            load_retrievals(p)

    def test_duplicate_query_id_rejected(self, tmp_path):
        p = tmp_path / "r.jsonl"
        row = {"query_id": "q1", "docs": [{"doc_id": "d", "text": "t", "score": 1.0}]}
        write_jsonl(p, [row, row])
        with pytest.raises(DataError, match="duplicate query_id"):
            load_retrievals(p)

    @pytest.mark.parametrize("doc, message", [
        (5, "docs[1] must be dict, got 5"),
        ({"doc_id": "d", "text": 5, "score": 0.5}, "docs[1].text must be str, got 5"),
        ({"doc_id": "d", "text": "t", "score": "high"},
         'docs[1].score must be float, got "high"'),
        ({"doc_id": "d", "text": "t", "score": True}, "docs[1].score must be float, got true"),
        ({"doc_id": "d", "text": "t", "score": float("nan")},
         "docs[1].score must be a finite float, got NaN"),
        ({"doc_id": "d", "text": "t", "score": float("-inf")},
         "docs[1].score must be a finite float, got -Infinity"),
    ], ids=["not-an-object", "text-not-a-string", "score-a-string", "score-a-bool",
            "score-nan", "score-minus-infinity"])
    def test_malformed_document_names_its_line(self, tmp_path, doc, message):
        p = tmp_path / "r.jsonl"
        good = {"doc_id": "d", "text": "t", "score": 1.0}
        write_jsonl(p, [{"query_id": "q1", "docs": [good]}, {"query_id": "q2", "docs": [good, doc]}])
        with pytest.raises(DataError, match=re.escape(f"r.jsonl line 2: {message}")):
            load_retrievals(p)


GOOD_EXAMPLE = {"id": "q0", "query": "who wrote it", "answers": ["x"]}
GOOD_TRIPLET = {"example_id": "q0", "query_id": "q0", "label": 1, "generator": "g"}

# (case id, loader, the file's rows, what the DataError says after "in.jsonl line 2: ")
FILE_DEFECTS = [
    ("example-int-id", load_examples, [GOOD_EXAMPLE, {**GOOD_EXAMPLE, "id": 7}],
     "id must be str, got 7"),
    ("example-int-query", load_examples, [GOOD_EXAMPLE, {**GOOD_EXAMPLE, "id": "q1", "query": 5}],
     "query must be str, got 5"),
    ("example-null-query", load_examples,
     [GOOD_EXAMPLE, {**GOOD_EXAMPLE, "id": "q1", "query": None}], "query must be str, got null"),
    ("history-turn-a-string", partial(load_examples, format="conversational"),
     [GOOD_EXAMPLE, {**GOOD_EXAMPLE, "id": "q1", "history": [["user", "hi"], "ab"]}],
     'history[1] must be list, got "ab"'),
    ("triplet-null-generator", load_triplets,
     [GOOD_TRIPLET, {**GOOD_TRIPLET, "generator": None}], "generator must be str, got null"),
]


@pytest.mark.parametrize("load, rows, message", [case[1:] for case in FILE_DEFECTS],
                         ids=[case[0] for case in FILE_DEFECTS])
def test_wrong_json_type_is_a_data_error_naming_file_line_and_key(tmp_path, load, rows, message):
    """A value of the wrong JSON type is rejected, never converted to the field's type."""
    p = tmp_path / "in.jsonl"
    write_jsonl(p, rows)
    with pytest.raises(DataError, match=re.escape(f"in.jsonl line 2: {message}")):
        load(p)


class TestTypes:
    def test_ranks_must_be_contiguous(self):
        docs = (
            RankedDocument(doc_id="a", text="x", score=1.0, rank=1),
            RankedDocument(doc_id="b", text="y", score=0.9, rank=3),
        )
        with pytest.raises(DataError, match="contiguous"):
            RetrievalSet(query_id="q", docs=docs)

    def test_label_roundtrip_values(self):
        assert CompressionLabel.keep(3).to_json() == 3
        assert CompressionLabel.unanswerable().to_json() == "unanswerable"
        assert CompressionLabel.from_json(3) == CompressionLabel.keep(3)
        assert CompressionLabel.from_json("unanswerable").is_unanswerable

    def test_unknown_label_token(self):
        with pytest.raises(DataError, match="unknown label token"):
            CompressionLabel.from_json("maybe")
        with pytest.raises(DataError):
            CompressionLabel.from_json(2.5)

    def test_negative_label_rejected(self):
        with pytest.raises(DataError):
            CompressionLabel.keep(-1)


class TestJoin:
    def test_full_join(self):
        examples = [make_example(id=f"q{i}", query=f"what {i}", answers=("x",)) for i in range(10)]
        retrievals = {e.id: make_retrieval(query_id=e.id) for e in examples}
        joined = join_dataset(examples, retrievals)
        assert len(joined) == 10
        assert joined.dropped_ids == []

    def test_partial_join_reports_drops(self):
        examples = [make_example(id=f"q{i}", query=f"what {i}", answers=("x",)) for i in range(10)]
        retrievals = {e.id: make_retrieval(query_id=e.id) for e in examples[:8]}
        joined = join_dataset(examples, retrievals)
        assert len(joined) == 8
        assert joined.dropped_ids == ["q8", "q9"]

    def test_order_follows_example_file(self):
        examples = [make_example(id=i, query=f"what {i}", answers=("x",)) for i in ["z", "a", "m"]]
        retrievals = {e.id: make_retrieval(query_id=e.id) for e in examples}
        joined = join_dataset(examples, retrievals)
        assert [e.id for e, _ in joined] == ["z", "a", "m"]

    def test_disjoint_ids_error(self):
        examples = [make_example(id="q1")]
        with pytest.raises(DataError, match="no joinable examples"):
            join_dataset(examples, {"other": make_retrieval(query_id="other")})


class TestTripletRoundTrip:
    def test_keep_label(self, tmp_path):
        p = tmp_path / "t.jsonl"
        t = AnnotatedTriplet("q1", "q1", CompressionLabel.keep(3), "mock:abc")
        save_triplets(p, [t])
        assert json.loads(p.read_text().splitlines()[0])["label"] == 3
        assert load_triplets(p) == [t]

    def test_unanswerable_label(self, tmp_path):
        p = tmp_path / "t.jsonl"
        t = AnnotatedTriplet("q1", "q1", CompressionLabel.unanswerable(), "mock:abc")
        save_triplets(p, [t])
        assert json.loads(p.read_text().splitlines()[0])["label"] == "unanswerable"
        assert load_triplets(p) == [t]

    def test_label_exceeding_n_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"example_id": "q1", "query_id": "q1", "label": 7, "generator": "g"}])
        retrievals = {"q1": make_retrieval(query_id="q1", texts=["a"] * 5)}
        with pytest.raises(DataError, match="label exceeds N"):
            load_triplets(p, retrievals)

    def test_unknown_token_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [{"example_id": "q1", "query_id": "q1", "label": "nope", "generator": "g"}])
        with pytest.raises(DataError, match="unknown label token"):
            load_triplets(p)


ids = st.integers(min_value=0, max_value=999).map(lambda i: f"q{i}")
words = st.lists(st.sampled_from(["cat", "dog", "tree", "42"]), min_size=1, max_size=4).map(" ".join)


@given(
    st.dictionaries(
        ids, st.tuples(words, st.lists(words, min_size=1, max_size=3)), min_size=1, max_size=6
    )
)
def test_examples_roundtrip_identity(tmp_path_factory, records):
    examples = [
        QAExample(id=i, query=q, gold_answers=tuple(answers))
        for i, (q, answers) in sorted(records.items())
    ]
    path = tmp_path_factory.mktemp("rt") / "ex.jsonl"
    save_examples(path, examples)
    assert load_examples(path) == examples


@given(
    st.lists(
        st.tuples(words, st.floats(min_value=0, max_value=1, allow_nan=False)),
        min_size=1,
        max_size=5,
    )
)
def test_retrievals_roundtrip_identity(tmp_path_factory, doc_specs):
    doc_specs.sort(key=lambda t: -t[1])  # keep file score-ordered: no warnings
    retrieval = make_retrieval(
        query_id="q1", texts=[t for t, _ in doc_specs], scores=[s for _, s in doc_specs]
    )
    path = tmp_path_factory.mktemp("rt") / "r.jsonl"
    save_retrievals(path, {"q1": retrieval})
    assert load_retrievals(path) == {"q1": retrieval}


def test_triplets_roundtrip_identity(tmp_path):
    triplets = [
        AnnotatedTriplet("q1", "q1", CompressionLabel.keep(0), "g"),
        AnnotatedTriplet("q2", "q2", CompressionLabel.keep(5), "g"),
        AnnotatedTriplet("q3", "q3", CompressionLabel.unanswerable(), "g"),
    ]
    path = tmp_path / "t.jsonl"
    save_triplets(path, triplets)
    assert load_triplets(path) == triplets
