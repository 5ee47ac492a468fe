"""Search, rerank, and IR metrics against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtembed.model import Embedding
from vtembed.retrieval import (
    CandidateIndex,
    EvaluationError,
    IndexStateError,
    RankedResult,
    load_qrels,
    ndcg_at_5,
    ndcg_at_k,
    precision_at_1,
    recall_at_k,
    rerank_topk,
    save_qrels,
    save_results,
    search,
)

INV_LOG2_3 = 0.6309297535714575  # 1 / log2(3), frozen from mpmath dps=50


def _index(rng, n=12, d=8):
    m = rng.normal(0, 1, (n, d))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    return CandidateIndex(ids=[f"c{i:03d}" for i in range(n)], matrix=m)


def _unit(rng, d=8):
    v = rng.normal(0, 1, d)
    return v / np.linalg.norm(v)


class TestSearch:
    def test_matches_brute_force(self, rng):
        idx = _index(rng, n=30)
        for _ in range(20):
            q = _unit(rng)
            got = search(idx, q, k=7)
            scores = idx.matrix @ q
            expect = sorted(range(30), key=lambda i: (-scores[i], idx.ids[i]))[:7]
            assert got.ids == [idx.ids[i] for i in expect]
            assert np.allclose(got.scores, [scores[i] for i in expect], atol=1e-12)

    def test_self_retrieval_scores_one(self, rng):
        idx = _index(rng)
        got = search(idx, idx.matrix[4], k=1)
        assert got.ids[0] == "c004"
        assert abs(got.scores[0] - 1.0) <= 1e-12

    def test_ties_break_ascending_id(self):
        m = np.tile([1.0, 0.0], (4, 1))
        idx = CandidateIndex(ids=["z", "a", "m", "b"], matrix=m)
        got = search(idx, np.array([1.0, 0.0]), k=4)
        assert got.ids == ["a", "b", "m", "z"]

    def test_empty_index(self):
        idx = CandidateIndex(ids=[], matrix=np.zeros((0, 0)))
        with pytest.raises(IndexStateError):
            search(idx, np.zeros(4), k=1)

    def test_k_too_large(self, rng):
        with pytest.raises(ValueError):
            search(_index(rng, n=3), _unit(rng), k=4)

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_k_below_one_rejected(self, rng, k):
        """k=-1 used to slice off the last id and return the other N-1."""
        with pytest.raises(ValueError, match=f"k={k}"):
            search(_index(rng, n=3), _unit(rng), k=k)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_lexsort_matches_python_key_sort(self, seed, n, distinct):
        """Rows drawn from `distinct` unit vectors, so scores tie often,
        under shuffled ids: the order is the old Python key sort's."""
        rng = np.random.default_rng(seed)
        rows = rng.normal(0, 1, (distinct, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        ids = [f"c{i}" for i in rng.permutation(n) * 7]
        idx = CandidateIndex(ids=ids, matrix=rows[rng.integers(distinct, size=n)])
        q = rows[0] if rng.random() < 0.5 else _unit(rng, d=3)
        k = int(rng.integers(1, n + 1))
        scores = idx.matrix @ q
        oracle = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[:k]
        got = search(idx, q, k=k)
        assert got.ids == [ids[i] for i in oracle]
        assert got.scores == [float(scores[i]) for i in oracle]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CandidateIndex(ids=["a", "a"], matrix=np.eye(2))

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError, match="unit-norm"):
            CandidateIndex(ids=["a"], matrix=np.array([[2.0, 0.0]]))

    @pytest.mark.parametrize("ids, n_rows", [(["a", "b"], 3), (["a", "b", "c"], 2),
                                             (["a"], 0)])
    def test_row_count_must_match_ids(self, ids, n_rows):
        with pytest.raises(ValueError, match=f"{n_rows} rows for {len(ids)} ids"):
            CandidateIndex(ids=ids, matrix=np.eye(3)[:n_rows])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        """A NaN row passed the unit-norm check (|nan - 1| > tol is False)."""
        m = np.eye(3)
        m[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            CandidateIndex(ids=["a", "b", "c"], matrix=m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        """A NaN query made every score NaN and ranked by id, silently."""
        idx = CandidateIndex(ids=["z", "a", "m"], matrix=np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            search(idx, np.array([bad, 0.0, 0.0]), k=3)

    def test_build_from_embeddings(self, rng):
        embs = [Embedding(source_id=f"e{i}", vector=_unit(rng)) for i in range(3)]
        idx = CandidateIndex.build(embs)
        assert idx.ids == ["e0", "e1", "e2"]


class TestRerank:
    def test_membership_preserved(self, rng):
        idx = _index(rng, n=20)
        base = search(idx, _unit(rng), k=10)
        out = rerank_topk(base, lambda cid: rng.normal(), k_rerank=5)
        assert sorted(out.ids[:5]) == sorted(base.ids[:5])
        assert out.ids[5:] == base.ids[5:]
        assert out.stage == "reranked"

    def test_oracle_scorer_puts_target_first(self, rng):
        idx = _index(rng, n=20)
        base = search(idx, _unit(rng), k=10)
        target = base.ids[3]
        out = rerank_topk(base, lambda cid: 1.0 if cid == target else 0.0)
        assert out.ids[0] == target

    def test_double_rerank_rejected(self, rng):
        idx = _index(rng)
        out = rerank_topk(search(idx, _unit(rng), k=6), lambda cid: 0.0)
        with pytest.raises(ValueError):
            rerank_topk(out, lambda cid: 0.0)

    def test_k_rerank_too_large(self, rng):
        base = search(_index(rng), _unit(rng), k=3)
        with pytest.raises(ValueError):
            rerank_topk(base, lambda cid: 0.0, k_rerank=4)


def _metric_oracle(results, qrels, k):
    """Independent per-query P@1 / NDCG@k / recall@k, hand-rolled."""
    import math
    p1 = dcgs = rec = 0.0
    for r in results:
        rel = qrels[r.query_id]
        p1 += 1.0 if rel.get(r.ids[0], 0) > 0 else 0.0
        dcg = 0.0
        for rank, cid in enumerate(r.ids[:k]):
            dcg += (2 ** rel.get(cid, 0) - 1) / math.log2(rank + 2)
        ideal = sorted(rel.values(), reverse=True)[:k]
        idcg = sum((2 ** g - 1) / math.log2(rank + 2) for rank, g in enumerate(ideal))
        dcgs += dcg / idcg if idcg else 0.0
        good = {c for c, g in rel.items() if g > 0}
        rec += len(good & set(r.ids[:k])) / len(good)
    n = len(results)
    return p1 / n, dcgs / n, rec / n


class TestMetrics:
    def test_thousand_random_instances_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):  # 100 batches x 10 queries
            results, qrels = [], {}
            for qi in range(10):
                qid = f"q{qi}"
                cids = [f"c{j}" for j in rng.permutation(8)]
                results.append(RankedResult(qid, cids, list(np.linspace(1, 0, 8))))
                qrels[qid] = {f"c{j}": int(rng.integers(0, 3)) for j in range(8)}
                qrels[qid][cids[0]] = max(qrels[qid][cids[0]],
                                          int(rng.integers(0, 2)))
                if not any(g > 0 for g in qrels[qid].values()):
                    qrels[qid]["c0"] = 1
            p1, nd, rc = _metric_oracle(results, qrels, 5)
            assert abs(precision_at_1(results, qrels) - p1) <= 1e-12
            assert abs(ndcg_at_5(results, qrels) - nd) <= 1e-12
            assert abs(recall_at_k(results, qrels, 5) - rc) <= 1e-12

    def test_single_relevant_at_rank_2(self):
        """One graded item at rank 2 -> NDCG = 1/log2(3)."""
        results = [RankedResult("q", ["a", "b", "c"], [3.0, 2.0, 1.0])]
        qrels = {"q": {"b": 1}}
        assert abs(ndcg_at_5(results, qrels) - INV_LOG2_3) <= 1e-12
        assert precision_at_1(results, qrels) == 0.0

    def test_perfect_ranking(self):
        results = [RankedResult("q", ["a", "b"], [2.0, 1.0])]
        qrels = {"q": {"a": 2, "b": 1}}
        assert precision_at_1(results, qrels) == 1.0
        assert abs(ndcg_at_5(results, qrels) - 1.0) <= 1e-12

    def test_permutation_of_results_list_invariant(self, rng):
        results = [RankedResult(f"q{i}", [f"c{j}" for j in rng.permutation(4)],
                                [4.0, 3.0, 2.0, 1.0]) for i in range(6)]
        qrels = {f"q{i}": {"c0": 1, "c2": 2} for i in range(6)}
        rev = list(reversed(results))
        assert precision_at_1(results, qrels) == precision_at_1(rev, qrels)
        assert abs(ndcg_at_5(results, qrels) - ndcg_at_5(rev, qrels)) <= 1e-12

    def test_empty_results_error(self):
        with pytest.raises(EvaluationError):
            precision_at_1([], {})
        with pytest.raises(EvaluationError):
            ndcg_at_k([], {}, 5)

    def test_missing_query_error(self):
        results = [RankedResult("ghost", ["a"], [1.0])]
        with pytest.raises(EvaluationError, match="ghost"):
            precision_at_1(results, {"other": {"a": 1}})

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_metrics_bounded(self, seed):
        rng = np.random.default_rng(seed)
        cids = [f"c{j}" for j in rng.permutation(6)]
        results = [RankedResult("q", cids, sorted(rng.normal(0, 1, 6), reverse=True))]
        qrels = {"q": {f"c{j}": int(rng.integers(0, 3)) for j in range(6)}}
        qrels["q"]["c1"] = max(1, qrels["q"]["c1"])
        for value in (precision_at_1(results, qrels), ndcg_at_5(results, qrels),
                      recall_at_k(results, qrels, 3)):
            assert 0.0 <= value <= 1.0 + 1e-12


class TestPersistence:
    def test_qrels_roundtrip(self, tmp_path):
        qrels = {"q1": {"a": 2, "b": 0}, "q0": {"c": 1}}
        p = tmp_path / "qrels.tsv"
        save_qrels(p, qrels)
        assert load_qrels(p) == qrels

    def test_results_roundtrip_exact_scores(self, tmp_path, rng):
        results = [RankedResult(f"q{i}", ["a", "b"], list(rng.normal(0, 1, 2)),
                                "embed_only") for i in range(3)]
        p = tmp_path / "run.tsv"
        save_results(p, results)
        rows = [line.split("\t") for line in p.read_text().splitlines()]
        assert rows == [[r.query_id, str(rank), cid, repr(float(score)), r.stage]
                        for r in results
                        for rank, (cid, score) in enumerate(zip(r.ids, r.scores), start=1)]
        back = [float(row[3]) for row in rows]
        assert back == [s for r in results for s in r.scores]  # repr() roundtrips exactly

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("q1\ta\t1\nq1\tonly-two\n")
        with pytest.raises(EvaluationError, match="2"):
            load_qrels(p)
