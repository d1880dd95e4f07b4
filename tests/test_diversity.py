import math
import struct
from collections import Counter

import numpy as np
import pytest

from annealplan import diversity
from annealplan.diversity import (
    NgramProfiler,
    profile_corpus,
    read_binary_token_documents,
    read_text_token_documents,
)


def tuple_counts(documents, n):
    # Exact reference: count n-grams as tuples in a plain dictionary.
    counter = Counter()
    for doc in documents:
        doc = list(doc)
        for i in range(len(doc) - n + 1):
            counter[tuple(doc[i : i + n])] += 1
    return counter


def stream_stats(tokens, n):
    """Order-n statistics of one token stream profiled on its own."""
    return profile_corpus([tokens], n).stats(n)


class TestDistinctNgramRatio:
    def test_degenerate_unigrams(self):
        assert stream_stats(["a", "a", "a", "a"], 1).ratio == 0.25

    def test_alternating_bigrams(self):
        assert stream_stats(["a", "b", "a", "b", "a"], 2).ratio == 0.5

    def test_all_distinct_bigrams(self):
        assert stream_stats(["a", "b", "c", "d"], 2).ratio == 1.0

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            stream_stats(["a"], 0)

    def test_integer_tokens(self):
        assert stream_stats([7, 7, 9, 9], 1).ratio == 0.5


class TestNgramEntropy:
    def test_uniform_four_way(self):
        assert stream_stats(["a", "b", "c", "d"], 1).entropy_bits == 2.0

    def test_degenerate(self):
        assert stream_stats(["a", "a", "a", "a"], 1).entropy_bits == 0.0

    def test_uniform_two_way(self):
        assert stream_stats(["a", "a", "b", "b"], 1).entropy_bits == 1.0

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            stream_stats(["a"], 0)


class TestProfileCorpus:
    def test_matches_single_order_ops(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            tokens = rng.integers(0, 16, size=int(rng.integers(50, 10_000))).tolist()
            report = profile_corpus([tokens], 4)
            for n in range(1, 5):
                row = report.stats(n)
                assert row.ratio == stream_stats(tokens, n).ratio
                assert row.entropy_bits == stream_stats(tokens, n).entropy_bits

    def test_empty_corpus(self):
        report = profile_corpus([], 3)
        assert report.token_total == 0
        for n in range(1, 4):
            row = report.stats(n)
            assert row.distinct == 0
            assert row.total == 0
            assert row.ratio == 1.0
            assert row.entropy_bits == 0.0
            assert row.empty

    def test_duplicated_corpus_as_documents(self):
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 8, size=500).tolist()
        once = profile_corpus([tokens], 3)
        twice = profile_corpus([tokens, tokens], 3)
        for n in range(1, 4):
            a, b = once.stats(n), twice.stats(n)
            assert b.distinct == a.distinct
            assert b.total == 2 * a.total
            # Uniform count doubling leaves the distribution unchanged.
            assert b.entropy_bits == a.entropy_bits
            assert b.ratio == a.ratio / 2

    def test_single_document_duplication_halves_unigram_ratio(self):
        rng = np.random.default_rng(12)
        tokens = rng.integers(0, 6, size=200).tolist()
        once = stream_stats(tokens, 1).ratio
        doubled = stream_stats(tokens + tokens, 1).ratio
        assert doubled == once / 2

    def test_boundaries_block_spanning_ngrams(self):
        report = profile_corpus([["a", "b"], ["c"]], 2)
        row = report.stats(2)
        assert row.total == 1  # only "a b"; "b c" spans a boundary
        assert row.distinct == 1
        # Unigrams are unaffected by boundaries.
        assert report.stats(1).total == 3

    def test_single_stream_equivalent_to_concatenation(self):
        docs = [["a", "b"], ["c", "d"], ["b", "a"]]
        merged = [t for doc in docs for t in doc]
        report = profile_corpus([merged], 3)
        for n in range(1, 4):
            assert report.stats(n).total == len(merged) - n + 1

    def test_monotone_total(self):
        rng = np.random.default_rng(8)
        tokens = rng.integers(0, 4, size=777).tolist()
        report = profile_corpus([tokens], 5)
        totals = [report.stats(n).total for n in range(1, 6)]
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_hashed_counts_match_tuple_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_docs = int(rng.integers(1, 4))
            docs = [
                rng.integers(0, int(rng.integers(2, 17)), size=int(rng.integers(0, 1000))).tolist()
                for _ in range(n_docs)
            ]
            n_max = int(rng.integers(1, 5))
            profiler = NgramProfiler(n_max)
            for doc in docs:
                profiler.add_document(doc)
            report = profiler.report()
            for n in range(1, n_max + 1):
                oracle = tuple_counts(docs, n)
                row = report.stats(n)
                assert row.distinct == len(oracle)
                assert row.total == sum(oracle.values())
                got = profiler.counts(n)
                assert got.tolist() == sorted(oracle.values())

    def test_entropy_bounded_by_log_distinct(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            tokens = rng.integers(0, int(rng.integers(2, 30)), size=600).tolist()
            report = profile_corpus([tokens], 3)
            for n in range(1, 4):
                row = report.stats(n)
                if row.distinct:
                    assert row.entropy_bits <= math.log2(row.distinct)

    def test_entropy_equals_bound_iff_uniform(self):
        # Uniform: three distinct unigrams, equal counts.
        uniform = profile_corpus([["a", "b", "c"] * 7], 1).stats(1)
        assert uniform.entropy_bits == pytest.approx(math.log2(3), abs=1e-12)
        # Non-uniform: same support, skewed counts.
        skewed = profile_corpus([["a", "a", "a", "b", "c"]], 1).stats(1)
        assert skewed.entropy_bits < math.log2(3) - 1e-3

    def test_sharded_merge_matches_single_pass(self):
        rng = np.random.default_rng(55)
        docs = [
            [f"tok{t}" for t in rng.integers(0, 40, size=int(rng.integers(10, 400)))]
            for _ in range(30)
        ]
        whole = NgramProfiler(3)
        for doc in docs:
            whole.add_document(doc)
        shards = [NgramProfiler(3) for _ in range(3)]
        for i, doc in enumerate(docs):
            shards[i % 3].add_document(doc)
        merged = shards[0]
        merged.merge(shards[1])
        merged.merge(shards[2])
        expected = whole.report()
        got = merged.report()
        assert got == expected  # bit-identical, entropy included
        for n in range(1, 4):
            assert merged.counts(n).tolist() == whole.counts(n).tolist()

    def test_merge_rejects_mismatched_orders(self):
        with pytest.raises(ValueError, match="n_max"):
            NgramProfiler(2).merge(NgramProfiler(3))

    def test_chunk_boundary_continuity(self):
        # One document big enough to span several internal flushes must
        # count windows crossing flush boundaries exactly once.
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, 64, size=3_000_000).tolist()
        report = profile_corpus([tokens], 3)
        for n in range(1, 4):
            assert report.stats(n).total == len(tokens) - n + 1
        small = profile_corpus([tokens[:5000]], 3)
        oracle = tuple_counts([tokens[:5000]], 2)
        assert small.stats(2).distinct == len(oracle)

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_refilled_array_counts_each_document(self, dtype):
        # Documents stay buffered until a flush, so the profiler must not
        # keep a view of an array its caller refills for the next one.
        rng = np.random.default_rng(17)
        docs = [rng.integers(0, 50, size=8).astype(dtype) for _ in range(200)]
        fresh = NgramProfiler(3)
        refilled = NgramProfiler(3)
        buffer = np.empty(8, dtype=dtype)
        for doc in docs:
            fresh.add_document(doc.copy())
            buffer[:] = doc
            refilled.add_document(buffer)
        assert refilled.report() == fresh.report()
        for n in range(1, 4):
            assert refilled.counts(n).tolist() == fresh.counts(n).tolist()

    def test_string_and_key_documents_interleave(self):
        # String documents are keyed at flush time; documents fed as key
        # arrays in between must keep their place in the stream.
        rng = np.random.default_rng(29)
        docs = [
            [f"tok{t}" for t in rng.integers(0, 20, size=int(rng.integers(1, 30)))]
            for _ in range(60)
        ]
        as_strings = NgramProfiler(3)
        interleaved = NgramProfiler(3)
        for i, doc in enumerate(docs):
            as_strings.add_document(doc)
            interleaved.add_document(text_keys(doc) if i % 3 == 1 else doc)
        assert interleaved.report() == as_strings.report()
        for n in range(1, 4):
            assert interleaved.counts(n).tolist() == as_strings.counts(n).tolist()

    @pytest.mark.filterwarnings("error")
    def test_ids_past_int64_stay_apart(self):
        # numpy reads this list as float64, which merged the two big ids.
        ids = [2**63 + 1, 2**63 + 3, 1]
        report = profile_corpus([ids], 2)
        assert report.stats(1).distinct == 3
        assert report == profile_corpus([np.array(ids, dtype=np.uint64)], 2)

    @pytest.mark.parametrize("tokens", [[2**64, 1], [-(2**63) - 1, 1], [1.5, 2], [2, 1.0]])
    def test_ids_outside_the_key_range_rejected(self, tokens):
        with pytest.raises(ValueError, match=r"integers in \[-2\*\*63, 2\*\*64\)"):
            profile_corpus([tokens], 1)


def mixed_corpus(seed):
    """Integer-list, string-list and id-array documents, a few of them empty."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(150):
        ids = rng.integers(0, 12, size=int(rng.integers(0, 200)))
        docs.append([ids.tolist(), [f"t{t}" for t in ids], ids][i % 3])
    return docs


def profiled(docs, n_max):
    profiler = NgramProfiler(n_max)
    for doc in docs:
        profiler.add_document(doc)
    return profiler


def results(profiler):
    counts = [profiler.counts(n).tolist() for n in range(1, profiler.n_max + 1)]
    return profiler.report(), counts


class TestConsolidation:
    # (flush tokens, consolidation floor) pairs small enough that every
    # order consolidates while documents are still being added.
    SMALL_CONSTANTS = [(997, 1000), (64, 50), (5, 3)]

    @pytest.mark.parametrize("flush, floor", SMALL_CONSTANTS)
    def test_mid_stream_consolidation_matches_one_table(self, monkeypatch, flush, floor):
        docs = mixed_corpus(61)
        expected = results(profiled(docs, 4))
        monkeypatch.setattr(diversity, "_FLUSH_TOKENS", flush)
        monkeypatch.setattr(diversity, "_CONSOLIDATE_FLOOR", floor)
        profiler = profiled(docs, 4)
        assert all(profiler._tables[n] is not None for n in range(1, 5))
        report, counts = results(profiler)
        assert (report, counts) == expected  # bit-identical, entropy included
        for n in range(1, 5):
            oracle = tuple_counts(docs, n)
            assert report.stats(n).total == sum(oracle.values())
            assert counts[n - 1] == sorted(oracle.values())

    @pytest.mark.parametrize("flush, floor", SMALL_CONSTANTS)
    def test_sharded_merge_with_pending_parts(self, monkeypatch, flush, floor):
        docs = mixed_corpus(63)
        expected = results(profiled(docs, 4))
        monkeypatch.setattr(diversity, "_FLUSH_TOKENS", flush)
        monkeypatch.setattr(diversity, "_CONSOLIDATE_FLOOR", floor)
        merged, *others = [profiled(docs[50 * i : 50 * (i + 1)], 4) for i in range(3)]
        for other in others:
            merged._flush()
            other._flush()
            # Some order has raw hashes and a counted table on both sides.
            assert any(
                merged._parts[n] and other._parts[n] and merged._tables[n] and other._tables[n]
                for n in range(1, 5)
            )
            merged.merge(other)
        assert results(merged) == expected


def text_keys(tokens):
    """The keys a profiler gives a list of string tokens."""
    return diversity._string_keys(list(tokens))


def thue_morse(size):
    return "".join("ab"[bin(i).count("1") % 2] for i in range(size))


class TestTextKeys:
    @pytest.mark.parametrize("size", [1 << 10, 1 << 11])
    def test_thue_morse_pair_stays_apart(self, size):
        # A polynomial hash mod 2**64 maps a Thue-Morse string and its
        # complement to one key at these lengths.
        word = thue_morse(size)
        complement = word.translate(str.maketrans("ab", "ba"))
        assert profile_corpus([[word, complement]], 1).stats(1).distinct == 2

    def test_lengths_and_zero_bytes_stay_apart(self):
        tokens = ["", "\0", "\0\0", "a", "a\0", "a" * 7, "a" * 8, "a" * 9, "a" * 16, "a" * 17]
        assert len(set(text_keys(tokens).tolist())) == len(tokens)

    def test_word_order_matters(self):
        assert len(set(text_keys(["abcdefghijklmnop", "ijklmnopabcdefgh"]).tolist())) == 2

    def test_multibyte_strings_match_reader(self, tmp_path):
        # The reader measures tokens in bytes; string lists measure them
        # from code points, and both must give each token the same key.
        tokens = ["é", "a€b", "\U0001d11e", "x", "ÿ" * 9, "あ" * 5]
        path = tmp_path / "corpus.txt"
        path.write_text(" ".join(tokens), encoding="utf-8")
        (doc,) = read_text_token_documents(path)
        assert text_keys(tokens).tolist() == doc.tolist()
        assert text_keys(["", *tokens, ""]).tolist()[1:-1] == doc.tolist()


class TestReaders:
    def test_text_reader(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b c\n\nd e\n", encoding="utf-8")
        docs = list(read_text_token_documents(path))
        assert [d.dtype for d in docs] == [np.uint64] * 3
        assert [d.tolist() for d in docs] == [
            text_keys(["a", "b", "c"]).tolist(), [], text_keys(["d", "e"]).tolist()
        ]

    @pytest.mark.parametrize(
        "separator",
        [chr(c) for c in range(0x110000) if chr(c).isspace()],
        ids=lambda c: f"U+{ord(c):04X}",
    )
    def test_text_reader_splits_like_str_split(self, tmp_path, separator):
        text = (
            f"a{separator}b{separator}{separator}é€{separator}a\n"
            f"{separator}b a{separator}\r\n\n{separator}\n"
            f"x\u2027y\u200b\u00a1{separator}z"
        )
        path = tmp_path / "corpus.txt"
        path.write_bytes(text.encode())
        with open(path, "rb") as handle:
            lines = [line.decode().split() for line in handle]
        assert len(lines) >= 5
        got = profile_corpus(read_text_token_documents(path), 3)
        assert got == profile_corpus(lines, 3)

    def test_text_reader_crosses_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diversity, "_TEXT_BLOCK_BYTES", 5)
        lines = ["alpha beta", "", "gamma\u3000delta epsilon", "é", "zeta eta theta iota"]
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        docs = [d.tolist() for d in read_text_token_documents(path)]
        assert docs == [text_keys(line.split()).tolist() for line in lines]

    def test_text_reader_bad_utf8(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ok tokens\n\xff\xfe broken\n")
        with pytest.raises(ValueError, match="byte offset 10"):
            list(read_text_token_documents(path))

    def test_text_reader_bad_utf8_in_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diversity, "_TEXT_BLOCK_BYTES", 16)
        good = "first line é\n" * 5
        path = tmp_path / "bad.txt"
        path.write_bytes(good.encode() + b"ok \xe2\x80 cut\n")
        offset = len(good.encode()) + 3
        with pytest.raises(ValueError, match=f"byte offset {offset} of"):
            list(read_text_token_documents(path))

    def test_reader_fed_shard_merges_with_list_fed_shard(self, tmp_path):
        rng = np.random.default_rng(23)
        docs = [
            [f"tok{t}" for t in rng.integers(0, 30, size=int(rng.integers(0, 50)))]
            for _ in range(40)
        ]
        path = tmp_path / "shard.txt"
        path.write_text("\n".join(" ".join(d) for d in docs[:20]) + "\n", encoding="utf-8")
        from_file = NgramProfiler(3)
        for doc in read_text_token_documents(path):
            from_file.add_document(doc)
        from_lists = NgramProfiler(3)
        for doc in docs[20:]:
            from_lists.add_document(doc)
        from_file.merge(from_lists)
        whole = NgramProfiler(3)
        for doc in docs:
            whole.add_document(doc)
        assert from_file.report() == whole.report()
        for n in range(1, 4):
            assert from_file.counts(n).tolist() == whole.counts(n).tolist()

    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "corpus.bin"
        docs = [[1, 2, 3], [9, 9]]
        payload = b""
        for doc in docs:
            payload += struct.pack("<I", len(doc)) + struct.pack(f"<{len(doc)}I", *doc)
        path.write_bytes(payload)
        got = [d.tolist() for d in read_binary_token_documents(path)]
        assert got == docs

    def test_binary_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<I", 3) + struct.pack("<I", 1))
        with pytest.raises(ValueError, match="byte offset 0"):
            list(read_binary_token_documents(path))

    def test_binary_truncated_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<I", 1) + struct.pack("<I", 5) + b"\x01\x02")
        with pytest.raises(ValueError, match="byte offset 8"):
            list(read_binary_token_documents(path))
