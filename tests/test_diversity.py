import math
import struct
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_n_max_bounded(self):
        assert stream_stats(list(range(70)), 64).total == 7
        with pytest.raises(ValueError, match="n_max must be <= 64, got 65"):
            NgramProfiler(65)


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


def direct_entropy(counts):
    probabilities = counts / int(counts.sum())
    return float(-(probabilities * np.log2(probabilities)).sum())


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data(), size=st.integers(1, 80), past_the_table_guard=st.booleans())
def test_entropy_table_matches_the_direct_sum(data, size, past_the_table_guard):
    # Counts up to `size` take the per-count-value table; a larger one, the
    # direct formula. Either way every term and the summation order are
    # today's, so every bit of the sum is too.
    largest = 3 * size if past_the_table_guard else size
    counts = data.draw(st.lists(st.integers(1, largest), min_size=size, max_size=size))
    if past_the_table_guard:
        counts[data.draw(st.integers(0, size - 1))] = largest
    counts = np.array(counts, dtype=np.int64)
    total = int(counts.sum())
    assert diversity._entropy_bits(counts, total).hex() == direct_entropy(counts).hex()


@pytest.mark.parametrize("largest", [1, 1000, 100_000, 10**9])
def test_entropy_table_matches_the_direct_sum_on_large_tables(largest):
    rng = np.random.default_rng(largest)
    counts = np.minimum(rng.zipf(1.2, size=100_003), largest).astype(np.int64)
    total = int(counts.sum())
    assert diversity._entropy_bits(counts, total).hex() == direct_entropy(counts).hex()


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

    def test_chunk_boundary_continuity(self):
        # One document longer than a flush is counted in overlapping
        # slices, which must count windows crossing a slice edge once.
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
        # Documents are buffered whole and their order does not matter:
        # string documents keyed at flush time count as the same keys fed
        # as arrays between them.
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

    def test_bool_ids_count_as_0_and_1(self, monkeypatch):
        # A bool array is keyed like the bool list and the 0/1 list, both
        # in a document that fits the flush buffer and in one longer than it.
        monkeypatch.setattr(diversity, "_FLUSH_TOKENS", 4)
        docs = [[True, False, True], [False] * 3 + [True] * 5, [True]]
        expected = profile_corpus([[int(t) for t in doc] for doc in docs], 3)
        assert profile_corpus(docs, 3) == expected
        assert profile_corpus([np.array(doc) for doc in docs], 3) == expected

    @pytest.mark.parametrize("tokens", [[2**64, 1], [-(2**63) - 1, 1], [1.5, 2], [2, 1.0]])
    def test_ids_outside_the_key_range_rejected(self, tokens):
        with pytest.raises(ValueError, match=r"integers in \[-2\*\*63, 2\*\*64\)"):
            profile_corpus([tokens], 1)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (["a", 1], "only str"),
            (("a", b"b"), "only str"),
            (iter(["a", None]), "only str"),
            # Longer than a flush of 4 tokens, bad only past the first 4:
            # the document is counted whole or not at all.
            (["a", "b", "c", "d", "e", 1], "only str"),
            ([1, 2, 3, 4, 5, 2**70], "integers in"),
            # A lone surrogate has no UTF-8 bytes to key at the flush.
            (["ok", "\ud800"], r"'\\ud800' cannot be encoded as UTF-8"),
        ],
        ids=[f"bad{i}" for i in range(6)],
    )
    def test_str_document_with_other_token_rejected_cleanly(self, monkeypatch, bad, message):
        monkeypatch.setattr(diversity, "_FLUSH_TOKENS", 4)
        profiler = NgramProfiler(2)
        profiler.add_document(["x", "y"])
        with pytest.raises(ValueError, match=message):
            profiler.add_document(bad)
        profiler.add_document([3, 4])
        assert profiler.report() == profile_corpus([["x", "y"], [3, 4]], 2)


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

    @pytest.mark.parametrize("flush, floor", [(1 << 20, 4 << 20), *SMALL_CONSTANTS])
    def test_documents_fed_after_a_report_count_like_a_fresh_profiler(
        self, monkeypatch, flush, floor
    ):
        # report() consolidates every order and releases the flush buffer;
        # the documents fed after it must still be buffered, sorted and
        # merged into the tables like any others.
        monkeypatch.setattr(diversity, "_FLUSH_TOKENS", flush)
        monkeypatch.setattr(diversity, "_CONSOLIDATE_FLOOR", floor)
        docs = mixed_corpus(67)
        profiler = profiled(docs[:70], 4)
        profiler.report()
        for doc in docs[70:]:
            profiler.add_document(doc)
        assert results(profiler) == results(profiled(docs, 4))

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
        assert report.token_total == sum(map(len, docs))
        for n in range(1, 5):
            oracle = tuple_counts(docs, n)
            assert report.stats(n).total == sum(oracle.values())
            assert counts[n - 1] == sorted(oracle.values())


# One document as (kind, ids): built afresh by as_document, so a generator
# document can be fed more than once.
DOCUMENT_KINDS = ["int list", "str list", "uint64 array", "int64 array", "generator"]


def as_document(kind, ids):
    if kind == "str list":
        return [f"t{t}" for t in ids]
    if kind.endswith("array"):
        return np.array(ids, dtype=kind.split()[0])
    return iter(ids) if kind == "generator" else list(ids)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    flush=st.integers(1, 8),
    floor=st.integers(1, 8),
    chunk=st.integers(1, 8),
    n_max=st.integers(1, 4),
    specs=st.lists(
        st.tuples(st.sampled_from(DOCUMENT_KINDS), st.lists(st.integers(0, 3), max_size=20)),
        max_size=6,
    ),
)
def test_any_flush_size_counts_like_tuples(flush, floor, chunk, n_max, specs):
    # Long documents are counted in overlapping slices; short ones are
    # buffered whole. Neither may change a count or an entropy bit, nor
    # may consolidating inside one slice's count. Windows are hashed a
    # chunk at a time, so chunk edges fall inside documents, at their
    # ends and in a slice's trailing n_max - 1 keys.
    with mock.patch.multiple(
        diversity, _FLUSH_TOKENS=flush, _CONSOLIDATE_FLOOR=floor, _COUNT_CHUNK=chunk
    ):
        report, counts = results(profiled([as_document(*spec) for spec in specs], n_max))
    assert (report, counts) == results(profiled([as_document(*spec) for spec in specs], n_max))
    docs = [list(as_document(*spec)) for spec in specs]
    assert report.token_total == sum(map(len, docs))
    for n in range(1, n_max + 1):
        oracle = tuple_counts(docs, n)
        assert report.stats(n).distinct == len(oracle)
        assert report.stats(n).total == sum(oracle.values())
        assert counts[n - 1] == sorted(oracle.values())


def text_keys(tokens):
    """The keys a profiler gives a list of string tokens."""
    return diversity._string_keys(list(tokens))


_MASK_64 = (1 << 64) - 1


def reference_mix(value):
    """The splitmix64 finalizer of ``value + 0x9E3779B97F4A7C15``, mod 2**64."""
    x = (value + 0x9E3779B97F4A7C15) & _MASK_64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK_64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK_64
    return x ^ (x >> 31)


def reference_key(token):
    """A string token's key, word by word as documented in ``_token_keys``."""
    data = token.encode()
    total = 0
    for offset in range(0, len(data), 8):
        word = int.from_bytes(data[offset : offset + 8], "little")
        total += reference_mix(word ^ ((offset * 0xC2B2AE3D27D4EB4F) & _MASK_64))
    return reference_mix((total & _MASK_64) ^ len(data))


# Tokens of 0 to 40 UTF-8 bytes: any text cut to its first 40 bytes,
# a partly cut last code point dropped.
TOKENS = st.text(st.characters(codec="utf-8"), max_size=40).map(
    lambda t: t.encode()[:40].decode("utf-8", "ignore")
)


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

    # Keys pinned as constants: a faster way to compute keys must leave
    # every one of them, or every digest of a text corpus moves.
    FROZEN_KEYS = {
        "": 0xE220A8397B1DCDAF,
        "a": 0x121842D00719760B,
        "a" * 8: 0x4FD5831D60818156,
        "a" * 9: 0x0B0B133A57C21B98,
        "a" * 17: 0x9A0B704A6D5F6ECC,
        "é": 0xCDA3A2E85CDB6720,
        "あ" * 5: 0x8CFAF25C2B51A289,
    }

    def test_frozen_keys(self):
        assert text_keys(self.FROZEN_KEYS).tolist() == list(self.FROZEN_KEYS.values())
        assert [reference_key(t) for t in self.FROZEN_KEYS] == list(self.FROZEN_KEYS.values())

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(tokens=st.lists(st.one_of(TOKENS, st.sampled_from(["", "\0", "\0" * 9])), max_size=12))
    def test_keys_match_word_by_word_reference(self, tmp_path_factory, tokens):
        expected = [reference_key(t) for t in tokens]
        assert text_keys(tokens).tolist() == expected
        # The reader keys the same bytes found between whitespace.
        words = [t for t in tokens if t.split() == [t]]
        path = tmp_path_factory.mktemp("keys") / "corpus.txt"
        path.write_text(" ".join(words), encoding="utf-8")
        docs = list(read_text_token_documents(path))
        assert [k for doc in docs for k in doc.tolist()] == [reference_key(w) for w in words]


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

    def test_bad_utf8_in_later_block_yields_the_earlier_blocks_first(
        self, tmp_path, monkeypatch
    ):
        # Blocks are keyed ahead on worker threads, but come out in file
        # order: every line of the blocks before the bad one, and no line
        # of the bad block, even one before the bad byte.
        monkeypatch.setattr(diversity, "_TEXT_BLOCK_BYTES", 16)
        line = "first line é\n"  # 14 bytes: each block holds two lines
        path = tmp_path / "bad.txt"
        path.write_bytes((line * 5).encode() + b"ok \xe2\x80 cut\n")
        offset = len((line * 5).encode()) + 3
        docs = []
        with pytest.raises(ValueError, match=f"byte offset {offset} of"):
            for doc in read_text_token_documents(path):
                docs.append(doc.tolist())
        assert docs == [text_keys(line.split()).tolist()] * 4

    def test_reader_documents_and_string_documents_share_keys(self, tmp_path):
        rng = np.random.default_rng(23)
        docs = [
            [f"tok{t}" for t in rng.integers(0, 30, size=int(rng.integers(0, 50)))]
            for _ in range(40)
        ]
        path = tmp_path / "half.txt"
        path.write_text("\n".join(" ".join(d) for d in docs[:20]) + "\n", encoding="utf-8")
        mixed = NgramProfiler(3)
        for doc in read_text_token_documents(path):
            mixed.add_document(doc)
        for doc in docs[20:]:
            mixed.add_document(doc)
        whole = NgramProfiler(3)
        for doc in docs:
            whole.add_document(doc)
        assert mixed.report() == whole.report()
        for n in range(1, 4):
            assert mixed.counts(n).tolist() == whole.counts(n).tolist()

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

    def test_binary_reads_documents_in_pieces(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diversity, "_BINARY_PIECE_BYTES", 12)
        path = tmp_path / "corpus.bin"
        docs = [list(range(10)), [], [7], list(range(100, 110))]
        path.write_bytes(
            b"".join(struct.pack(f"<I{len(d)}I", len(d), *d) for d in docs)
        )
        assert [d.tolist() for d in read_binary_token_documents(path)] == docs
        # Cut two tokens off the last document, whose 32 remaining bytes
        # take three pieces: the error names the byte where the stream ends.
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="byte offset 56 .* declares 10 tokens but the"
                           " stream ends at byte 92"):
            list(read_binary_token_documents(path))

    def test_binary_truncated_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<I", 1) + struct.pack("<I", 5) + b"\x01\x02")
        with pytest.raises(ValueError, match="byte offset 8"):
            list(read_binary_token_documents(path))
