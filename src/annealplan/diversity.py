"""Streaming corpus diversity: distinct n-gram ratios and n-gram entropy.

N-grams are keyed by a deterministic 64-bit hash so counting a large
corpus needs memory for its distinct n-grams plus, per order, the
pending 8-byte window hashes, which are counted once they outnumber
max(4 Mi, distinct); not vocabulary-sized tuples. Counts themselves are
exact; hash collisions (expected well under one per billions of
distinct n-grams) would merge two n-grams' counts and are accepted.
Tokens are whatever the caller supplies: integers, or strings. A string
is keyed by a 64-bit hash of its UTF-8 bytes, computed in numpy for a
whole batch at once, so profilers fed disjoint shards share keys and
merge exactly. The text reader splits lines on Python's whitespace
(``str.split()``, Unicode separators included) and yields those keys,
one ``uint64`` array per line, without building a ``str`` per token.
N-grams never span document boundaries; feed a whole corpus as one
document to get a single unbounded stream.

Shannon entropy is computed in bits from the exact count table. The
reported value is clamped to its mathematical bound log2(distinct) so
the uniform-distribution equality survives floating-point rounding.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = [
    "DiversityReport",
    "NgramProfiler",
    "NgramStats",
    "profile_corpus",
    "read_binary_token_documents",
    "read_text_token_documents",
]

# splitmix64 finalizer constants: scatter small token ids across the
# full 64-bit space before they enter the rolling window hash.
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_MIX_OFFSET = np.uint64(0x9E3779B97F4A7C15)
_WINDOW_MULTIPLIER = np.uint64(0xD6E8FEB86659FD93)
_WORD_STEP = np.uint64(0xC2B2AE3D27D4EB4F)
_KEY_MASK = (1 << 64) - 1
# _TAIL_MASK[r] keeps the low r bytes of a word.
_TAIL_MASK = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)

# The code points str.split() separates on (those str.isspace() accepts):
# the ASCII ones are bytes 9-13 and 28-32; the longer ones are matched
# by their 2- and 3-byte UTF-8 codes.
_WHITESPACE = (
    "\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)
_WHITESPACE_2 = [int.from_bytes(c.encode(), "big") for c in _WHITESPACE if len(c.encode()) == 2]
_WHITESPACE_3 = [int.from_bytes(c.encode(), "big") for c in _WHITESPACE if len(c.encode()) == 3]

_FLUSH_TOKENS = 1 << 20
# The text reader reads this many bytes, then the rest of the line.
_TEXT_BLOCK_BYTES = 4 << 20
# Pending raw window hashes of one order (not distinct keys) are sorted
# and counted into the table once they outgrow both this floor and the
# table's distinct keys, so total merge work stays O(N log N) while
# pending memory stays within the table's size or the floor.
_CONSOLIDATE_FLOOR = 4 << 20


def _mix64(values: np.ndarray) -> np.ndarray:
    x = values.astype(np.uint64) + _MIX_OFFSET
    x ^= x >> np.uint64(30)
    x *= _MIX_1
    x ^= x >> np.uint64(27)
    x *= _MIX_2
    x ^= x >> np.uint64(31)
    return x


def _token_keys(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One ``uint64`` key per token; token ``i`` is ``data[starts[i]:][:lengths[i]]``.

    Each token is cut into little-endian 8-byte words (the last one
    zero-filled), every word is mixed together with its offset in the
    token, and the wrap-around sum of a token's mixed words is mixed
    once more with the token's byte length. Work is O(bytes) in numpy.
    """
    n_words = (lengths + 7) >> 3
    word_end = np.cumsum(n_words)
    first_word = word_end - n_words
    token = np.repeat(np.arange(len(lengths)), n_words)
    offset = (np.arange(len(token)) - first_word[token]) << 3
    padded = np.zeros(len(data) + 8, dtype=np.uint8)
    padded[: len(data)] = data
    # Unaligned 8-byte little-endian window at every byte offset.
    windows = np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))
    words = windows[starts[token] + offset]
    words &= _TAIL_MASK[np.minimum(lengths[token] - offset, 8)]
    words ^= offset.astype(np.uint64) * _WORD_STEP
    sums = np.zeros(len(words) + 1, dtype=np.uint64)
    np.cumsum(_mix64(words), out=sums[1:])
    return _mix64((sums[word_end] - sums[first_word]) ^ lengths.astype(np.uint64))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Indices at which sorted ``keys`` start a run of equal values."""
    change = np.empty(len(keys), dtype=bool)
    change[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    return np.flatnonzero(change)


def _string_keys(tokens: list[str]) -> np.ndarray:
    """Keys of string tokens: the :func:`_token_keys` of their UTF-8 bytes.

    Strings are keyed by their bytes, not by an interning order, so
    profilers fed disjoint document shards count the same n-grams under
    the same keys and can be merged.
    """
    joined = "".join(tokens)
    data = np.frombuffer(joined.encode(), dtype=np.uint8)
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    if len(data) != len(joined):
        # Not all ASCII: a token ends where the code point after its last
        # one starts, at a byte that is not a UTF-8 continuation byte.
        point_at = np.append(np.flatnonzero((data & 0xC0) != 0x80), len(data))
        lengths = np.diff(point_at[np.cumsum(lengths)], prepend=0)
    return _token_keys(data, np.cumsum(lengths) - lengths, lengths)


def _id_keys(tokens) -> np.ndarray:
    """Keys of integer tokens, in a new array the caller cannot refill.

    An id's key is its value modulo 2**64, so ids must lie in
    [-2**63, 2**64). ``uint64`` ids are keys already (the text reader's,
    or ids that need no widening); other integer arrays are widened
    through ``int64``. Tokens numpy puts in no integer dtype (ids past
    ``int64`` beside negative or small ones, or non-integers) are checked
    and keyed one at a time.
    """
    ids = np.array(tokens)
    if ids.dtype.kind in "iu":
        return ids if ids.dtype == np.uint64 else ids.astype(np.int64).astype(np.uint64)
    try:
        values = [operator.index(t) for t in tokens]
    except TypeError:
        values = None
    if values is None or not -(1 << 63) <= min(values) <= max(values) < 1 << 64:
        raise ValueError("token ids must be integers in [-2**63, 2**64)")
    return np.array([v & _KEY_MASK for v in values], dtype=np.uint64)


@dataclass(frozen=True)
class NgramStats:
    """Counts for one n-gram order.

    ``ratio`` is distinct/total; by convention it is 1.0 when the
    corpus has no n-grams of this order at all, with ``empty`` set so
    the convention is distinguishable from a genuinely diverse corpus.
    """

    n: int
    distinct: int
    total: int
    ratio: float
    entropy_bits: float
    empty: bool


@dataclass(frozen=True)
class DiversityReport:
    token_total: int
    per_n: tuple[NgramStats, ...]

    def stats(self, n: int) -> NgramStats:
        for row in self.per_n:
            if row.n == n:
                return row
        raise KeyError(f"no statistics for n={n}")


class NgramProfiler:
    """Single-pass n-gram counter for every order 1..n_max.

    Feed documents one at a time with :meth:`add_document`; each call is
    a boundary that n-grams do not cross. Documents of any size are
    fine: tokens are buffered and processed in large batches, so many
    tiny documents cost no more than one big one.
    """

    def __init__(self, n_max: int):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.n_max = n_max
        self._token_total = 0
        self._totals = [0] * (n_max + 1)
        # Per order: raw window hashes not yet counted, their total
        # length, and the sorted (keys, counts) table of those counted.
        self._parts: list[list[np.ndarray]] = [[] for _ in range(n_max + 1)]
        self._pending = [0] * (n_max + 1)
        self._tables: list[tuple[np.ndarray, np.ndarray] | None] = [None] * (n_max + 1)
        self._doc_counter = 0
        self._buf_keys: list[np.ndarray] = []
        self._buf_text: list[str] = []  # string tokens not yet keyed, after _buf_keys
        self._buf_segments: list[tuple[int, int]] = []  # (doc id, token count)
        self._buf_len = 0
        self._tail_hashes = np.empty(0, dtype=np.uint64)
        self._tail_docs = np.empty(0, dtype=np.int64)

    def add_document(self, tokens: Iterable) -> None:
        """Count all n-grams of one document; boundaries are implicit."""
        doc_id = self._doc_counter
        self._doc_counter += 1
        if isinstance(tokens, (list, tuple, np.ndarray)):
            size = len(tokens)
            # Slicing copies a list, so only documents longer than a flush are cut.
            for start in range(0, size, _FLUSH_TOKENS):
                chunk = tokens if size <= _FLUSH_TOKENS else tokens[start : start + _FLUSH_TOKENS]
                self._buffer(doc_id, chunk)
            return
        iterator = iter(tokens)
        while chunk := list(islice(iterator, _FLUSH_TOKENS)):
            self._buffer(doc_id, chunk)

    def _buffer(self, doc_id: int, tokens) -> None:
        if isinstance(tokens[0], str):
            # Keyed in one numpy pass per flush, not one per document.
            self._buf_text.extend(tokens)
        else:
            self._key_text()
            self._buf_keys.append(_id_keys(tokens))
        size = len(tokens)
        self._buf_segments.append((doc_id, size))
        self._buf_len += size
        self._token_total += size
        if self._buf_len >= _FLUSH_TOKENS:
            self._flush()

    def _key_text(self) -> None:
        if self._buf_text:
            self._buf_keys.append(_string_keys(self._buf_text))
            self._buf_text.clear()

    def _flush(self) -> None:
        if not self._buf_len:
            return
        self._key_text()
        mixed = _mix64(np.concatenate(self._buf_keys))
        seg_docs = np.array([d for d, _ in self._buf_segments], dtype=np.int64)
        seg_lens = np.array([c for _, c in self._buf_segments], dtype=np.int64)
        docs = np.repeat(seg_docs, seg_lens)
        self._buf_keys.clear()
        self._buf_segments.clear()
        self._buf_len = 0

        tail_len = len(self._tail_hashes)
        if tail_len:
            mixed = np.concatenate([self._tail_hashes, mixed])
            docs = np.concatenate([self._tail_docs, docs])
        length = len(mixed)

        for n in range(1, self.n_max + 1):
            # Windows fully inside the carried tail were counted by the
            # previous flush; keep only those ending in the new region,
            # and only those that stay within one document.
            start = max(0, tail_len - n + 1)
            width = (length - n + 1) - start
            if width <= 0:
                continue
            hashes = np.zeros(width, dtype=np.uint64)
            for j in range(n):
                hashes *= _WINDOW_MULTIPLIER
                hashes += mixed[start + j : start + j + width]
            if n > 1:
                valid = docs[start : start + width] == docs[start + n - 1 : start + n - 1 + width]
                hashes = hashes[valid]
                if not len(hashes):
                    continue
            self._totals[n] += len(hashes)
            self._parts[n].append(hashes)
            self._pending[n] += len(hashes)
            self._consolidate_if_due(n)

        if self.n_max > 1:
            keep = min(self.n_max - 1, length)
            self._tail_hashes = mixed[length - keep :].copy()
            self._tail_docs = docs[length - keep :].copy()

    def _consolidate_if_due(self, n: int) -> None:
        table = self._tables[n]
        if self._pending[n] > max(_CONSOLIDATE_FLOOR, 0 if table is None else len(table[0])):
            self._consolidate(n)

    def _consolidate(self, n: int) -> None:
        parts = self._parts[n]
        if not parts:
            return
        # No caller holds a part and its order does not matter, so a lone
        # part is sorted in place.
        keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
        parts.clear()
        self._pending[n] = 0
        keys.sort()
        starts = _run_starts(keys)
        self._fold(n, keys[starts], np.diff(starts, append=len(keys)))

    def _fold(self, n: int, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add a key-sorted table of distinct keys to order ``n``'s table."""
        table = self._tables[n]
        if table is not None:
            keys = np.concatenate([table[0], keys])
            # Two sorted runs: the stable sort only merges them.
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            starts = _run_starts(keys)
            counts = np.add.reduceat(np.concatenate([table[1], counts])[order], starts)
            keys = keys[starts]
        self._tables[n] = (keys, counts)

    def merge(self, other: NgramProfiler) -> None:
        """Fold another profiler's counts into this one.

        Supports sharding a corpus by document across workers: each
        worker profiles its share, and the merged result is identical
        to profiling everything in one instance. Both profilers must
        have flushed complete documents only (which :meth:`add_document`
        guarantees) and share ``n_max``.
        """
        if other.n_max != self.n_max:
            raise ValueError(
                f"cannot merge profilers with n_max {other.n_max} into {self.n_max}"
            )
        self._flush()
        other._flush()
        self._token_total += other._token_total
        for n in range(1, self.n_max + 1):
            self._totals[n] += other._totals[n]
            self._parts[n].extend(other._parts[n])
            self._pending[n] += other._pending[n]
            if other._tables[n] is not None:
                self._fold(n, *other._tables[n])
            self._consolidate_if_due(n)

    def counts(self, n: int) -> np.ndarray:
        """Per-key occurrence counts for order ``n``, sorted (diagnostic)."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in [1, {self.n_max}], got {n}")
        self._flush()
        self._consolidate(n)
        table = self._tables[n]
        return np.empty(0, dtype=np.int64) if table is None else np.sort(table[1])

    def report(self) -> DiversityReport:
        self._flush()
        rows = []
        for n in range(1, self.n_max + 1):
            self._consolidate(n)
            total = self._totals[n]
            table = self._tables[n]
            if table is not None:
                counts = table[1]
                distinct = len(counts)
                probabilities = counts / total
                entropy = float(-(probabilities * np.log2(probabilities)).sum())
                entropy = min(max(entropy, 0.0), float(np.log2(distinct))) + 0.0
                ratio = distinct / total
                empty = False
            else:
                distinct, entropy, ratio, empty = 0, 0.0, 1.0, True
            rows.append(
                NgramStats(
                    n=n,
                    distinct=distinct,
                    total=total,
                    ratio=ratio,
                    entropy_bits=entropy,
                    empty=empty,
                )
            )
        return DiversityReport(token_total=self._token_total, per_n=tuple(rows))


def profile_corpus(documents: Iterable[Iterable], n_max: int) -> DiversityReport:
    """Profile every n-gram order 1..n_max over an iterable of documents."""
    profiler = NgramProfiler(n_max)
    for document in documents:
        profiler.add_document(document)
    return profiler.report()


def read_text_token_documents(path) -> Iterator[np.ndarray]:
    """Yield the token keys of each line of a UTF-8 file, one ``uint64`` array per line.

    Lines end at ``\\n`` only and are split on the whitespace ``str.split()``
    uses; a token's key is the one :class:`NgramProfiler` gives the same
    string. Decoding errors report the absolute byte offset of the bad byte.
    """
    offset = 0
    with open(path, "rb") as handle:
        while block := handle.read(_TEXT_BLOCK_BYTES):
            if not block.endswith(b"\n"):
                block += handle.readline()
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"invalid UTF-8 at byte offset {offset + exc.start} of {path}"
                ) from exc
            offset += len(block)
            yield from _text_block_documents(np.frombuffer(block, dtype=np.uint8))


def _text_block_documents(data: np.ndarray) -> list[np.ndarray]:
    """Token keys of each line of valid UTF-8 ``data`` that ends at a line end."""
    space = ((data - 9) < 5) | ((data - 28) < 5)
    # A longer separator's lead byte is C2, E1, E2 or E3, and valid UTF-8
    # keeps its continuation bytes inside the block.
    lead = np.flatnonzero(data >= 0xC2)
    lead2 = lead[data[lead] == 0xC2]
    code2 = (data[lead2].astype(np.int32) << 8) | data[lead2 + 1]
    at = lead2[np.isin(code2, _WHITESPACE_2)]
    space[at] = space[at + 1] = True
    lead3 = lead[(data[lead] >= 0xE1) & (data[lead] <= 0xE3)]
    code3 = (
        (data[lead3].astype(np.int32) << 16)
        | (data[lead3 + 1].astype(np.int32) << 8)
        | data[lead3 + 2]
    )
    at = lead3[np.isin(code3, _WHITESPACE_3)]
    space[at] = space[at + 1] = space[at + 2] = True

    # Tokens run from a space-to-text edge to the next text-to-space edge.
    edges = np.flatnonzero(np.diff(space, prepend=True, append=True))
    starts = edges[::2]
    keys = _token_keys(data, starts, edges[1::2] - starts)
    line_ends = np.flatnonzero(data == 0x0A)
    if data[-1] != 0x0A:
        line_ends = np.append(line_ends, len(data))
    bounds = [0, *np.searchsorted(starts, line_ends).tolist()]
    return [keys[a:b] for a, b in zip(bounds, bounds[1:])]


def read_binary_token_documents(path) -> Iterator[np.ndarray]:
    """Yield token-id documents from a little-endian uint32 stream.

    Wire format, repeated until end of file: a uint32 document length,
    then that many uint32 token ids. Truncation errors report the byte
    offset where the stream became unreadable.
    """
    with open(path, "rb") as handle:
        offset = 0
        while True:
            header = handle.read(4)
            if not header:
                return
            if len(header) < 4:
                raise ValueError(
                    f"truncated document length at byte offset {offset} of {path}"
                )
            (length,) = struct.unpack("<I", header)
            offset += 4
            payload = handle.read(4 * length)
            if len(payload) < 4 * length:
                raise ValueError(
                    f"document at byte offset {offset - 4} of {path} declares"
                    f" {length} tokens but the stream ends at byte {offset + len(payload)}"
                )
            offset += len(payload)
            yield np.frombuffer(payload, dtype="<u4").astype(np.int64)
