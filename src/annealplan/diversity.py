"""Streaming corpus diversity: distinct n-gram ratios and n-gram entropy.

N-grams are keyed by a deterministic 64-bit hash so counting a large
corpus needs memory for its distinct n-grams plus, per order, the
pending 8-byte window hashes, which are counted once they outnumber
max(4 Mi, distinct); not vocabulary-sized tuples. Counts themselves are
exact; hash collisions (expected well under one per billions of
distinct n-grams) would merge two n-grams' counts and are accepted.
Each order's window hashes are built from the previous order's, so
hashing all orders 1..n_max is O(N·n_max) work for N tokens. Tokens
are whatever the caller supplies: integers, or strings. A string is
keyed by a 64-bit hash of its UTF-8 bytes, computed in numpy for a
whole batch at once, so a ``str`` token and the text reader's key for
the same bytes count as one token. The text reader reads a file in
256 KiB blocks of whole lines, splits them on Python's whitespace
(``str.split()``, Unicode separators included) and keys every token of
a block in one pass, without building a ``str`` per token. Each block's
keys and per-line token counts can go to the profiler in one call, or
be sliced into one ``uint64`` array per line. N-grams never span
document boundaries; feed a whole corpus as one document to get a
single unbounded stream.

Blocks and window hashes are sized to stay in cache. Two kinds of work
run on two worker threads, and neither allocates anything that outlives
it: the reader's UTF-8 check and keying of the next blocks, while the
calling thread counts the ones before; and the in-place sorts of the
pending hashes of two orders at a time. The threads end with the
reader or the sort, and every count and entropy bit is the one a single
thread gives.

Shannon entropy is computed in bits from the exact count table. The
reported value is clamped to its mathematical bound log2(distinct) so
the uniform-distribution equality survives floating-point rounding.
"""

from __future__ import annotations

import collections
import contextlib
import operator
import struct
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .costs import _check_at_least

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
# A flush's windows are hashed this many window starts at a time, so each
# pass over them stays in cache.
_COUNT_CHUNK = 1 << 15
# The text reader reads this many bytes, then the rest of the line: small
# enough that the passes that key a block stay in cache.
_TEXT_BLOCK_BYTES = 256 << 10
# Worker threads of one reader or one consolidation, and how many blocks
# the reader's workers may key ahead of the block last yielded.
_THREADS = 2
_BLOCKS_AHEAD = 2
# The binary reader reads a document in pieces of at most this many bytes.
_BINARY_PIECE_BYTES = 16 << 20
# Pending raw window hashes of one order (not distinct keys) are sorted
# and counted into the table once they outgrow both this floor and the
# table's distinct keys, so total merge work stays O(N log N) while
# pending memory stays within the table's size or the floor.
_CONSOLIDATE_FLOOR = 4 << 20
# Every order may hold _CONSOLIDATE_FLOOR pending 8-byte hashes (32 MiB),
# so this many orders may hold 2 GiB.
_MAX_ORDER = 64


def _mix64(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 of each integer modulo 2**64, into ``out`` or a new array."""
    # The add casts any integer dtype to uint64 itself, with no copy before it.
    x = np.add(values, _MIX_OFFSET, out=out, dtype=np.uint64, casting="unsafe")
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
    token, and the wrap-around sum of a token's mixed words (0 for an
    empty token) is mixed once more with the token's byte length. Every
    token's first word is keyed in one pass; only tokens over 8 bytes
    take a second pass over their continuation words. Work is O(bytes)
    in numpy.
    """
    padded = np.zeros(len(data) + 8, dtype=np.uint8)
    padded[: len(data)] = data
    # Unaligned 8-byte little-endian window at every byte offset.
    windows = np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))
    words = windows[starts]
    words &= _TAIL_MASK[np.minimum(lengths, 8)]
    sums = _mix64(words, out=words)
    sums[lengths == 0] = 0
    long = np.flatnonzero(lengths > 8)
    if len(long):
        # Continuation words: every word of a long token after its first.
        n_words = (lengths[long] - 1) >> 3
        word_end = np.cumsum(n_words)
        first_word = word_end - n_words
        token = np.repeat(long, n_words)
        offset = (np.arange(1, len(token) + 1) - np.repeat(first_word, n_words)) << 3
        words = windows[starts[token] + offset]
        words &= _TAIL_MASK[np.minimum(lengths[token] - offset, 8)]
        words ^= np.multiply(offset, _WORD_STEP, dtype=np.uint64, casting="unsafe")
        totals = np.zeros(len(words) + 1, dtype=np.uint64)
        np.cumsum(_mix64(words, out=words), out=totals[1:])
        sums[long] += totals[word_end] - totals[first_word]
    np.bitwise_xor(sums, lengths, out=sums, dtype=np.uint64, casting="unsafe")
    return _mix64(sums, out=sums)


def _run_bounds(keys: np.ndarray) -> np.ndarray:
    """Indices at which sorted ``keys`` start a run of equal values, then ``len(keys)``."""
    change = np.empty(len(keys) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:-1])
    return np.flatnonzero(change)


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    """``-(p * log2(p)).sum()`` over ``p = counts / total``, summed in table order.

    When no count exceeds the number of counts, each term is computed
    once per count value and gathered by count, so the only array of
    table size is the gathered terms; the terms and their order are the
    same either way.
    """
    largest = int(counts.max())
    if largest > len(counts):
        probabilities = counts / total
        return float(-(probabilities * np.log2(probabilities)).sum())
    probabilities = np.arange(largest + 1) / total
    probabilities[0] = 1.0  # no count is 0; this keeps log2 finite
    terms = probabilities * np.log2(probabilities)
    return float(-terms[counts].sum())


def _string_keys(tokens: list[str]) -> np.ndarray:
    """Keys of string tokens: the :func:`_token_keys` of their UTF-8 bytes.

    Strings are keyed by their bytes, not by an interning order, so a
    string and the key :func:`read_text_token_documents` yields for the
    same bytes are one token, whichever way a document is fed.
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
    """Keys of integer or bool tokens, or an integer or bool array that casts to them.

    An id's key is its value modulo 2**64 (a bool's is 0 or 1), so ids
    must lie in [-2**63, 2**64). An integer or bool array, the caller's
    own included, is returned uncopied: casting it to ``uint64`` wraps
    each id to its key.
    The profiler copies a document whole into its flush buffer, or counts
    it at once, so the caller may refill the array for the next document.
    Tokens numpy puts in no integer dtype (ids past ``int64`` beside
    negative or small ones, or non-integers) are checked and keyed one at
    a time.
    """
    ids = np.asarray(tokens)
    if ids.dtype.kind in "biu":
        return ids
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
    a boundary that n-grams do not cross. The text reader's blocks of
    documents go in with :meth:`_add_documents`, one call each. Documents
    of any size are fine: they are buffered whole, in any order, and
    counted in large batches, so many tiny documents cost no more than
    one big one. A document or block that lacks room in the buffer
    flushes it first; one longer than the buffer is counted at once, in
    slices.
    """

    def __init__(self, n_max: int):
        _check_at_least(n_max, 1, "n_max")
        if n_max > _MAX_ORDER:
            raise ValueError(f"n_max must be <= {_MAX_ORDER}, got {n_max}")
        self.n_max = n_max
        # Per order: raw window hashes not yet counted, and the sorted
        # (keys, counts) table of those counted.
        self._parts: list[list[np.ndarray]] = [[] for _ in range(n_max + 1)]
        self._tables: list[tuple[np.ndarray, np.ndarray] | None] = [None] * (n_max + 1)
        # Buffered documents: integer keys fill _keys from the front and
        # string tokens wait in _text, keyed into _keys after them at a flush.
        # The buffer is allocated when first needed and released by report().
        self._capacity = _FLUSH_TOKENS
        self._keys: np.ndarray | None = None
        self._filled = 0
        self._lengths: list[int] = []
        self._text: list[str] = []
        self._text_lengths: list[int] = []

    def add_document(self, tokens: Iterable) -> None:
        """Count all n-grams of one document; boundaries are implicit.

        The whole document is checked first, so a rejected one leaves no count.
        """
        if not isinstance(tokens, (list, tuple, np.ndarray)):
            tokens = list(tokens)
        size = len(tokens)
        if not size:
            return
        is_text = isinstance(tokens[0], str)
        if is_text:
            if not all(isinstance(token, str) for token in tokens):
                raise ValueError("a document that starts with a str token must hold only str")
            try:
                "".join(tokens).encode()  # a flush keys the UTF-8 bytes
            except UnicodeEncodeError as exc:
                token = next(token for token in tokens if exc.object[exc.start] in token)
                raise ValueError(f"str token {token!r} cannot be encoded as UTF-8") from None
        if is_text and size <= self._capacity:
            if self._filled + len(self._text) + size > self._capacity:
                self._flush()
            # Keyed in one numpy pass per flush, not one per document.
            self._text.extend(tokens)
            self._text_lengths.append(size)
        else:
            self._add_documents(_string_keys(tokens) if is_text else _id_keys(tokens), [size])

    def _add_documents(self, keys: np.ndarray, lengths: list[int]) -> None:
        """Count whole documents of ``lengths`` integer keys, laid end to end in ``keys``.

        The flush buffer is flushed first if it lacks room for the keys.
        Keys that fit are then copied into it with one slice assignment;
        keys longer than the buffer are counted at once, in slices.
        """
        capacity = self._capacity
        if self._filled + len(self._text) + len(keys) > capacity:
            self._flush()
        if len(keys) <= capacity:
            self._buffer()[self._filled : self._filled + len(keys)] = keys
            self._filled += len(keys)
            self._lengths += lengths
            return
        ends = np.cumsum(lengths)
        # Each slice carries the n_max - 1 keys after its first `capacity`, so
        # every window starting in those ends inside it; _count counts only
        # those, and the next slice counts the rest. A document that a slice's
        # edge cuts is two documents there, which drops none of those windows.
        for start in range(0, len(keys), capacity):
            stop = min(start + capacity + self.n_max - 1, len(keys))
            cuts = ends[(start < ends) & (ends < stop)] - start
            self._count(keys[start:stop], np.diff(cuts, prepend=0, append=stop - start))

    def _buffer(self) -> np.ndarray:
        if self._keys is None:
            self._keys = np.empty(self._capacity, dtype=np.uint64)
        return self._keys

    def _flush(self) -> None:
        end = self._filled + len(self._text)
        if not end:
            return
        if self._text:
            self._buffer()[self._filled : end] = _string_keys(self._text)
        self._count(self._keys[:end], self._lengths + self._text_lengths)
        self._filled = 0
        self._lengths.clear()
        self._text.clear()
        self._text_lengths.clear()

    def _count(self, keys: np.ndarray, lengths: list[int]) -> None:
        """Count the windows of whole documents of ``lengths`` keys, laid end to end.

        Only windows starting in the first ``_FLUSH_TOKENS`` keys count.
        """
        self._add_windows(keys, lengths)
        self._consolidate([
            n
            for n, table in enumerate(self._tables[1:], 1)
            if sum(map(len, self._parts[n]))
            > max(_CONSOLIDATE_FLOOR, 0 if table is None else len(table[0]))
        ])

    def _add_windows(self, keys: np.ndarray, lengths: list[int]) -> None:
        """Add the hashes of :meth:`_count`'s windows to each order's pending parts.

        The windows are hashed ``_COUNT_CHUNK`` starts at a time, so every
        pass stays in cache, and each order's kept hashes go into one part.
        It is apart from :meth:`_count` so that none of its arrays is still
        alive when :meth:`_count` consolidates.
        """
        n_max, size = self.n_max, len(keys)
        starts = min(size, self._capacity)
        lengths = np.asarray(lengths, dtype=np.int64)
        ends = np.cumsum(lengths)
        # left[i]: keys left in key i's document from i on, capped at n_max.
        # The window of order n that starts at i stays in one document iff
        # left[i] >= n.
        left = np.full(size, n_max, dtype=np.uint8)
        for d in range(1, n_max):
            left[(ends - d)[lengths >= d]] = d
        # One part per order, sized to hold the windows of that order that count.
        parts = [np.empty(starts, dtype=np.uint64)]
        parts += [np.empty(np.count_nonzero(left[:starts] >= n), dtype=np.uint64)
                  for n in range(2, n_max + 1)]
        filled = [0] * n_max
        mixed = np.empty(min(size, _COUNT_CHUNK + n_max - 1), dtype=np.uint64)
        hashes = np.empty(len(mixed), dtype=np.uint64)
        for first in range(0, starts, _COUNT_CHUNK):
            last = min(first + _COUNT_CHUNK, starts)
            # The chunk's keys and the n_max - 1 after them, which its
            # windows reach.
            stop = min(last + n_max - 1, size)
            chunk = _mix64(keys[first:stop], out=mixed[: stop - first])
            parts[0][first:last] = chunk[: last - first]
            window = chunk
            for n in range(2, n_max + 1):
                width = min(last, size - n + 1) - first
                if width <= 0:
                    break
                # Order n's window hash is order n - 1's times the multiplier
                # plus the next mixed key.
                window = np.multiply(window[:width], _WINDOW_MULTIPLIER, out=hashes[:width])
                window += chunk[n - 1 : n - 1 + width]
                chosen = window[left[first : first + width] >= n]
                parts[n - 1][filled[n - 1] : filled[n - 1] + len(chosen)] = chosen
                filled[n - 1] += len(chosen)
        for n, part in enumerate(parts, 1):
            if len(part):
                self._parts[n].append(part)

    def _consolidate(self, orders: Iterable[int]) -> None:
        """Sort and count the pending hashes of each of ``orders`` into its table.

        Orders go ``_THREADS`` at a time: their pending hashes are sorted in
        place on worker threads, then counted on the caller's thread, so no
        more than ``_THREADS`` orders' concatenated hashes are alive at once.
        """
        orders = [n for n in orders if self._parts[n]]
        for group in range(0, len(orders), _THREADS):
            pending = []
            for n in orders[group : group + _THREADS]:
                parts = self._parts[n]
                # No caller holds a part and its order does not matter, so a
                # lone part is sorted in place.
                pending.append((n, parts[0] if len(parts) == 1 else np.concatenate(parts)))
                parts.clear()
            # The threads only sort: they allocate no array that outlives the
            # call. Largest first, so the last array to start is a short one.
            with ThreadPoolExecutor(_THREADS) as pool:
                list(pool.map(np.ndarray.sort,
                              sorted((keys for _, keys in pending), key=len, reverse=True)))
            while pending:
                n, keys = pending.pop(0)
                bounds = _run_bounds(keys)
                # Each array is freed as soon as the next no longer needs it.
                keys = keys[bounds[:-1]]
                counts = np.diff(bounds)
                del bounds
                if self._tables[n] is not None:
                    table_keys, table_counts = self._tables[n]
                    self._tables[n] = None
                    # Keys already in the table add to its counts in place; the
                    # rest are inserted where they sort.
                    at = np.searchsorted(table_keys, keys)
                    found = at < len(table_keys)
                    found[found] = table_keys[at[found]] == keys[found]
                    table_counts[at[found]] += counts[found]
                    new = ~found
                    keys = np.insert(table_keys, at[new], keys[new])
                    del table_keys
                    counts = np.insert(table_counts, at[new], counts[new])
                self._tables[n] = (keys, counts)

    def counts(self, n: int) -> np.ndarray:
        """Per-key occurrence counts for order ``n``, sorted (diagnostic)."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in [1, {self.n_max}], got {n}")
        self._flush()
        self._consolidate([n])
        table = self._tables[n]
        return np.empty(0, dtype=np.int64) if table is None else np.sort(table[1])

    def report(self) -> DiversityReport:
        self._flush()
        # The flush buffer is idle until the next document; freeing it makes
        # room for the tables.
        self._keys = None
        self._consolidate(range(1, self.n_max + 1))
        rows = []
        for n in range(1, self.n_max + 1):
            table = self._tables[n]
            if table is not None:
                counts = table[1]
                total = int(counts.sum())
                distinct = len(counts)
                entropy = _entropy_bits(counts, total)
                entropy = min(max(entropy, 0.0), float(np.log2(distinct))) + 0.0
                ratio = distinct / total
                empty = False
            else:
                total, distinct, entropy, ratio, empty = 0, 0, 0.0, 1.0, True
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
        # Every token is exactly one unigram.
        return DiversityReport(token_total=rows[0].total, per_n=tuple(rows))


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
    The file is read by the block reader; each line's array is a view of
    its block's keys.
    """
    with contextlib.closing(_read_text_blocks(path)) as blocks:
        for keys, lengths in blocks:
            yield from np.split(keys, np.cumsum(lengths[:-1]))


def _read_text_blocks(path) -> Iterator[tuple[np.ndarray, list[int]]]:
    """Yield the :func:`_text_block_documents` of each block of whole lines of a UTF-8 file.

    The caller's thread reads the blocks; ``_THREADS`` worker threads check
    and key them, at most ``_BLOCKS_AHEAD`` blocks ahead of the one last
    yielded. Blocks, and a bad block's error, come out in file order, and
    the workers end with the generator.
    """
    pool = ThreadPoolExecutor(_THREADS)
    keyed: collections.deque = collections.deque()
    try:
        with open(path, "rb") as handle:
            offset = 0
            while block := handle.read(_TEXT_BLOCK_BYTES):
                if not block.endswith(b"\n"):
                    block += handle.readline()
                keyed.append(pool.submit(_text_block_documents, block, offset, path))
                offset += len(block)
                if len(keyed) > _BLOCKS_AHEAD:
                    yield keyed.popleft().result()
        while keyed:
            yield keyed.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _text_block_documents(block: bytes, offset: int, path) -> tuple[np.ndarray, list[int]]:
    """Token keys of the block of lines at byte ``offset`` of ``path``, and each line's token count.

    The block ends at a line end or at the end of the file. Invalid UTF-8
    is reported by its absolute byte offset. An empty or whitespace-only
    line counts 0 tokens.
    """
    try:
        block.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"invalid UTF-8 at byte offset {offset + exc.start} of {path}") from exc
    data = np.frombuffer(block, dtype=np.uint8)
    space = ((data - 9) < 5) | ((data - 28) < 5)
    # A longer separator's lead byte is C2, E1, E2 or E3, and valid UTF-8
    # keeps its continuation bytes inside the block.
    lead = np.flatnonzero(data >= 0xC2)
    if len(lead):  # an ASCII block skips the lookups
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
    return keys, np.diff(np.searchsorted(starts, line_ends), prepend=0).tolist()


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
            # Read in bounded pieces, so a corrupt length cannot allocate
            # more than the stream holds.
            pieces, missing = [], 4 * length
            while missing and (piece := handle.read(min(missing, _BINARY_PIECE_BYTES))):
                pieces.append(piece)
                missing -= len(piece)
            payload = b"".join(pieces)
            if missing:
                raise ValueError(
                    f"document at byte offset {offset - 4} of {path} declares"
                    f" {length} tokens but the stream ends at byte {offset + len(payload)}"
                )
            offset += len(payload)
            yield np.frombuffer(payload, dtype="<u4").astype(np.int64)
