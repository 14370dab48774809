"""Reading and writing datasets and pattern sets.

Two on-disk formats are supported:

* **FIMI transaction format** — one transaction per line, space-separated
  integer item ids. This is the format the FIMI repository distributes
  Connect-4, Pumsb, etc. in, so real datasets drop straight in when
  available.
* **Pattern set format** — one frequent pattern per line as
  ``item item ... : support``. Persisting pattern sets is what makes
  recycling work *across* mining sessions and across users (Section 2 of
  the paper): one user's saved output is another user's recycling input.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from pathlib import Path
from typing import TextIO

from repro.data.transactions import TransactionDatabase
from repro.errors import DataError, MiningError
from repro.data.patterns import (
    REPRESENTATIONS,
    CondensedPatternSet,
    PatternSet,
)


def read_transactions(path: str | Path) -> TransactionDatabase:
    """Load a FIMI-format transaction file into a database.

    Blank lines and ``#`` comment lines are skipped.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return parse_transactions(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read transaction file {path}: {exc}") from exc


def parse_transactions(handle: TextIO) -> TransactionDatabase:
    """Parse FIMI-format transactions from an open text stream."""
    transactions: list[list[int]] = []
    for line_no, line in enumerate(handle, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            transactions.append([int(token) for token in stripped.split()])
        except ValueError as exc:
            raise DataError(f"line {line_no}: non-integer item in {stripped!r}") from exc
    return TransactionDatabase(transactions)


def write_transactions(db: TransactionDatabase, path: str | Path) -> None:
    """Write a database in FIMI format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for tx in db:
            handle.write(" ".join(str(i) for i in tx))
            handle.write("\n")


def read_patterns(path: str | Path) -> PatternSet:
    """Load a pattern set written by :func:`write_patterns`."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return parse_patterns(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read pattern file {path}: {exc}") from exc


def parse_patterns(handle: TextIO) -> PatternSet:
    """Parse ``item item ... : support`` lines from an open text stream."""
    patterns = PatternSet()
    for line_no, line in enumerate(handle, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head, sep, tail = stripped.rpartition(":")
        if not sep:
            raise DataError(f"line {line_no}: missing ': support' in {stripped!r}")
        try:
            items = frozenset(int(token) for token in head.split())
            support = int(tail.strip())
        except ValueError as exc:
            raise DataError(f"line {line_no}: malformed pattern {stripped!r}") from exc
        if not items:
            raise DataError(f"line {line_no}: empty pattern")
        try:
            patterns.add(items, support)
        except MiningError as exc:  # a negative or conflicting support
            raise DataError(f"line {line_no}: {exc}") from exc
    return patterns


def canonical_pattern_rows(patterns: PatternSet) -> list[tuple[tuple[int, ...], int]]:
    """``(sorted_items, support)`` rows in the canonical file order.

    Sorted by items first, then support — the one ordering every pattern
    writer uses, so shard-merged outputs, warehouse dumps and golden
    files diff cleanly regardless of mining backend or job count.
    """
    return sorted(
        ((tuple(sorted(items)), support) for items, support in patterns.items()),
        key=lambda row: (row[0], row[1]),
    )


def write_patterns(patterns: PatternSet, path: str | Path) -> None:
    """Persist a pattern set in canonical order (items, then support)."""
    Path(path).write_text(_pattern_body(patterns), encoding="utf-8")


#: Header line prefix recording the threshold a pattern file was mined at.
SUPPORT_HEADER_PREFIX = "# absolute_support="

#: Header line prefix recording the SHA-256 of the pattern body. Written
#: after the support header; files predating the checksum (or written by
#: other tools) simply omit it and are read without verification.
CHECKSUM_HEADER_PREFIX = "# sha256="

#: Header recording which representation the body's rows are: ``full``
#: (every frequent pattern) or ``closed`` (condensed entries only).
#: Absent on files predating condensation, which are read as ``full`` —
#: the original format unchanged. Any other value is rejected at this
#: line.
REPR_HEADER_PREFIX = "# repr="

#: Transaction count of the mined database, recorded when known. No
#: reader needs it to reconstruct the frequent set.
NTRANS_HEADER_PREFIX = "# n_transactions="

#: Byte-model size of the *expanded* set at write time — a gauge header
#: so warehouses can report condensation ratios without expanding.
FULL_BYTES_HEADER_PREFIX = "# full_bytes="


def _pattern_body(patterns: PatternSet) -> str:
    """The pattern lines in canonical order, as one string."""
    buffer = io.StringIO()
    for items, support in canonical_pattern_rows(patterns):
        buffer.write(" ".join(str(i) for i in items))
        buffer.write(f" : {support}\n")
    return buffer.getvalue()


def pattern_body_checksum(body: str) -> str:
    """SHA-256 hex digest of a pattern-file body (the non-header lines)."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _write_atomically(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``: temp file, fsync, then rename.

    The text goes into a sibling temp file that is flushed and fsynced
    before :func:`os.replace` moves it into place, so a concurrent
    reader, a crash or a power loss leaves either the old file or the
    complete new one, never a partial or header-less file.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_patterns_with_support(
    patterns: PatternSet, path: str | Path, absolute_support: int
) -> None:
    """Atomically persist a pattern set with its mining threshold.

    The plain pattern format prefixed with a ``# absolute_support=N``
    header and a ``# sha256=<hex>`` body checksum, written through
    :func:`_write_atomically`; bit rot or truncation that slips past the
    atomic rename is caught by the checksum on read.
    """
    body = _pattern_body(patterns)
    _write_atomically(
        path,
        f"{SUPPORT_HEADER_PREFIX}{absolute_support}\n"
        f"{CHECKSUM_HEADER_PREFIX}{pattern_body_checksum(body)}\n"
        f"{body}",
    )


def warehouse_entry_text(
    condensed: CondensedPatternSet,
    *,
    full_bytes: int | None = None,
) -> str:
    """The full file text of a warehouse entry (headers + body).

    Extends the :func:`write_patterns_with_support` layout with the
    representation headers: ``# repr=`` names how to read the body's
    rows, ``# n_transactions=`` records the mined database's size when
    known, and an optional ``# full_bytes=`` gauge records the
    expanded set's byte-model size. Metadata headers sit *between* the
    support header and the checksum, so the checksum still covers
    exactly the body rows. The rows are written in held order (entry
    order, items as the pattern iterates them), not the canonical order
    of :func:`write_patterns`: readers parse rows into sets, and the
    checksum covers the body as written, so sorting would buy nothing.
    Split out of :func:`write_warehouse_entry` so the durability layer
    can render the same bytes and route them through its own atomic
    writer.
    """
    body = "".join(
        [
            f"{' '.join(map(str, items))} : {support}\n"
            for items, support in condensed.items()
        ]
    )
    headers = [
        f"{SUPPORT_HEADER_PREFIX}{condensed.absolute_support}",
        f"{REPR_HEADER_PREFIX}{condensed.representation}",
    ]
    if condensed.n_transactions is not None:
        headers.append(f"{NTRANS_HEADER_PREFIX}{condensed.n_transactions}")
    if full_bytes is not None:
        headers.append(f"{FULL_BYTES_HEADER_PREFIX}{full_bytes}")
    headers.append(f"{CHECKSUM_HEADER_PREFIX}{pattern_body_checksum(body)}")
    return "".join(f"{line}\n" for line in headers) + body


def write_warehouse_entry(condensed: CondensedPatternSet, path: str | Path) -> None:
    """Atomically persist a (possibly condensed) warehouse entry.

    Renders :func:`warehouse_entry_text` once and writes it through
    :func:`_write_atomically`, like :func:`write_patterns_with_support`.
    """
    _write_atomically(path, warehouse_entry_text(condensed))


def read_warehouse_entry(
    path: str | Path,
) -> tuple[CondensedPatternSet, int | None]:
    """Load a warehouse entry without expanding it.

    Returns ``(condensed, full_bytes)`` where ``full_bytes`` is the
    gauge header when present. Files predating condensation — with or
    without the checksum header — parse as ``repr=full``, so every
    pre-existing ``.patterns`` file remains readable. Any malformed or
    inconsistent header, an unknown ``# repr=`` value (``ndi`` included:
    that representation is no longer read), checksum mismatch, or entry
    below the threshold raises :class:`~repro.errors.DataError`; the
    warehouse turns that into quarantine instead of serving corrupt
    feedstock.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read pattern file {path}: {exc}") from exc
    lines = text.splitlines(keepends=True)
    if not lines or not lines[0].startswith(SUPPORT_HEADER_PREFIX):
        raise DataError(
            f"{path} has no absolute_support header — was it written by "
            "write_patterns_with_support()?"
        )
    try:
        absolute_support = int(lines[0][len(SUPPORT_HEADER_PREFIX):])
    except ValueError as exc:
        raise DataError(f"{path}: malformed absolute_support header") from exc

    representation = "full"
    n_transactions: int | None = None
    full_bytes: int | None = None
    checksum: str | None = None
    metadata_seen = False
    body_start = 1

    def int_header(line: str, prefix: str) -> int:
        try:
            return int(line[len(prefix):])
        except ValueError as exc:
            raise DataError(f"{path}: malformed {prefix.strip('# =')} header") from exc

    for index in range(1, len(lines)):
        line = lines[index].rstrip("\n")
        if line.startswith(REPR_HEADER_PREFIX):
            representation = line[len(REPR_HEADER_PREFIX):].strip()
            if representation not in REPRESENTATIONS:
                raise DataError(
                    f"{path}: unknown representation {representation!r}"
                )
            metadata_seen = True
        elif line.startswith(NTRANS_HEADER_PREFIX):
            n_transactions = int_header(line, NTRANS_HEADER_PREFIX)
            metadata_seen = True
        elif line.startswith(FULL_BYTES_HEADER_PREFIX):
            full_bytes = int_header(line, FULL_BYTES_HEADER_PREFIX)
            metadata_seen = True
        elif line.startswith(CHECKSUM_HEADER_PREFIX):
            checksum = line[len(CHECKSUM_HEADER_PREFIX):].strip()
            body_start = index + 1
            break
        else:
            body_start = index
            break
    else:
        body_start = len(lines)

    if metadata_seen and checksum is None:
        # The condensed writer always closes the header block with the
        # checksum; metadata without it means the file was truncated in
        # the header region (where a body checksum cannot catch it).
        raise DataError(
            f"{path}: representation headers present but no checksum — "
            "the file is corrupt or truncated"
        )
    body = "".join(lines[body_start:])
    if checksum is not None:
        actual = pattern_body_checksum(body)
        if actual != checksum:
            raise DataError(
                f"{path}: body checksum mismatch (expected {checksum}, got "
                f"{actual}) — the file is corrupt or truncated"
            )
    entries = parse_patterns(io.StringIO(body))
    for items, support in entries.items():
        if support < absolute_support:
            raise DataError(
                f"{path}: entry {sorted(items)} has support {support} below "
                f"the header threshold {absolute_support}"
            )
    try:
        condensed = CondensedPatternSet(
            representation,
            entries.as_dict(),
            absolute_support,
            n_transactions=n_transactions,
        )
    except MiningError as exc:
        raise DataError(f"{path}: invalid condensed entry: {exc}") from exc
    return condensed, full_bytes
