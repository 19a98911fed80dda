"""Experimental records and their CSV form.

One record is a teleported input amplitude together with the fidelity
measured for it. The on-disk format is a plain CSV file:

    beta_re,beta_im,fidelity
    0.25,-1.125,0.58
    ...

decimal-point reals, UTF-8, LF, CRLF or bare-CR line endings.

load_dataset reads a file or a pipe once, in blocks of whole lines, and
parses each block with one orjson call into three columns. A block whose
every line is three JSON numbers padded with spaces or tabs, ending in LF,
CRLF or a bare CR, with no integer 0 (JSON reads -0 as 0, float() as
-0.0) and values that Dataset accepts, stays with orjson. Any other block
is parsed line by line, which checks and decodes each line in turn, and
the next block goes to orjson again. Both give the same values. The
columns are sized from the file size and the first block's bytes per line,
grown in place when that falls short (a pipe reports size 0) and trimmed
at the end. The first defective line in the file is named, whatever its
defect, a byte that is not UTF-8 included, and nothing past its block is
read.

write_dataset's bytes equal those of a per-row writer joining repr(value).
It writes CHUNK_SIZE rows at a time: orjson dumps the values of the rows
inside 1e-4 <= |x| < 1e16 (or 0) as one flat list, whose separators become
line ends in place, and repr formats each other row, spliced in at its line.
"""

from __future__ import annotations

import codecs
import math
import os
from itertools import chain
from typing import Iterator, Optional

import numpy as np

__all__ = ["Dataset", "DatasetFormatError", "load_dataset", "write_dataset"]

CSV_HEADER = ("beta_re", "beta_im", "fidelity")

# write_dataset formats and writes this many rows at a time, so its memory
# stays flat in the number of records. Writing 1e6 rows took the same time
# at 4,096 to 16,384 rows a chunk, and longer at 32,768 and above.
CHUNK_SIZE = 8_192

# load_dataset reads and parses the file this many bytes at a time. A
# block's copies and its list of floats take about six times its size while
# it is parsed, so small blocks keep that a small share of the columns'
# memory; blocks of 1 MiB were no faster.
BLOCK_SIZE = 1 << 16

# The bytes a field may hold on the orjson path: a JSON number and its
# padding. JSON alone would also accept true, false, null, strings and
# brackets, which float() does not.
_FIELD_BYTES = b"0123456789.eE+- \t"


class DatasetFormatError(ValueError):
    """A dataset file that cannot be parsed or violates record invariants."""


class Dataset:
    """Column-wise container of records, spending memory on three float
    arrays instead of a million small objects."""

    def __init__(self, beta_re, beta_im, fidelity):
        self.beta_re = np.asarray(beta_re, dtype=float)
        self.beta_im = np.asarray(beta_im, dtype=float)
        self.fidelity = np.asarray(fidelity, dtype=float)
        if not (self.beta_re.shape == self.beta_im.shape == self.fidelity.shape) or self.beta_re.ndim != 1:
            raise ValueError("columns must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.beta_re)) and np.all(np.isfinite(self.beta_im))):
            raise ValueError("amplitudes must be finite")
        if not np.all((self.fidelity >= 0.0) & (self.fidelity <= 1.0)):
            raise ValueError("fidelity values must lie in [0, 1]")

    def __len__(self) -> int:
        return self.beta_re.size

    @property
    def beta(self) -> np.ndarray:
        return self.beta_re + 1j * self.beta_im

    @property
    def radius(self) -> float:
        """Largest sampled amplitude modulus (0 for an empty dataset)."""
        if len(self) == 0:
            return 0.0
        return float(np.max(np.hypot(self.beta_re, self.beta_im)))


def _parse_field(raw: str, column: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DatasetFormatError(f"line {line_no}: {column} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise DatasetFormatError(f"line {line_no}: {column} must be finite, got {raw!r}")
    return value


def utf8_error(data: bytes) -> Optional[str]:
    """The codec's reason why data is not UTF-8, or None when it is. No
    UTF-8 sequence holds a CR or LF byte, so a line that keeps its line end
    gives the reason a strict decode of the whole file gives."""
    try:
        data.decode("utf-8")
    except UnicodeError as exc:
        return exc.reason
    return None


def _decode(line: bytes, line_no: int) -> str:
    """line, which keeps its line end, as text without it; raise naming
    line_no when it is not UTF-8."""
    reason = utf8_error(line)
    if reason is not None:
        raise DatasetFormatError(f"line {line_no}: not valid UTF-8 ({reason})")
    return line.decode().rstrip("\r\n")


def _parse_lines(lines: list, line_no: int) -> np.ndarray:
    """Parse record lines that keep their line ends, counted from line_no,
    into a (rows, 3) array; skip blank lines and name the first offending
    line."""
    values = []
    for n, line in enumerate(lines, start=line_no):
        text = _decode(line, n)
        if not text.strip():
            continue
        parts = text.split(",")
        if len(parts) != 3:
            raise DatasetFormatError(f"line {n}: expected 3 fields, got {len(parts)}")
        b_re, b_im, f = (_parse_field(raw, column, n) for raw, column in zip(parts, CSV_HEADER))
        if not (0.0 <= f <= 1.0):
            raise DatasetFormatError(f"line {n}: fidelity {f} outside [0, 1]")
        values += (b_re, b_im, f)
    return np.array(values, dtype=float).reshape(-1, 3)


def _parse_block(block: bytes) -> Optional[np.ndarray]:
    """Parse whole CSV lines of three JSON numbers each with one orjson
    call into a (lines, 3) array, or return None when a line is not three
    numbers that float() reads to the same double, or holds values that
    Dataset rejects."""
    import orjson  # here, not at module level: `import telebound` stays lean

    if b"\r" in block:  # a byte scan, far cheaper than searching for CRLF
        # CRLF, then a bare CR, ends a line, as in bytes.splitlines; JSON
        # would read a CR as space. The CRLF search is slow on a block dense
        # with CRs, so a block with no LF, and so no CRLF, skips it.
        if b"\n" in block:
            block = block.replace(b"\r\n", b"\n")
        block = block.replace(b"\r", b"\n")
    if not block.endswith(b"\n"):
        block += b"\n"
    # Without its field bytes, each line must be exactly ",,\n". Any other
    # byte is left over and fails the comparison, such as a non-ASCII byte.
    separators = block.translate(None, _FIELD_BYTES)
    lines = len(separators) // 3
    if separators != b",,\n" * lines:
        return None
    try:
        values = orjson.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:  # an infinite value included
        return None
    if len(values) != 3 * lines:
        return None
    parsed = np.fromiter(values, float, len(values))
    # JSON's -0 is the integer 0, where float("-0") is -0.0.
    if any(type(values[i]) is int for i in np.flatnonzero(parsed == 0.0).tolist()):
        return None
    rows = parsed.reshape(lines, 3)
    fidelity = rows[:, 2]
    if not (np.isfinite(rows).all() and ((fidelity >= 0.0) & (fidelity <= 1.0)).all()):
        return None
    return rows


def _blocks(raw) -> Iterator[bytes]:
    """raw's bytes in blocks of about BLOCK_SIZE bytes, each cut after a
    line end; the last block ends where the bytes do. A block ends in a
    bare CR only once the byte after it is known not to be LF, so no block
    splits a CRLF. The reads since the last cut are joined once, at the
    next, so a long line costs its length once."""
    reads = []
    while data := raw.read(BLOCK_SIZE):
        cut = data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, len(data) - 1) + 1
        if cut:
            yield b"".join([*reads, data[:cut]])
            reads = []
        reads.append(data[cut:])
    if tail := b"".join(reads):
        yield tail


def load_dataset(path) -> Dataset:
    """Parse a CSV dataset from a path or a file descriptor, such as a
    pipe's, reading it once, a block at a time (see the module docstring).
    The first defective line is reported, with its number, and reading
    stops there."""
    with open(path, "rb") as raw:
        size = os.fstat(raw.fileno()).st_size
        blocks = _blocks(raw)
        first = next(blocks, b"")
        bom = len(codecs.BOM_UTF8) if first.startswith(codecs.BOM_UTF8) else 0
        if len(first) == bom:
            raise DatasetFormatError("empty file: expected a header line")
        consumed = len(first.splitlines(keepends=True)[0])
        header = _decode(first[bom:consumed], 1)
        if tuple(part.strip() for part in header.split(",")) != CSV_HEADER:
            raise DatasetFormatError(
                f"line 1: expected header {','.join(CSV_HEADER)!r}, got {header!r}")
        body = chain((first[consumed:],) if consumed < len(first) else (), blocks)
        columns, row, line_no = [np.empty(0) for _ in CSV_HEADER], 0, 2
        for block in body:
            consumed += len(block)
            parsed = _parse_block(block)
            if parsed is None:
                lines = block.splitlines(keepends=True)
                parsed = _parse_lines(lines, line_no)
                line_no += len(lines)
            else:
                line_no += len(parsed)
            end = row + len(parsed)
            if end > columns[0].size:
                # The file's rows at the bytes per row so far, or a quarter
                # more when its size is unknown (a pipe reports 0) or passed.
                capacity = end * (size if size >= consumed else consumed + consumed // 4) // consumed
                capacity += capacity // 64 + 1
                if row:
                    for column in columns:
                        column.resize(capacity, refcheck=False)  # keeps the rows
                else:
                    # resize zero-fills what it adds; np.empty leaves the
                    # pages of an overestimate untouched.
                    columns = [np.empty(capacity) for _ in CSV_HEADER]
            for column, values in zip(columns, parsed.T):
                column[row:end] = values
            row = end
    if row == 0:
        raise DatasetFormatError("dataset has a header but no records")
    # A tail under a 4 KiB page frees no memory; realloc would only leave a heap fragment.
    if columns[0].size - row >= 512:
        for column in columns:
            column.resize(row, refcheck=False)
    return Dataset(*(column[:row] for column in columns))


def _format_rows(block: np.ndarray) -> bytes:
    """CSV lines for a C-contiguous (rows, 3) float64 block, byte-equal to
    joining the repr of each value. orjson writes the same shortest
    round-trip digits as repr, in the same notation for 0 and for
    1e-4 <= |x| < 1e16. It dumps the values of the rows holding only those
    as one flat list, whose every third comma and closing bracket become
    line ends in place. The rows holding any other value are formatted by
    repr and spliced in at their line offsets, so the Python work grows
    with those rows only."""
    import orjson  # here, not at module level: `import telebound` stays lean

    magnitude = np.abs(block)
    needs_repr = ~(((magnitude >= 1e-4) & (magnitude < 1e16)) | (block == 0.0)).all(axis=1)
    text = np.frombuffer(orjson.dumps(block[~needs_repr].ravel(), option=orjson.OPT_SERIALIZE_NUMPY),
                         np.uint8).copy()
    line_ends = np.flatnonzero(text == ord(","))[2::3]
    text[line_ends] = text[-1] = ord("\n")
    # Where each ordinary line starts in the text after the opening bracket,
    # and where the last one ends; an empty list ("[]") has no line.
    repr_rows = np.flatnonzero(needs_repr)
    starts = np.concatenate(([0], line_ends, [text.size - 1]))[:len(block) - repr_rows.size + 1]
    cuts = [0, *starts[repr_rows - np.arange(repr_rows.size)].tolist(), int(starts[-1])]
    body = memoryview(text)[1:]
    pieces = [None] * (2 * repr_rows.size + 1)
    pieces[0::2] = [body[a:b] for a, b in zip(cuts, cuts[1:])]
    pieces[1::2] = ["{!r},{!r},{!r}\n".format(*row).encode() for row in block[needs_repr].tolist()]
    return b"".join(pieces)


def write_dataset(path, records: Dataset) -> None:
    """Write records in the CSV format accepted by load_dataset.

    Each float is written as its repr, so a write/load round trip is
    bit-exact. Rows are formatted CHUNK_SIZE at a time by _format_rows, so
    the memory the write takes stays within a few chunks whatever the
    number of records; no Python code runs per row, except for a row that
    holds a value outside 1e-4 <= |x| < 1e16 (other than 0).
    """
    columns = (records.beta_re, records.beta_im, records.fidelity)
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_HEADER).encode() + b"\n")
        for start in range(0, len(records), CHUNK_SIZE):
            fh.write(_format_rows(np.column_stack([c[start:start + CHUNK_SIZE] for c in columns])))
