"""Experimental records and their CSV form.

One record is a teleported input amplitude together with the fidelity
measured for it. The on-disk format is a plain CSV file:

    beta_re,beta_im,fidelity
    0.25,-1.125,0.58
    ...

decimal-point reals, UTF-8, LF or CRLF line endings (a bare CR also ends a
line). Text input is decoded once, with errors="surrogateescape", so a byte
that is not UTF-8 reaches the reader, which names its line.

load_dataset reads a seekable file with orjson, in blocks of whole lines
parsed into preallocated columns. A file takes this path only when its
header is the exact line above (after an optional BOM), every record line
is three JSON numbers padded with spaces or tabs, every line end is LF or
CRLF, no value is an integer 0 (JSON reads -0 as 0, float() as -0.0), and
Dataset accepts the values. Any other file, and a pipe, which cannot be
read twice, is read by the line reader, which names the offending line.
Both give the same result.

write_dataset's bytes equal those of a per-row writer joining repr(value).
It writes CHUNK_SIZE rows at a time: orjson dumps the values of the rows
inside 1e-4 <= |x| < 1e16 (or 0) as one flat list, whose separators become
line ends in place, and repr formats each other row, spliced in at its line.
"""

from __future__ import annotations

import codecs
import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

__all__ = ["DatasetRecord", "Dataset", "DatasetFormatError", "load_dataset", "write_dataset"]

CSV_HEADER = ("beta_re", "beta_im", "fidelity")

# write_dataset formats and writes this many rows at a time, so its memory
# stays flat in the number of records. Writing 1e6 rows took the same time
# at 4,096 to 16,384 rows a chunk, and longer at 32,768 and above.
CHUNK_SIZE = 8_192

# load_dataset's fast path parses the file this many bytes at a time. A
# block's copies and its list of floats take about six times its size while
# it is parsed, so small blocks keep that a small share of the columns'
# memory; blocks of 1 MiB were no faster.
BLOCK_SIZE = 1 << 16

_HEADER_LINES = tuple(",".join(CSV_HEADER).encode() + end for end in (b"\n", b"\r\n"))

# The bytes a field may hold on the fast path: a JSON number and its
# padding. JSON alone would also accept true, false, null, strings and
# brackets, which float() does not.
_FIELD_BYTES = b"0123456789.eE+- \t"


class DatasetFormatError(ValueError):
    """A dataset file that cannot be parsed or violates record invariants."""


@dataclass(frozen=True)
class DatasetRecord:
    beta_re: float
    beta_im: float
    fidelity: float


class Dataset:
    """Column-wise container of records, spending memory on three float
    arrays instead of a million small objects. Behaves as a sequence of
    DatasetRecord."""

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

    def __getitem__(self, i: int) -> DatasetRecord:
        return DatasetRecord(float(self.beta_re[i]), float(self.beta_im[i]), float(self.fidelity[i]))

    def __iter__(self) -> Iterator[DatasetRecord]:
        for i in range(len(self)):
            yield self[i]

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


def _header(line: str) -> tuple:
    return tuple(part.strip() for part in line.split(","))


def utf8_error(line: str) -> Optional[str]:
    """The codec's reason why a line read with errors="surrogateescape" is
    not UTF-8, or None when it is. The escape is lossless, so the line
    re-encodes to its exact bytes; no UTF-8 sequence holds a CR or LF byte,
    so a line that keeps its line end gives the reason a strict decode of
    the whole file gives."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError as exc:
        return exc.reason
    return None


def _read_lines(fh) -> Dataset:
    """Parse an open CSV dataset line by line, naming the first offending
    line. Lines end where the file object splits them: LF, CRLF or CR. A
    byte that is not UTF-8 is reported before any other defect."""
    lines = []
    for line_no, line in enumerate(fh, start=1):
        reason = utf8_error(line)
        if reason is not None:
            raise DatasetFormatError(f"line {line_no}: not valid UTF-8 ({reason})")
        lines.append(line.rstrip("\r\n"))
    if not lines:
        raise DatasetFormatError("empty file: expected a header line")
    if _header(lines[0]) != CSV_HEADER:
        raise DatasetFormatError(
            f"line 1: expected header {','.join(CSV_HEADER)!r}, got {lines[0]!r}")
    re, im, fid = [], [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DatasetFormatError(f"line {line_no}: expected 3 fields, got {len(parts)}")
        b_re = _parse_field(parts[0], "beta_re", line_no)
        b_im = _parse_field(parts[1], "beta_im", line_no)
        f = _parse_field(parts[2], "fidelity", line_no)
        if not (0.0 <= f <= 1.0):
            raise DatasetFormatError(f"line {line_no}: fidelity {f} outside [0, 1]")
        re.append(b_re)
        im.append(b_im)
        fid.append(f)
    if not re:
        raise DatasetFormatError("dataset has a header but no records")
    return Dataset(np.array(re), np.array(im), np.array(fid))


def _parse_block(block: bytes, table: np.ndarray, row: int) -> Optional[int]:
    """Parse whole CSV lines of three JSON numbers each into table[:, row:]
    with one orjson call; return the line count, or None when a line is not
    three numbers that float() reads to the same double."""
    import orjson  # here, not at module level: `import telebound` stays lean

    if b"\r" in block:  # a byte scan, far cheaper than searching for CRLF
        block = block.replace(b"\r\n", b"\n")
    if not block.endswith(b"\n"):
        block += b"\n"
    # Without its field bytes, each line must be exactly ",,\n". Any other
    # byte is left over and fails the comparison: a bare CR, which ends a
    # line in text mode but is space to JSON, and any non-ASCII byte.
    separators = block.translate(None, _FIELD_BYTES)
    lines = len(separators) // 3
    if separators != b",,\n" * lines or row + lines > table.shape[1]:
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
    table[:, row:row + lines] = parsed.reshape(lines, 3).T
    return lines


def _pieces(raw, size: int) -> Iterator[bytes]:
    """The next `size` bytes of raw, BLOCK_SIZE bytes at a time."""
    while size > 0:
        data = raw.read(min(BLOCK_SIZE, size))
        if not data:
            return
        size -= len(data)
        yield data


def _blocks(raw, size: int) -> Iterator[bytes]:
    """The next `size` bytes of raw, in blocks of about BLOCK_SIZE bytes cut
    after a line end (the last block ends where the bytes do)."""
    carry = b""
    for data in _pieces(raw, size):
        data = carry + data
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        carry = data[cut:]
    if carry:
        yield carry


def _read_fast(raw) -> Optional[Dataset]:
    """Parse a seekable binary CSV dataset a block at a time into one
    preallocated (3, rows) table, or return None when the header or any
    block is not what _parse_block accepts, or there is no record. A first
    pass counts the line ends."""
    head = raw.readline()
    if head.startswith(codecs.BOM_UTF8):
        head = head[len(codecs.BOM_UTF8):]
    if head not in _HEADER_LINES:
        return None
    start = raw.tell()
    size = raw.seek(0, os.SEEK_END) - start
    raw.seek(start)
    line_ends = sum(data.count(b"\n") for data in _pieces(raw, size))
    raw.seek(start)
    # One more column for a last line with no line end; each row of the
    # table stays contiguous when the unused column is cut off.
    table = np.empty((3, line_ends + 1))
    row = 0
    for block in _blocks(raw, size):
        lines = _parse_block(block, table, row)
        if lines is None:
            return None
        row += lines
    if row == 0:  # a header and nothing else: the line reader's error
        return None
    try:
        return Dataset(*table[:, :row])  # finite amplitudes, fidelities in [0, 1]
    except ValueError:
        return None


def load_dataset(path) -> Dataset:
    """Parse a CSV dataset, reporting the offending line on any defect.

    A seekable file is parsed in blocks by orjson (see the module
    docstring); a file it does not accept is read again line by line, which
    names the offending line. A stream that cannot be read twice, such as a
    pipe, is read line by line only. Either way a byte that is not UTF-8 is
    named by its line.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        if fh.seekable():
            ds = _read_fast(fh.buffer)
            if ds is not None:
                return ds
            fh.seek(0)
        return _read_lines(fh)


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
