"""Experimental records and their CSV form.

One record is a teleported input amplitude together with the fidelity
measured for it. The on-disk format is a plain CSV file:

    beta_re,beta_im,fidelity
    0.25,-1.125,0.58
    ...

decimal-point reals, UTF-8, LF or CRLF line endings (a bare CR also ends a
line).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

__all__ = ["DatasetRecord", "Dataset", "DatasetFormatError", "load_dataset", "write_dataset"]

CSV_HEADER = ("beta_re", "beta_im", "fidelity")

# write_dataset formats and writes this many rows at a time, so its memory
# stays flat in the number of records.
CHUNK_SIZE = 65_536


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

    @classmethod
    def from_records(cls, records: Iterable[DatasetRecord]) -> "Dataset":
        rows = [(r.beta_re, r.beta_im, r.fidelity) for r in records]
        if not rows:
            return cls(np.empty(0), np.empty(0), np.empty(0))
        re, im, f = zip(*rows)
        return cls(np.array(re), np.array(im), np.array(f))

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


Records = Union[Dataset, Iterable[DatasetRecord]]


def as_dataset(records: Records) -> Dataset:
    if isinstance(records, Dataset):
        return records
    return Dataset.from_records(records)


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


def undecodable_line(fh) -> Optional[int]:
    """Line number of the first byte of the open text file fh that is not
    UTF-8, with lines ending at LF, CRLF or CR; None when fh cannot be read
    again. The text layer decodes ahead in chunks, so the line is counted in
    the raw bytes, where no UTF-8 sequence contains a CR or LF byte."""
    if not fh.seekable():
        return None
    fh.buffer.seek(0)
    line_no = 1
    for line in fh.buffer:
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = line[:exc.start]
            return line_no + head.count(b"\r") - head.count(b"\r\n")
        line_no += 1 + line.count(b"\r") - line.count(b"\r\n")
    return None


def _read_lines(fh) -> Dataset:
    """Parse an open CSV dataset line by line, naming the first offending
    line. Lines end where the file object splits them: LF, CRLF or CR."""
    try:
        lines = [line.rstrip("\r\n") for line in fh]
    except UnicodeDecodeError as exc:
        line_no = undecodable_line(fh)
        where = f"line {line_no}: " if line_no else ""
        raise DatasetFormatError(f"{where}not valid UTF-8 ({exc.reason})") from None
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


def _read_bulk(fh) -> Optional[Dataset]:
    """Parse an open CSV dataset with np.loadtxt, or return None when the
    header, the record count or any record is not what _read_lines accepts."""
    try:
        if _header(fh.readline()) != CSV_HEADER:
            return None
        # loadtxt warns on input with no data; that file is _read_lines' error.
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            return None
        table = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2)
        if table.shape[1] == 3:
            # Dataset rejects non-finite amplitudes and fidelities outside
            # [0, 1]; the copy makes each column contiguous.
            return Dataset(*table.T.copy())
    except ValueError:  # UnicodeDecodeError included
        pass
    return None


def load_dataset(path) -> Dataset:
    """Parse a CSV dataset, reporting the offending line on any defect.

    The records are parsed in bulk; a file the bulk parse does not accept is
    read again line by line, which names the offending line. A stream that
    cannot be read twice, such as a pipe, is read line by line only.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        if fh.seekable():
            ds = _read_bulk(fh)
            if ds is not None:
                return ds
            fh.seek(0)
        return _read_lines(fh)


def write_dataset(path, records: Records) -> None:
    """Write records in the CSV format accepted by load_dataset.

    Floats are written with repr precision, so a write/load round trip is
    bit-exact.
    """
    ds = as_dataset(records)
    columns = (ds.beta_re, ds.beta_im, ds.fidelity)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for start in range(0, len(ds), CHUNK_SIZE):
            fields = [map(repr, c[start:start + CHUNK_SIZE].tolist()) for c in columns]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
