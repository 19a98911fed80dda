import decimal
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import orjson
import pytest

from telebound import (
    Constant,
    Dataset,
    DatasetFormatError,
    Gain,
    INCONCLUSIVE,
    NONCLASSICAL,
    Report,
    bootstrap_ci,
    generate_dataset,
    load_dataset,
    verdict,
    weighted_fidelity,
    write_dataset,
)

from telebound import certify
from telebound.core import seeded_stream
from telebound.data import BLOCK_SIZE, CHUNK_SIZE, CSV_HEADER, _blocks

from _oracles import _read_lines, truncated_gain_closed


_HEADER = "beta_re,beta_im,fidelity\n"


def _write(tmp_path, text, name="ds.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_single_record_at_origin(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "beta_re,beta_im,fidelity\n0,0,1\n"))
        assert (ds.beta_re.tolist(), ds.beta_im.tolist(), ds.fidelity.tolist()) == ([0.0], [0.0], [1.0])
        assert ds.radius == 0.0

    def test_header_only_rejected(self, tmp_path):
        # Header then blank lines too: the usual error, and no numpy warning.
        for rest in ("", "\n", "\n\n\n", "\r\n  \r\n\t"):
            with pytest.raises(DatasetFormatError, match="^dataset has a header but no records$"):
                load_dataset(_write(tmp_path, _HEADER + rest))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(_write(tmp_path, ""))

    def test_wrong_header_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(_write(tmp_path, "x,y,f\n0,0,1\n"))

    def test_fidelity_above_one_names_line(self, tmp_path):
        text = "beta_re,beta_im,fidelity\n0,0,0.5\n1,1,1.2\n"
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(_write(tmp_path, text))

    def test_non_numeric_names_line(self, tmp_path):
        text = "beta_re,beta_im,fidelity\n0,oops,0.5\n"
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(_write(tmp_path, text))

    def test_wrong_field_count_names_line(self, tmp_path):
        text = "beta_re,beta_im,fidelity\n0,0\n"
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(_write(tmp_path, text))

    def test_crlf_and_blank_lines_accepted(self, tmp_path):
        text = "beta_re,beta_im,fidelity\r\n0.5,-0.25,0.9\r\n\r\n1,0,0.8\r\n"
        ds = load_dataset(_write(tmp_path, text))
        assert len(ds) == 2
        assert ds.radius == pytest.approx(1.0)

    @pytest.mark.parametrize("text,fast", [
        pytest.param(_HEADER + "0.5,-0.25,0.9\n1,0,0.8\n", False, id="lf"),
        pytest.param(_HEADER.replace("\n", "\r\n") + "0.5,-0.25,0.9\r\n1,0,0.8\r\n", False, id="crlf"),
        pytest.param(_HEADER.replace("\n", "\r") + "0.5,-0.25,0.9\r1,0,0.8\r", False, id="bare-cr"),
        pytest.param(_HEADER + "\n0.5,-0.25,0.9\n\n\n1,0,0.8\n\n", False, id="blank-lines"),
        pytest.param(_HEADER + "  \n0.5,-0.25,0.9\n \t \n1,0,0.8\n", False, id="whitespace-lines"),
        pytest.param(_HEADER + " 0.5 ,  -0.25,0.9  \n", True, id="padded-fields"),
        pytest.param(_HEADER + "\t0.5,-0.25\t,\t0.9\n", True, id="tab"),
        pytest.param(_HEADER + "+1,+0.5,+0.25\n", False, id="plus-sign"),
        pytest.param(_HEADER + ".5,5.,0.5\n", False, id="bare-point"),
        pytest.param(_HEADER + "1_0,0,0.5\n", False, id="underscore"),
        pytest.param(_HEADER + "0,0,0.5\nnan,0,0.5\n", False, id="nan-amplitude"),
        pytest.param(_HEADER + "0,0,nan\n", False, id="nan-fidelity"),
        pytest.param(_HEADER + "0,inf,0.5\n", False, id="inf"),
        pytest.param(_HEADER + "0,0,Infinity\n", False, id="Infinity"),
        pytest.param(_HEADER + "1e,0,0.5\n", False, id="bare-exponent"),
        pytest.param(_HEADER + "1d0,0,0.5\n", False, id="fortran-exponent"),
        pytest.param(_HEADER + "0x1p-1,0,0.5\n", False, id="hex-float"),
        pytest.param(_HEADER + '"1",0,0.5\n', False, id="quoted-field"),
        pytest.param(_HEADER + "# comment\n0,0,0.5\n", False, id="comment"),
        pytest.param(_HEADER + "0,0,0.5,\n", False, id="trailing-comma"),
        pytest.param(_HEADER + "0,,0.5\n", False, id="empty-field"),
        pytest.param(_HEADER + "0,0\n", False, id="two-fields"),
        pytest.param(_HEADER + "0,0,0.5,0.5\n1,1,0.5,0.5\n", False, id="four-fields"),
        pytest.param(_HEADER + "0,0,0.5\n1,1,1.2\n", False, id="fidelity-above-one"),
        pytest.param(_HEADER + "0.5,-0.25,0.9\n1,0,0.8", False, id="no-final-newline"),
        pytest.param("\ufeff" + _HEADER + "0.5,-0.25,0.9\n", True, id="utf8-bom"),
        pytest.param(_HEADER + "0,0,-0.0\n", False, id="negative-zero-fidelity"),
        pytest.param(_HEADER + "1,2\x0c,0.5\n3\x85,4,0.5\n", False, id="form-feed-and-nel"),
        pytest.param(_HEADER + "\uff11,0,0.5\n", False, id="fullwidth-digit"),
        pytest.param("x,y,f\n0,0,1\n", False, id="wrong-header"),
        pytest.param(_HEADER + "\n \n", False, id="header-then-blank"),
        pytest.param("", False, id="empty-file"),
        # A bytes input is written as is: here the 0xff sits on line 3, past
        # CR and CRLF line ends.
        pytest.param(_HEADER.encode() + b"0,0,0.5\r\n1,1,0.5\r0.\xff5,0,0.5\n", False, id="non-utf8"),
        # A format defect on line 2 and a bad byte on line 4: the first
        # defective line, line 2, is reported.
        pytest.param(_HEADER.encode() + b"0,oops,0.5\n1,1,0.5\n0.\xff5,0,0.5\n", False,
                     id="format-error-before-non-utf8"),
        # A bad byte on line 2 and a format defect on line 3.
        pytest.param(_HEADER.encode() + b"0,\xff,0.5\n0,oops,0.5\n", False,
                     id="non-utf8-before-format-error"),
        # The orjson fast path: JSON values that float() does not read, JSON
        # numbers that it reads differently, and a CR that JSON takes as space.
        pytest.param(_HEADER + "true,0.5,0.5\n", False, id="json-true"),
        pytest.param(_HEADER + "0.5,null,0.5\n", False, id="json-null"),
        pytest.param(_HEADER + "-0,0.5,0.5\n", False, id="integer-negative-zero"),
        pytest.param(_HEADER + "1e400,0,0.5\n", False, id="1e400"),
        pytest.param(_HEADER + "1234567890123456789012345,0.5,0.5\n", False, id="25-digit-integer"),
        pytest.param(_HEADER + "0.5,0.5,\r0.5\n", False, id="cr-inside-line"),
        pytest.param(_HEADER + "[1],0,0.5\n", False, id="json-array"),
        pytest.param(_HEADER + "0.5,0.5,0.5,0.5\n0.5,0.5\n", False, id="fields-across-lines"),
        # The writer writes no integer token; files that hold one only as a
        # nonzero value keep the fast path, and an integer 0 leaves it.
        pytest.param(_HEADER + "0.5,-0.25,0.9\n1.0,0.0,0.8\n", True, id="lf-float"),
        pytest.param(_HEADER.replace("\n", "\r\n") + "0.5,-0.25,0.9\r\n1.0,0.0,0.8\r\n", True,
                     id="crlf-float"),
        pytest.param(_HEADER.replace("\n", "\r") + "0.5,-0.25,0.9\r1.0,0.0,0.8\r", True,
                     id="bare-cr-float"),
        pytest.param(_HEADER + "0.5,-0.25,0.9\n1.0,0.0,0.8", True, id="no-final-newline-float"),
    ])
    def test_bulk_parse_matches_line_reader(self, tmp_path, monkeypatch, text, fast):
        path = tmp_path / "ds.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            try:
                expected = _read_lines(fh)
            except DatasetFormatError as exc:
                expected = exc
        if fast:
            # These files must not need the per-line parser at all.
            monkeypatch.setattr("telebound.data._parse_lines", None)
        try:
            got = load_dataset(path)
        except DatasetFormatError as exc:
            assert isinstance(expected, DatasetFormatError)
            assert str(exc) == str(expected)
            return
        assert isinstance(expected, Dataset)
        for column in ("beta_re", "beta_im", "fidelity"):
            a, b = getattr(got, column), getattr(expected, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous

    @pytest.mark.parametrize("data,message", [
        # A bad byte in the header is reported as such, not as a wrong header.
        pytest.param(b"beta_re,\xff,fidelity\n0,0,0.5\n",
                     "line 1: not valid UTF-8 (invalid start byte)", id="header"),
        # A multibyte sequence cut by a line end, then by the end of the file:
        # each line keeps its line end, so the reasons are a strict decode's.
        pytest.param(_HEADER.encode() + b"0,0,0.5\xe2\x82\r\n1,1,0.5\n",
                     "line 2: not valid UTF-8 (invalid continuation byte)", id="cut-at-line-end"),
        pytest.param(_HEADER.encode() + b"0,0,0.5\n1,1,0.5\xe2\x82",
                     "line 3: not valid UTF-8 (unexpected end of data)", id="cut-at-eof"),
        # A format defect in the first block, and a bad byte two blocks on:
        # the format defect is reported, and the later blocks are not read.
        pytest.param(_HEADER.encode() + b"0,oops,0.5\n" + b"0.5,0.5,0.5\n" * 12_000 + b"\xff\n",
                     "line 2: beta_im is not a number: 'oops'", id="format-error-blocks-before-non-utf8"),
    ])
    def test_non_utf8_message(self, tmp_path, data, message):
        path = tmp_path / "ds.csv"
        path.write_bytes(data)
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    @pytest.mark.parametrize("rows,message", [
        ("0.5,-0.25,0.9\n", None),
        ("0.5,-0.25,0.9\n1,1,1.2\n", "line 3: fidelity 1.2 outside [0, 1]"),
        pytest.param("0.5,-0.25,0.9\n1,1,\udcff\n", "line 3: not valid UTF-8 (invalid start byte)",
                     id="non-utf8"),
    ])
    def test_pipe_is_read_once(self, rows, message):
        # A pipe cannot be re-read after a rejected bulk parse; the per-line
        # parser must still name the line.
        read_fd, write_fd = os.pipe()
        os.write(write_fd, (_HEADER + rows).encode("utf-8", "surrogateescape"))
        os.close(write_fd)
        if message is None:
            ds = load_dataset(read_fd)
            assert (ds.beta_re.tolist(), ds.beta_im.tolist(), ds.fidelity.tolist()) == ([0.5], [-0.25], [0.9])
        else:
            with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
                load_dataset(read_fd)

    def test_pipe_stops_at_the_first_bad_line(self):
        # The first block holds a bad line 2, and the writer keeps the pipe
        # open after it: the reader must not wait for the rest.
        read_fd, write_fd = os.pipe()
        rows = (_HEADER + "0,oops,0.5\n" + "0.5,0.5,0.5\n" * (BLOCK_SIZE // 12)).encode()
        release, errors = threading.Event(), []

        def write():
            os.write(write_fd, rows[:BLOCK_SIZE])
            release.wait()
            os.close(write_fd)

        def load():
            try:
                load_dataset(read_fd)
            except DatasetFormatError as exc:
                errors.append(str(exc))

        writer, loader = threading.Thread(target=write), threading.Thread(target=load)
        writer.start()
        loader.start()
        try:
            loader.join(timeout=10.0)
            assert not loader.is_alive()
            assert errors == ["line 2: beta_im is not a number: 'oops'"]
        finally:
            release.set()
            writer.join()
            loader.join()

    def test_long_line_is_joined_once(self, monkeypatch):
        # A line with no line end, read 256 bytes at a time: 8,192 reads
        # that must not each copy the ones before them.
        monkeypatch.setattr("telebound.data.BLOCK_SIZE", 256)
        body = b"0" * (2 << 20)
        start = time.perf_counter()
        blocks = list(_blocks(io.BytesIO(body)))
        assert time.perf_counter() - start < 0.5
        assert blocks == [body]

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_dataset_rejects_fidelity_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="fidelity"):
            Dataset([0.0, 1.0], [0.0, 0.5], [bad, 0.5])

    def test_write_load_roundtrip_is_bit_exact(self, tmp_path):
        ds = generate_dataset(2.0, 500, Gain(0.7), seed=3)
        path = tmp_path / "rt.csv"
        write_dataset(path, ds)
        back = load_dataset(path)
        assert np.array_equal(back.beta_re, ds.beta_re)
        assert np.array_equal(back.beta_im, ds.beta_im)
        assert np.array_equal(back.fidelity, ds.fidelity)

    @staticmethod
    def _write_special(tmp_path):
        """1,000 written rows of about 55 bytes; the values whose notation
        departs from the common one sit at the start, middle and end."""
        rng = np.random.default_rng(5)
        n = 1_000
        re_, im, fid = rng.normal(size=n), rng.normal(size=n), rng.random(n)
        for at in (0, n // 2, n - 4):
            re_[at:at + 4] = [1e-05, 5e-324, 1e16, -0.0]
            im[at:at + 4] = [-0.0, 1e16, 5e-324, 1e-05]
            fid[at:at + 4] = [5e-324, -0.0, 1e-05, 1.0]
        path = tmp_path / "special.csv"
        write_dataset(path, Dataset(re_, im, fid))
        return Dataset(re_, im, fid), path

    @staticmethod
    def _write_body(tmp_path, size):
        """A written dataset whose lines after the header take `size` bytes:
        rows of 12 bytes, the first lengthened by size % 12 digits."""
        fid = np.full(size // 12, 0.5)
        fid[0] = 2.0 ** -(1 + size % 12)  # repr has 3 + size % 12 characters
        ds = Dataset(np.full_like(fid, 0.5), np.full_like(fid, 0.5), fid)
        path = tmp_path / f"body-{size}.csv"
        write_dataset(path, ds)
        assert path.stat().st_size == len(_HEADER) + size
        return ds, path

    @pytest.mark.parametrize("block_size", [40, 97])
    def test_fast_path_across_blocks(self, tmp_path, monkeypatch, block_size):
        # Blocks shorter than a row, and of one or two rows: every read ends
        # inside a row, which the next block must complete. A one-record
        # file, and bodies one byte short of a block, of one block and one
        # byte past it, are read by the same blocks.
        ds, path = self._write_special(tmp_path)
        cut = tmp_path / "no-final-newline.csv"
        cut.write_bytes(path.read_bytes()[:-1])
        one = Dataset([0.25], [-1.125], [0.58])
        write_dataset(tmp_path / "one.csv", one)
        cases = [(ds, path), (ds, cut), (one, tmp_path / "one.csv")]
        cases += [self._write_body(tmp_path, block_size + d) for d in (-1, 0, 1)]
        monkeypatch.setattr("telebound.data.BLOCK_SIZE", block_size)
        monkeypatch.setattr("telebound.data._parse_lines", None)
        for written, p in cases:
            back = load_dataset(p)
            for column in ("beta_re", "beta_im", "fidelity"):
                a, b = getattr(back, column), getattr(written, column)
                assert a.tobytes() == b.tobytes() and a.flags.c_contiguous

    def test_random_files_match_line_reader(self, tmp_path, monkeypatch):
        # Small files of tokens that the two readers treat differently, cut
        # into blocks of 1 to 40 bytes or the default: load_dataset must give
        # the line reader's columns or its message. Most fields come from
        # the tokens the orjson path reads, so about a fifth of the files
        # stay on it, a fifth load line by line and the rest are rejected.
        rng = np.random.default_rng(15)
        tokens = ["0", "-0", "0.5", "-0.25", "1", "1e-5", "-1E+2", "+1", ".5", "5.", " 0.5",
                  "\t-0.25 ", "nan", "inf", "1e400", "true", "", "-0.0", "1_0"]
        amplitudes = ["0.5", "-0.25", "1", "1e-5", "-1E+2", " 0.5", "\t-0.25 ", "-0.0"]
        fidelities = ["0.5", "1", "1e-5", " 0.5", "-0.0"]
        ends = ["\n", "\r\n", "\r"]

        def field(column):
            pool = tokens if rng.random() < 0.1 else fidelities if column == 2 else amplitudes
            return pool[rng.integers(len(pool))]

        def end():
            return ends[rng.choice(3, p=[0.5, 0.45, 0.05])]

        path = tmp_path / "ds.csv"
        for _ in range(500):
            text = _HEADER.replace("\n", end())
            for _ in range(rng.integers(0, 7)):
                width = rng.choice([0, 2, 3, 4], p=[0.1, 0.05, 0.8, 0.05])
                text += ",".join(field(i % 3) for i in range(width)) + end()
            if rng.random() < 0.25:
                text = text.rstrip("\r\n")
            path.write_bytes(text.encode())
            with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
                try:
                    expected = _read_lines(fh)
                except DatasetFormatError as exc:
                    expected = exc
            monkeypatch.setattr("telebound.data.BLOCK_SIZE", int(rng.choice([1, 5, 13, 40, BLOCK_SIZE])))
            try:
                got = load_dataset(path)
            except DatasetFormatError as exc:
                assert str(exc) == str(expected), text
                continue
            assert isinstance(expected, Dataset), text
            for column in ("beta_re", "beta_im", "fidelity"):
                assert getattr(got, column).tobytes() == getattr(expected, column).tobytes(), text

    @pytest.mark.parametrize("row,bad,message", [
        pytest.param(500, "1.5", "line 502: fidelity 1.5 outside [0, 1]", id="middle-block"),
        pytest.param(999, "true", "line 1001: fidelity is not a number: 'true'", id="last-block"),
    ])
    def test_fast_path_defect_names_line(self, tmp_path, monkeypatch, row, bad, message):
        _, path = self._write_special(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[row + 1] = lines[row + 1].rsplit(b",", 1)[0] + b"," + bad.encode()
        path.write_bytes(b"\n".join(lines))
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
                _read_lines(fh)
        monkeypatch.setattr("telebound.data.BLOCK_SIZE", 97)
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    @pytest.mark.parametrize("block_size", [None, 97])
    @pytest.mark.parametrize("line_end", ["crlf", "bare-cr"])
    def test_line_ends_across_blocks(self, tmp_path, monkeypatch, line_end, block_size):
        # About 160 KB: several blocks at the default size too. A CRLF file,
        # and one with a bare CR in a middle block, stay on the fast path.
        rng = np.random.default_rng(8)
        n = 3_000
        ds = Dataset(rng.normal(size=n), rng.normal(size=n), rng.random(n))
        path = tmp_path / "ds.csv"
        write_dataset(path, ds)
        if line_end == "crlf":
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        else:
            text = path.read_bytes()
            at = text.index(b"\n", len(text) // 2)
            path.write_bytes(text[:at] + b"\r" + text[at + 1:])
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            expected = _read_lines(fh)
        if block_size is not None:
            monkeypatch.setattr("telebound.data.BLOCK_SIZE", block_size)
        monkeypatch.setattr("telebound.data._parse_lines", None)
        got = load_dataset(path)
        for column in ("beta_re", "beta_im", "fidelity"):
            a, b = getattr(got, column), getattr(expected, column)
            assert a.tobytes() == b.tobytes() == getattr(ds, column).tobytes()

    @pytest.mark.parametrize("source", ["file", "blank-line", "pipe"])
    def test_load_peak_memory(self, tmp_path, source):
        # The columns are filled in place, a block at a time, so the peak is
        # the columns and one block's copies. A block with a blank line is
        # parsed line by line on its own, and a pipe, whose size is unknown,
        # grows the columns in place.
        rng = np.random.default_rng(6)
        n = 262_144
        path = tmp_path / "big.csv"
        write_dataset(path, Dataset(rng.normal(size=n), rng.normal(size=n), rng.random(n)))
        load_dataset(_write(tmp_path, _HEADER + "0.5,-0.25,0.9\n", "warm.csv"))  # imports orjson
        expected, target, writer = load_dataset(path), path, None
        if source == "blank-line":
            text = path.read_bytes()
            at = int(np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))[n // 2]) + 1
            path.write_bytes(text[:at] + b"\n" + text[at:])
        elif source == "pipe":
            text = path.read_bytes()
            target, write_fd = os.pipe()

            def feed():
                with open(write_fd, "wb") as out:
                    out.write(text)

            writer = threading.Thread(target=feed)
            writer.start()
        tracemalloc.start()
        try:
            ds = load_dataset(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if writer is not None:
                writer.join(timeout=60)
                assert not writer.is_alive()
        assert peak < (2.0 if source == "pipe" else 1.5) * 3 * ds.beta_re.nbytes
        for column in ("beta_re", "beta_im", "fidelity"):
            assert getattr(ds, column).tobytes() == getattr(expected, column).tobytes()

    def test_orjson_parses_floats_as_float_does(self):
        # The fast path's values are orjson's, and its exactness rests on
        # this: the shortest repr of random bit patterns, 17 to 40 digit
        # mantissas over the whole exponent range, and exact midpoints
        # between adjacent doubles, where rounding is hardest.
        rng = np.random.default_rng(12)
        n = 20_000
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
        strings = list(map(repr, bits[np.isfinite(bits)].tolist()))
        digits = rng.integers(ord("0"), ord("9") + 1, size=(n, 40), dtype=np.uint8).tobytes().decode()
        signs = rng.choice(["", "-"], n).tolist()
        lengths, exponents = rng.integers(17, 41, n).tolist(), rng.integers(-330, 311, n).tolist()
        strings += [f"{s}{digits[40 * i]}.{digits[40 * i + 1:40 * i + k]}e{e}"
                    for i, (s, k, e) in enumerate(zip(signs, lengths, exponents))]
        low = np.abs(rng.integers(0, 2**64, size=n // 2, dtype=np.uint64).view(np.float64))
        low = low[low < np.inf]
        with decimal.localcontext() as ctx:
            ctx.prec = 800  # exact: no double needs more than 767 digits
            strings += [str((decimal.Decimal(a) + decimal.Decimal(b)) / 2)
                        for a, b in zip(low.tolist(), np.nextafter(low, np.inf).tolist())]
        assert len(strings) > 49_000
        expected = np.array([float(s) for s in strings])
        finite = np.isfinite(expected).tolist()
        # orjson rejects what float() rounds to infinity, as load_dataset does.
        for s in (s for s, f in zip(strings, finite) if not f):
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(s)
        got = np.fromiter(orjson.loads(("[" + ",".join(s for s, f in zip(strings, finite) if f) + "]").encode()),
                          float)
        assert got.view(np.int64).tolist() == expected[np.isfinite(expected)].view(np.int64).tolist()

    def test_write_matches_per_row_writer(self, tmp_path, monkeypatch):
        def write_per_row(path, ds):
            # The per-row writer write_dataset replaced, kept as the reference.
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(CSV_HEADER) + "\n")
                for i in range(len(ds)):
                    fh.write(f"{float(ds.beta_re[i])!r},{float(ds.beta_im[i])!r},"
                             f"{float(ds.fidelity[i])!r}\n")

        # Random 52-bit mantissas of both signs, with binary exponents from
        # -14 to 53: most rows stay where orjson formats every value
        # (1e-4 <= |x| < 1e16), and the rows with a value just outside it are
        # scattered repr rows. Rows 50,000 to 55,000 hold random bit patterns
        # over every exponent, formatted by repr. The edge values sit where
        # orjson's notation departs from repr's (1e-4 and 1e16): 50 ulps
        # either side of each power of ten from 1e-5 to 1e17, signed zeros,
        # the smallest subnormal and the largest double. They fill one column
        # at a time, in consecutive blocks of rows whose other values need no
        # repr, from the first chunk boundary that leaves room for half of
        # them before it.
        rng = np.random.default_rng(4)
        n = 70_000
        sign = rng.choice([-1.0, 1.0], (2, n))
        re, im = sign * np.ldexp(1.0 + rng.random((2, n)), rng.integers(-14, 54, (2, n)))
        fid = np.ldexp(1.0 + rng.random(n), rng.integers(-14, 0, n))
        magnitude = np.abs(np.stack([re, im, fid])[:, :50_000])
        assert np.count_nonzero(((magnitude >= 1e-4) & (magnitude < 1e16)).all(axis=0)) > 45_000
        bits = rng.integers(0, 2**64, size=(2, 5_000), dtype=np.uint64).view(np.float64)
        bits[~np.isfinite(bits)] = 0.5
        re[50_000:55_000], im[50_000:55_000] = bits
        powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
        ulps = (powers.view(np.int64)[:, None] + np.arange(-50, 51)).view(np.float64).ravel()
        edge = np.concatenate([ulps, -ulps, [0.0, -0.0, 5e-324, 1.7976931348623157e308,
                                             -1.7976931348623157e308]])
        unit = edge[(edge >= 0.0) & (edge <= 1.0)]
        half = 3 * edge.size // 2
        start = first = math.ceil(half / CHUNK_SIZE) * CHUNK_SIZE - half
        for column, values in ((re, edge), (im, edge), (fid, unit)):
            rows = slice(start, start + values.size)
            re[rows], im[rows], fid[rows] = *rng.normal(size=(2, values.size)), rng.random(values.size)
            column[rows] = values
            start += values.size
        assert start <= 50_000
        mixed = Dataset(re, im, fid)
        # At the small chunk sizes, 600 of its rows: into the edge block, and
        # into the random bit patterns.
        rows = np.r_[first - 150:first + 150, 49_850:50_150]
        window = Dataset(re[rows], im[rows], fid[rows])
        # A block with no value outside orjson's range, and an empty dataset.
        ordinary = Dataset(1.0 + rng.random(1_000), -8.0 - rng.random(1_000), 0.5 + rng.random(1_000) / 2)
        empty = Dataset([], [], [])

        for chunk in (CHUNK_SIZE, 1, 2, 3, 7):
            monkeypatch.setattr("telebound.data.CHUNK_SIZE", chunk)
            # chunk + 1 rows cross a chunk boundary; the special values sit
            # at both ends of the first chunk and in the one-row second chunk.
            n = chunk + 1
            re, im, fid = rng.normal(size=n), rng.normal(size=n) * 1e3, rng.random(n)
            special = [-0.0, 5e-324, 1e-5, 0.58, 1.0]
            for at in (0, max(0, chunk - len(special)), n - 1):
                k = min(len(special), n - at)
                re[at:at + k] = [-0.0, 5e-324, 1e-5, 1e16, -1e16][:k]
                im[at:at + k] = [0.58, -0.0, 1e16, 5e-324, 1e-5][:k]
                fid[at:at + k] = special[:k]
            datasets = [Dataset(re, im, fid)]

            # Rows that need repr as the first and the last row of chunk 0,
            # as two adjacent rows inside chunk 1, as every row of chunk 2,
            # and as the one row of the last chunk; chunk 3 has none.
            n = 4 * chunk + 1
            re, im, fid = rng.normal(size=n), rng.normal(size=n), rng.random(n)
            middle = chunk + chunk // 2
            for row in {0, chunk - 1, middle, min(middle + 1, 2 * chunk - 1), *range(2 * chunk, 3 * chunk), n - 1}:
                (re, im, fid)[row % 3][row] = 1e-4 * (1.0 - rng.random())
            datasets.append(Dataset(re, im, fid))

            datasets += [mixed if chunk == CHUNK_SIZE else window, ordinary, empty]
            for ds in datasets:
                write_dataset(tmp_path / "chunked.csv", ds)
                write_per_row(tmp_path / "per_row.csv", ds)
                assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()
            assert (tmp_path / "chunked.csv").read_bytes() == b"beta_re,beta_im,fidelity\n"

    def test_write_peak_memory(self, tmp_path):
        # Each chunk's block, its orjson text, the text's copy and the line
        # ends are freed before the next chunk: the peak is a few chunks,
        # whatever the number of rows (here 32 chunks).
        rng = np.random.default_rng(7)
        n = 262_144
        ds = Dataset(rng.normal(size=n), rng.normal(size=n), rng.random(n))
        write_dataset(tmp_path / "warm.csv", Dataset([0.5], [-0.25], [0.9]))  # imports orjson
        tracemalloc.start()
        try:
            write_dataset(tmp_path / "big.csv", ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 3 * 8 * CHUNK_SIZE


class TestWeightedFidelity:
    def test_constant_dataset_any_lambda(self):
        ds = generate_dataset(1.0, 500, Constant(0.58), seed=0)
        for lam in (0.0, 0.5, 4.60517, 50.0):
            assert weighted_fidelity(ds, lam) == 0.58

    def test_zero_lambda_is_plain_mean(self):
        ds = Dataset([0.0, 1.0], [0.0, 0.0], [0.4, 0.8])
        assert weighted_fidelity(ds, 0.0) == pytest.approx(0.6, rel=1e-15)

    def test_stays_within_record_range(self):
        ds = generate_dataset(2.0, 2_000, Gain(0.5), seed=1)
        for lam in (0.0, 1.0, 10.0):
            wf = weighted_fidelity(ds, lam)
            assert ds.fidelity.min() <= wf <= ds.fidelity.max()

    def test_estimates_truncated_gaussian_average(self):
        ds = generate_dataset(3.0, 200_000, Gain(0.5), seed=2)
        lam = 1.0
        w = np.exp(-lam * (ds.beta_re**2 + ds.beta_im**2))
        ess = np.sum(w) ** 2 / np.sum(w * w)
        stderr = float(np.std(ds.fidelity)) / math.sqrt(ess)
        assert weighted_fidelity(ds, lam) == pytest.approx(
            truncated_gain_closed(lam, 3.0, 0.5), abs=4 * stderr)

    def test_permutation_invariance(self):
        ds = generate_dataset(1.0, 1_000, Gain(0.4), seed=5)
        perm = np.random.default_rng(0).permutation(len(ds))
        shuffled = Dataset(ds.beta_re[perm], ds.beta_im[perm], ds.fidelity[perm])
        assert weighted_fidelity(shuffled, 0.7) == pytest.approx(weighted_fidelity(ds, 0.7), abs=1e-12)

    def test_rotation_invariance(self):
        ds = generate_dataset(1.0, 1_000, Gain(0.4), seed=6)
        beta = ds.beta * np.exp(1j * 1.234)
        rotated = Dataset(beta.real, beta.imag, ds.fidelity)
        assert weighted_fidelity(rotated, 0.7) == pytest.approx(weighted_fidelity(ds, 0.7), abs=1e-12)

    def test_large_lambda_does_not_underflow(self):
        ds = Dataset([3.0, 5.0], [0.0, 0.0], [0.9, 0.1])
        assert weighted_fidelity(ds, 200.0) == pytest.approx(0.9, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_fidelity(Dataset([], [], []), 1.0)
        with pytest.raises(ValueError):
            weighted_fidelity(Dataset([0.0], [0.0], [0.5]), -1.0)


def _gather_bootstrap_ci(ds, lam, resamples, seed, level=0.95):
    """bootstrap_ci as it was written before resamples were counted: gather
    the drawn weights and fidelities. Kept as the reference."""
    rng = seeded_stream(seed, 0)
    f = ds.fidelity
    if np.all(f == f[0]):
        return float(f[0]), float(f[0])
    s = ds.beta_re**2 + ds.beta_im**2
    w = np.exp(-lam * (s - np.min(s)))
    point = float(np.dot(w, f) / np.sum(w))
    n = f.size
    stats = np.empty(resamples)
    for r in range(resamples):
        idx = rng.integers(0, n, n)
        wr = w[idx]
        stats[r] = np.dot(wr, f[idx]) / np.sum(wr)
    tail = 0.5 * (1.0 - level)
    lo, hi = np.quantile(stats, [tail, 1.0 - tail])
    return min(float(lo), point), max(float(hi), point)



def _sliced_dot(a, b):
    """np.dot summed over slices of 8,192 elements in index order: one BLAS
    thread per slice, so the bits do not depend on the thread count."""
    size = 1 << 13
    total = np.dot(a[:size], b[:size])
    for start in range(size, a.size, size):
        total += np.dot(a[start:start + size], b[start:start + size])
    return total


def _counts_bootstrap_ci(ds, lam, resamples, seed, level=0.95):
    """bootstrap_ci as it was written before draws were taken in blocks:
    one rng call per resample. Kept as the bit-exact reference; its dots are
    sliced by the same rule as certify's, written out here."""
    rng = seeded_stream(seed, 0)
    f = ds.fidelity
    s = ds.beta_re**2 + ds.beta_im**2
    w = np.exp(-lam * (s - np.min(s)))
    point = float(_sliced_dot(w, f) / np.sum(w))
    n = f.size
    wf = w * f
    stats = np.empty(resamples)
    for r in range(resamples):
        counts = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
        stats[r] = _sliced_dot(counts, wf) / _sliced_dot(counts, w)
    tail = 0.5 * (1.0 - level)
    lo, hi = np.quantile(stats, [tail, 1.0 - tail])
    return min(float(lo), point), max(float(hi), point)


class TestBootstrapCI:
    @pytest.mark.parametrize("model,lam,seed", [
        (Gain(0.6), 0.0, 0),
        (Gain(0.6), 1.0, 3),
        (Gain(0.3), 4.60517, 11),
        (Constant(0.58), 1.0, 5),
    ])
    def test_counts_match_gather_reference(self, model, lam, seed):
        ds = generate_dataset(2.0, 5_000, model, seed=seed)
        lo, hi = bootstrap_ci(ds, lam, resamples=300, seed=seed)
        ref_lo, ref_hi = _gather_bootstrap_ci(ds, lam, 300, seed)
        assert abs(lo - ref_lo) <= 1e-14 and abs(hi - ref_hi) <= 1e-14
        if isinstance(model, Constant):
            # The all-equal bypass: a zero-width interval at the point.
            assert (lo, hi) == (model.value, model.value)
        else:
            assert lo < hi

    # The stream is drawn in blocks of 65,536 indices. At n = 2 and 3 all
    # resamples fit in one block; at 4999 and 5000 a resample
    # straddles two blocks; from 8193 the statistic's dots take two slices;
    # from 65536 a resample spans whole blocks.
    @pytest.mark.parametrize("n", [2, 3, 4999, 5000, 8192, 8193, 10001, 65536, 65537])
    @pytest.mark.parametrize("resamples", [100, 1001])
    def test_blocked_draws_match_per_resample_reference(self, n, resamples):
        ds = generate_dataset(2.0, n, Gain(0.6), seed=n)
        assert len(set(ds.fidelity)) > 1
        assert bootstrap_ci(ds, 1.0, resamples, seed=7) == _counts_bootstrap_ci(
            ds, 1.0, resamples, seed=7)

    def test_peak_memory_at_one_resample_a_block(self):
        # The counts go into one buffer, block by block, so no n-length array
        # is allocated per resample: the peak is 4.0 n-length arrays. Drawing
        # a resample's n indices and its bincount at once held 5.0, and a
        # fresh float copy of the counts besides held 6.0.
        n = 200_000
        ds = generate_dataset(2.0, n, Gain(0.6), seed=1)
        tracemalloc.start()
        try:
            bootstrap_ci(ds, 1.0, resamples=100, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 8 * n

    @pytest.mark.parametrize("size", [1, 2, 7, 4096, 8191, 8192])
    def test_dot_is_np_dot_up_to_one_slice(self, size):
        rng = np.random.default_rng(size)
        a, b = rng.random(size), rng.random(size)
        assert certify._dot(a, b).tobytes() == np.dot(a, b).tobytes()

    def test_dot_of_many_slices_is_accurate(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(10**6), rng.random(10**6)
        exact = math.fsum(a * b)
        assert abs(certify._dot(a, b) - exact) <= 1e-15 * exact

    def test_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits a dot of more than 10,000 elements across its
        # threads; before the dots were sliced, this file's weighted fidelity
        # and interval differed in the last bits between 1 and 2 threads.
        path = tmp_path / "gain.csv"
        write_dataset(path, generate_dataset(2.0, 20_000, Gain(0.458), seed=3))
        src = os.path.dirname(os.path.dirname(certify.__file__))
        code = "import sys, telebound.cli; sys.exit(telebound.cli.main())"
        outs = []
        for threads in (None, "1"):
            env = dict(os.environ, PYTHONPATH=src)
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            outs.append(subprocess.run([sys.executable, "-c", code, "analyze", str(path), "--json"],
                                       env=env, capture_output=True, text=True, check=True,
                                       timeout=120).stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["n_records"] == 20_000

    def test_constant_dataset_zero_width(self):
        ds = generate_dataset(1.0, 400, Constant(0.58), seed=0)
        assert bootstrap_ci(ds, 1.0, resamples=200, seed=1) == (0.58, 0.58)

    def test_contains_point_estimate(self):
        ds = generate_dataset(2.0, 2_000, Gain(0.6), seed=7)
        for lam in (0.0, 0.5, 2.0):
            lo, hi = bootstrap_ci(ds, lam, resamples=300, seed=3)
            assert lo <= weighted_fidelity(ds, lam) <= hi

    def test_deterministic(self):
        ds = generate_dataset(2.0, 1_000, Gain(0.6), seed=8)
        assert bootstrap_ci(ds, 1.0, resamples=200, seed=4) == bootstrap_ci(ds, 1.0, resamples=200, seed=4)
        assert bootstrap_ci(ds, 1.0, resamples=200, seed=4) != bootstrap_ci(ds, 1.0, resamples=200, seed=5)

    def test_validation(self):
        ds = generate_dataset(1.0, 100, Gain(0.5), seed=0)
        for bad in (99, 100.5):
            with pytest.raises(ValueError, match="resamples"):
                bootstrap_ci(ds, 1.0, resamples=bad)
        for records in (ds, Dataset([0.0, 1.0], [0.0, 0.0], [0.5, 0.5])):
            with pytest.raises(ValueError, match="seed must .* got -1"):
                bootstrap_ci(records, 1.0, resamples=100, seed=-1)
        with pytest.raises(ValueError):
            bootstrap_ci(Dataset([0.0], [0.0], [0.5]), 1.0)
        with pytest.raises(ValueError):
            bootstrap_ci(ds, 1.0, level=1.0)

    @pytest.mark.parametrize("lam,weight", [(1e4, "0.0"), (744.4400719213812, "5e-324")])
    def test_underflowing_weight_rejected(self, lam, weight):
        # A resample drawing only the outer record would divide 0 by 0 (lam
        # 1e4), or divide subnormals into a statistic below both fidelities.
        ds = Dataset([0.0, 1.0], [0.0, 0.0], [0.9, 0.1])
        with pytest.raises(ValueError, match=rf"^lam = {lam} leaves the outermost record "
                                             rf"a weight of {weight}, below"):
            bootstrap_ci(ds, lam, resamples=100)
        assert weighted_fidelity(ds, lam) == 0.9

    def test_coverage_of_known_value(self):
        # 95% percentile intervals over 200 synthetic classical datasets
        # should cover the closed-form reweighted value about 190 times
        true = truncated_gain_closed(1.0, 3.0, 0.5)
        cover = 0
        for s in range(200):
            ds = generate_dataset(3.0, 400, Gain(0.5), seed=1000 + s)
            lo, hi = bootstrap_ci(ds, 1.0, resamples=500, seed=s)
            cover += lo <= true <= hi
        assert 180 <= cover <= 200


class TestHelperThread:
    """The draws are counted on a helper thread, which every call joins."""

    def test_threads_are_joined_on_return(self):
        ds = generate_dataset(2.0, 5_000, Gain(0.6), seed=3)
        before = threading.active_count()
        bootstrap_ci(ds, 1.0, resamples=200, seed=1)
        assert threading.active_count() == before

    def test_concurrent_calls_under_fast_switching(self):
        # More threads than cores, switching often: each call's counts stay
        # its own, so every interval is still the reference's.
        ds = generate_dataset(2.0, 5_000, Gain(0.6), seed=3)
        expected = [_counts_bootstrap_ci(ds, 1.0, 100, seed) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda seed: bootstrap_ci(ds, 1.0, 100, seed=seed), range(4),
                                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_a_failure_in_the_helper_propagates(self, monkeypatch):
        ds = generate_dataset(2.0, 5_000, Gain(0.6), seed=3)
        calls = []

        def failing_dot(a, b):
            calls.append(threading.get_ident())
            if len(calls) > 40:
                raise FloatingPointError("injected")
            return np.dot(a, b)

        monkeypatch.setattr(certify, "_dot", failing_dot)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="injected"):
            bootstrap_ci(ds, 1.0, resamples=200, seed=1)
        assert threading.active_count() == before
        # The point estimate is the caller's; the resamples are the helper's.
        assert calls[0] == threading.get_ident() != calls[-1]

    def test_a_failure_in_the_stream_propagates(self, monkeypatch):
        ds = generate_dataset(2.0, 5_000, Gain(0.6), seed=3)

        class FailingStream:
            def __init__(self, rng):
                self.rng, self.blocks = rng, 0

            def integers(self, *args):
                self.blocks += 1
                if self.blocks > 5:
                    raise OverflowError("injected")
                return self.rng.integers(*args)

        monkeypatch.setattr(certify, "seeded_stream", lambda *a: FailingStream(seeded_stream(*a)))
        before = threading.active_count()
        with pytest.raises(OverflowError, match="injected"):
            bootstrap_ci(ds, 1.0, resamples=200, seed=1)
        assert threading.active_count() == before


class TestVerdict:
    @pytest.mark.parametrize("radius,bound,expected", [
        (1.0, 0.8486, INCONCLUSIVE),
        (3.0, 0.6019, INCONCLUSIVE),
        (5.0, 0.5422, NONCLASSICAL),
    ])
    def test_benchmark_scenarios(self, radius, bound, expected):
        ds = generate_dataset(radius, 5_000, Constant(0.58), seed=17)
        report = verdict(ds, epsilon=0.01, resamples=200, seed=1, radius=radius)
        assert report.verdict == expected
        assert report.classical_bound == pytest.approx(bound, abs=1e-4)
        assert report.weighted_fidelity == 0.58
        assert report.tail_mass == pytest.approx(0.01, rel=1e-9)
        assert report.lam == pytest.approx(math.log(100.0) / radius**2, rel=1e-12)

    def test_default_radius_comes_from_data(self):
        ds = generate_dataset(5.0, 20_000, Constant(0.58), seed=18)
        report = verdict(ds, epsilon=0.01, resamples=200, seed=1)
        assert report.sample_radius == pytest.approx(ds.radius)
        assert report.classical_bound == pytest.approx(0.5422, abs=1e-4)
        assert report.verdict == NONCLASSICAL

    def test_epsilon_monotonicity_constant_dataset(self):
        # stricter tails raise the bound; a NONCLASSICAL verdict can only
        # flip to INCONCLUSIVE as epsilon decreases, never the reverse
        ds = generate_dataset(5.0, 2_000, Constant(0.58), seed=19)
        verdicts = [verdict(ds, epsilon=e, resamples=200, seed=1, radius=5.0).verdict
                    for e in (0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6)]
        flips = [f"{a}->{b}" for a, b in zip(verdicts, verdicts[1:]) if a != b]
        assert verdicts[0] == NONCLASSICAL
        assert verdicts[-1] == INCONCLUSIVE
        assert all(f == "NONCLASSICAL->INCONCLUSIVE" for f in flips)
        assert len(flips) == 1

    def test_classical_dataset_inconclusive_at_tight_epsilon(self):
        ds = generate_dataset(2.0, 30_000, Gain(0.686578), seed=20)
        for eps in (0.01, 1e-3, 1e-4):
            report = verdict(ds, epsilon=eps, resamples=200, seed=2)
            assert report.verdict == INCONCLUSIVE

    def test_loose_epsilon_soundness_gap_is_real(self):
        # Documented hazard: at epsilon = 0.1 the truncated-Gaussian average
        # a classical disk-optimal strategy reaches exceeds the whole-plane
        # bound (1+lam)/(2+lam), so the procedure falsely certifies. This
        # pins the measured gap so the epsilon guidance stays honest.
        ds = generate_dataset(2.0, 30_000, Gain(0.686578), seed=20)
        report = verdict(ds, epsilon=0.1, resamples=200, seed=2)
        lam = report.lam
        classical_reach = truncated_gain_closed(lam, 2.0, 0.686578)
        assert classical_reach > report.classical_bound + 0.01
        assert report.verdict == NONCLASSICAL  # the false positive itself

    def test_underflowing_weight_rejected(self):
        ds = Dataset([0.0, 1.0], [0.0, 0.0], [0.9, 0.1])
        with pytest.raises(ValueError, match="^lam = 744.44.* below the smallest normal float$"):
            verdict(ds, epsilon=5e-324, radius=1.0, resamples=100)

    def test_radius_override_must_cover_data(self):
        ds = generate_dataset(3.0, 1_000, Constant(0.58), seed=21)
        with pytest.raises(ValueError, match="outside the asserted radius"):
            verdict(ds, epsilon=0.01, radius=1.0)

    def test_origin_only_dataset_needs_radius(self):
        ds = Dataset([0.0, 0.0], [0.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            verdict(ds, epsilon=0.01)

    def test_validation(self):
        ds = generate_dataset(1.0, 100, Constant(0.5), seed=0)
        with pytest.raises(ValueError):
            verdict(ds, epsilon=0.0)
        with pytest.raises(ValueError):
            verdict(ds, epsilon=1.0)
        with pytest.raises(ValueError):
            verdict(Dataset([], [], []), epsilon=0.01)
        with pytest.raises(ValueError, match="^verdict needs at least 2 records, got 1$"):
            verdict(Dataset([0.5], [0.0], [0.9]), epsilon=0.01)


class TestReport:
    def test_roundtrip_through_json(self):
        ds = generate_dataset(2.0, 2_000, Gain(0.6), seed=22)
        report = verdict(ds, epsilon=0.01, resamples=150, seed=3)
        blob = json.dumps(report.to_dict())
        back = Report.from_dict(json.loads(blob))
        assert back == report

    def test_dict_keys_are_the_report_fields(self):
        ds = generate_dataset(1.0, 200, Constant(0.58), seed=23)
        d = verdict(ds, epsilon=0.01, resamples=150, seed=0).to_dict()
        # Ordered: the keys are the JSON schema, and their order is part of it.
        assert list(d) == ["lambda", "tail_mass", "sample_radius", "weighted_fidelity",
                           "ci_low", "ci_high", "classical_bound", "verdict", "n_records", "seed"]

    def test_interval_must_contain_point(self):
        with pytest.raises(ValueError):
            Report(lam=1.0, tail_mass=0.01, sample_radius=1.0, weighted_fidelity=0.9,
                   ci_low=0.1, ci_high=0.2, classical_bound=0.6, verdict=INCONCLUSIVE,
                   n_records=10, seed=0)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            Report(lam=1.0, tail_mass=0.01, sample_radius=1.0, weighted_fidelity=0.5,
                   ci_low=0.4, ci_high=0.6, classical_bound=0.6, verdict="MAYBE",
                   n_records=10, seed=0)
