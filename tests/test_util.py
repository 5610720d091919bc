"""The batch Philox key derivation, pinned to numpy's own SeedSequence, the line format and the file writer."""

import errno
import hashlib
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcpg_kit import util
from qcpg_kit.util import (
    as_entropy,
    keyed_generators,
    philox_keys,
    read_lines,
    read_text,
    rng_for,
    seed_sequence_keys,
    split_lines,
    tsv_row,
    write_text,
)


def reference_rng(*parts):
    """A copy of rng_for as first written, Generator(Philox(SeedSequence(entropy))), that also takes no seed."""

    def entropy(part):
        if isinstance(part, int):
            return part & 0xFFFFFFFFFFFFFFFF
        return int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "big")

    return np.random.Generator(np.random.Philox(np.random.SeedSequence([entropy(p) for p in parts])))


# one uint32 word (0 included) or two; seeds also above 2**64 and negative, which are masked
INTS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1))
SEEDS = st.one_of(INTS, st.integers(2**64, 2**96), st.integers(-(2**64), -1))
PARTS = st.one_of(INTS, st.text())


@st.composite
def batches(draw):
    """A part count and rows of (seed, *parts) with it, their word counts differing; maybe no row,
    and at part count 0 rows of no part, not even a seed."""
    n_parts = draw(st.integers(0, 7))
    row = st.tuples(SEEDS, *[PARTS] * (n_parts - 1)) if n_parts else st.just(())
    return n_parts, draw(st.lists(row, max_size=12))


@st.composite
def word_arrays(draw):
    width = draw(st.integers(0, 80))
    rows = draw(st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width), min_size=1, max_size=8))
    return np.array(rows, dtype=np.uint32).reshape(len(rows), width)


class TestBatchKeys:
    @given(batches(), st.floats(0.0, 50.0), st.integers(1, 6))
    @example(batch=(3, [(0, 2**32 - 1, "a"), (2**40, 2**32, "b"), (7, 0, "c"), (2**64 + 5, 1, "")]), std=5.0, k=5)
    @example(batch=(0, [(), ()]), std=1.0, k=1)
    @example(batch=(4, []), std=1.0, k=1)
    @example(batch=(0, []), std=1.0, k=1)
    @settings(max_examples=200, deadline=None)
    def test_keys_and_draws_equal_numpy(self, batch, std, k):
        n_parts, rows = batch
        entropy = np.array([[as_entropy(p) for p in row] for row in rows], dtype=np.uint64)
        keys = philox_keys(entropy.reshape(len(rows), n_parts))
        assert keys.shape == (len(rows), 2)
        for row, key, rng in zip(rows, keys, keyed_generators(keys)):
            reference = reference_rng(*row)
            assert (key == reference.bit_generator.state["state"]["key"]).all()
            assert (rng.normal(0.0, std, size=(k, 3)) == reference.normal(0.0, std, size=(k, 3))).all()
            assert rng.random() == reference.random()

    @given(word_arrays())
    @settings(max_examples=100, deadline=None)
    def test_words_equal_numpy(self, words):
        expected = [np.random.Philox(np.random.SeedSequence(row)).state["state"]["key"] for row in words]
        assert (seed_sequence_keys(words) == np.array(expected, dtype=np.uint64).reshape(-1, 2)).all()

    def test_rows_of_100_words_equal_numpy(self):
        words = np.arange(300, dtype=np.uint32).reshape(3, 100) * np.uint32(0x9E3779B9)
        expected = [np.random.Philox(np.random.SeedSequence(row)).state["state"]["key"] for row in words]
        assert (seed_sequence_keys(words) == np.array(expected, dtype=np.uint64)).all()

    def test_a_40_part_row_keys_and_draws_as_rng_for(self):
        parts = [7, *range(2**40, 2**40 + 20), *(f"part {i}" for i in range(19))]
        (key,) = philox_keys(np.array([[as_entropy(p) for p in parts]], dtype=np.uint64))
        reference = rng_for(*parts)
        assert (key == reference.bit_generator.state["state"]["key"]).all()
        assert next(keyed_generators([key])).random() == reference.random()


class TestLineFormat:
    @pytest.mark.parametrize(
        "fields",
        [["a", "b c", ""], ["a\rb", "c"], ["a\r", "c"], ["\r", "\rc"], ["a", "b\x85\u2028c"]],
        ids=["empty_last", "cr_inside", "cr_ends_first", "cr_only_first", "other_breaks"],
    )
    def test_tsv_row_reads_back(self, fields):
        # a \r inside the row, or ending any field but the last, is kept
        row = tsv_row(fields)
        assert row == "\t".join(fields) + "\n"
        assert [line.split("\t") for line in split_lines(row)] == [fields]

    def test_read_text_drops_one_leading_bom_and_keeps_line_ends(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes("\ufeff\ufeffa\r\nb\rc\n".encode("utf-8"))
        assert read_text(path) == "\ufeffa\r\nb\rc\n"

    def test_read_lines_drops_one_leading_bom(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes("\ufeff\ufeffa\r\nb\n".encode("utf-8"))
        assert read_lines(path) == ["\ufeffa", "b"]


class _FailingFile:
    """A file opened by ``write_text`` whose write stops half-way, or whose close fails, with ``exc``."""

    def __init__(self, fh, fail, exc):
        self.fh, self.fail, self.exc = fh, fail, exc

    def __enter__(self):
        return self

    def write(self, text):
        if self.fail == "write":
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise self.exc
        return self.fh.write(text)

    def __exit__(self, *exc_info):
        self.fh.close()
        if self.fail == "close" and exc_info[0] is None:
            raise self.exc


class TestWriteText:
    TEXT = "a\r\nb\u2028c\rd\x85e\n\ufefff"

    def test_text_is_written_byte_for_byte(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, self.TEXT)
        assert path.read_bytes() == self.TEXT.encode("utf-8")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old and longer than the new text\n")
        write_text(path, "new\n")
        assert path.read_bytes() == b"new\n"

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "new"])
    @pytest.mark.parametrize("fail", ["write", "close"])
    @pytest.mark.parametrize(
        "exc", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()], ids=["disk_full", "interrupt"]
    )
    def test_a_failure_leaves_the_old_bytes_or_no_file(self, tmp_path, monkeypatch, exists, fail, exc):
        path = tmp_path / "out.txt"
        if exists:
            path.write_bytes(b"old\n")

        def failing_open(file, *args, **kwargs):
            return _FailingFile(open(file, *args, **kwargs), fail, exc)

        monkeypatch.setattr(util, "open", failing_open, raising=False)
        with pytest.raises(type(exc)):
            write_text(path, self.TEXT * 1000)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == (["out.txt"] if exists else [])
        if exists:
            assert path.read_bytes() == b"old\n"

    @pytest.mark.parametrize("mode", [0o600, 0o644, 0o666, 0o750])
    def test_an_existing_file_keeps_its_permission_bits(self, tmp_path, mode):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")
        path.chmod(mode)
        write_text(path, "new\n")
        assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_gets_the_mode_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_text(tmp_path / "new.txt", "x\n")
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "new.txt").stat().st_mode) == 0o666 & ~umask
        assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode

    @pytest.mark.parametrize("target_exists", [True, False], ids=["existing", "dangling"])
    def test_a_symlink_stays_a_link_and_its_target_gets_the_text(self, tmp_path, target_exists):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "target.txt"
        if target_exists:
            target.write_bytes(b"old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write_text(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"
        assert sorted(os.listdir(tmp_path / "real")) == ["target.txt"]

    def test_dev_null_is_written_in_place(self, monkeypatch):
        def no_replace(*args):
            raise AssertionError("a device was replaced")

        monkeypatch.setattr(util.os, "replace", no_replace)
        write_text("/dev/null", self.TEXT)
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    def test_dev_stdout_writes_into_a_pipe(self):
        package_root = str(Path(util.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        code = "import sys; from qcpg_kit.util import write_text; write_text('/dev/stdout', sys.argv[1])"
        proc = subprocess.run([sys.executable, "-c", code, "a\r\nb\n"], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"a\r\nb\n"

    @pytest.mark.parametrize("name", ["n" * 255, "\u00e9" * 127], ids=["ascii", "two_byte"])
    def test_a_name_of_the_longest_length_is_written(self, tmp_path, name):
        # a name near the 255-byte limit of Linux file systems leaves no room to append to it
        path = tmp_path / name
        write_text(path, "x\n")
        assert path.read_bytes() == b"x\n" and os.listdir(tmp_path) == [path.name]

    def test_a_missing_directory_raises_and_creates_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_text(tmp_path / "missing" / "out.txt", "x\n")
        assert os.listdir(tmp_path) == []
