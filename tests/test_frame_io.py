"""Differential tests of the frame text I/O.

``tests/oracles.py`` keeps the row-at-a-time reader and writer that
``ingest_frame`` and ``frame_to_csv`` replaced.  On every file below both
must build the same ``Frame`` arrays bit for bit, write the same bytes, or
raise the same error on the same line.  ``ingest_frame`` reads data rows
with one ``np.loadtxt`` call and reads a file again with its block reader
(``_read_block``, 2,048 rows parsed a column at a time) where numpy refuses
the file or its rows hold an error, so the files below reach both readers;
``NUMPY_CORPUS`` holds the files that numpy could read otherwise than
``csv.reader``, ``int`` and ``float`` do.
"""
import contextlib
import csv
import os

import numpy as np
import pytest

import twostage.frame as tsframe
from twostage import Frame, SyntheticConfig, frame_to_csv, generate_population, ingest_frame
from twostage.frame import IngestError

from oracles import first_duplicate_ssu_psu, frame_to_csv_rows, ingest_frame_rows

BLOCK = 2048  # the block size the reader and writer are measured at


def _same_frame(a: Frame, b: Frame) -> None:
    for name in ("values", "sizes", "psu_ids", "ssu_ids", "offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.strata == b.strata


def _outcome(read, path, **kwargs):
    """The frame read, or the (type, message, line) of the error raised."""
    try:
        return read(path, **kwargs)
    except (IngestError, ValueError, csv.Error) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _check_read(path, **kwargs):
    new = _outcome(ingest_frame, path, **kwargs)
    old = _outcome(ingest_frame_rows, path, **kwargs)
    if isinstance(old, Frame):
        assert isinstance(new, Frame), new
        _same_frame(new, old)
    else:
        assert new == old
    return new


def _check_write(frame, tmp_path, name="frame.csv", **kwargs):
    new, old = tmp_path / f"new-{name}", tmp_path / f"old-{name}"
    frame_to_csv(frame, new, **kwargs)
    frame_to_csv_rows(frame, old, **kwargs)
    assert new.read_bytes() == old.read_bytes()
    return new


def _rows_text(n_rows, sep=","):
    """n_rows data rows: two strata, PSUs of 7 rows, varied number spellings."""
    lines = [sep.join(["stratum", "psu_id", "ssu_id", "y1", "y2"])]
    for r in range(n_rows):
        lines.append(sep.join([f"s{r // 700 % 2}", str(r // 7), str(r % 7),
                               repr(r * 0.1 - 3.0), f"{r}e-3"]))
    return "\n".join(lines) + "\n"


class TestValidFiles:
    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("n_psus", [1, 37, 400])
    def test_generated_round_trip(self, tmp_path, stratified, n_psus):
        cfg = SyntheticConfig(n_psus, 6, 0.4, 20.0, 2.0, (0.2, 0.3), 0.6, seed=n_psus)
        frame = generate_population(cfg)
        if stratified:
            frame = Frame(frame.values, frame.sizes, frame.psu_ids[::-1] * 3 - 50,
                          frame.ssu_ids * 3 - 1, [f"h{i % 3}" for i in range(frame.n_psus)])
        path = _check_write(frame, tmp_path)
        back = _check_read(path)
        if not stratified:
            assert np.array_equal(back.values, frame.values)

    def test_labels_that_need_quotes(self, tmp_path):
        labels = ["a,b", 'say "hi"', "two words", " padded ", "", "tab\there", "new\nline",
                  "cr\rhere"]
        sizes = np.array([2, 1, 3, 1, 2, 1, 2, 1])
        values = np.arange(2.0 * sizes.sum()).reshape(-1, 2) / 7.0
        frame = Frame(values, sizes, strata=labels)
        for name in ("frame.csv", "frame.tsv"):
            path = _check_write(frame, tmp_path, name=name)
            assert isinstance(_check_read(path), Frame)  # "cr\rhere" is quoted
        # a delimiter that occurs in numbers quotes them, as csv.writer does
        for delimiter in ("-", ".", "e", "1", ";", " "):
            path = _check_write(frame, tmp_path, name=f"d{ord(delimiter)}.txt",
                                delimiter=delimiter)
            assert isinstance(_check_read(path, delimiter=delimiter), Frame)

    @pytest.mark.parametrize("name", ["frame.csv", "frame.tsv"])
    @pytest.mark.parametrize("label", ["cr\rhere", "a\rb\rc"])
    def test_carriage_return_labels_read_back(self, tmp_path, name, label):
        """A lone "\\r" ends a line for csv.reader, so a label holding one is quoted."""
        frame = Frame(np.arange(6.0)[:, None], np.array([2, 1, 3]), strata=[label, label, "b"])
        path = tmp_path / name
        frame_to_csv(frame, path)
        back = ingest_frame(path)
        assert back.strata == frame.strata
        assert back.values.tobytes() == frame.values.tobytes()

    @pytest.mark.parametrize("name", ["frame.csv", "frame.tsv"])
    def test_labels_keep_their_whitespace(self, tmp_path, name):
        """Whitespace is data in CSV: "a", " a " and "a\t" stay three strata."""
        labels = ["a", " a ", "a\t", " ", ""]
        frame = Frame(np.arange(10.0)[:, None], np.array([2, 1, 3, 2, 2]), strata=labels)
        path = tmp_path / name
        frame_to_csv(frame, path)
        back = _check_read(path)
        assert list(back.strata) == labels
        assert back.sizes.tolist() == frame.sizes.tolist()

    @pytest.mark.parametrize("n_rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_block_edges(self, tmp_path, n_rows):
        path = tmp_path / "f.csv"
        path.write_text(_rows_text(n_rows))
        frame = _check_read(path)
        assert frame.n_ssus == n_rows
        _check_write(frame, tmp_path)

    def test_interleaved_psus_and_strata(self, tmp_path):
        rng = np.random.default_rng(4)
        lines = ["ssu_id,y2,stratum,y1,psu_id,note"]
        pairs = [(p, s) for p in range(60) for s in range(int(rng.integers(1, 6)))]
        for k in rng.permutation(len(pairs)):
            p, s = pairs[k]
            lines.append(f"{s},{rng.normal():.17g},  z{p % 4} ,{rng.normal()!r},{p * 7 % 60},x")
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        frame = _check_read(path)
        assert frame.n_psus == 60 and frame.n_vars == 2

    def test_blank_rows_tsv_and_schema(self, tmp_path):
        text = ("  cluster\tunit\tv1\tw\n\n1\t1\t3.0\tq\n \t \t \t \n\t\n"
                "2\t 5 \t+4.5\tq\n   \n1\t2\t1_000.5\tq\n2\t-1\t-0.0\tq\n\t\t\t\n")
        path = tmp_path / "f.tsv"
        path.write_text(text)
        frame = _check_read(path, schema={"psu_id": "cluster", "ssu_id": "unit",
                                          "y_prefix": "v"})
        assert frame.sizes.tolist() == [2, 2]
        _check_read(path, schema={"psu_id": "cluster", "ssu_id": "unit", "y_prefix": "v"},
                    delimiter=",")  # one column: no psu_id and ssu_id
        (tmp_path / "g.txt").write_text(text.replace("\t", ";"))
        _check_read(tmp_path / "g.txt", delimiter=";",
                    schema={"psu_id": "cluster", "ssu_id": "unit", "y_prefix": "v"})

    def test_blank_rows_across_blocks(self, tmp_path):
        lines = _rows_text(3 * BLOCK).splitlines()
        for k in range(1, len(lines), 5):
            lines[k] = ["", ",,,,", " , ", "\t"][k % 4]
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        _check_read(path)


BROKEN = {
    "empty file": "",
    "header without ids": "a,b,y1\n1,2,3\n",
    "no y columns": "psu_id,ssu_id,z\n1,1,2\n",
    "header only": "psu_id,ssu_id,y1\n",
    "blank rows only": "psu_id,ssu_id,y1\n\n , , \n,,\n",
    "too many fields": "psu_id,ssu_id,y1\n1,1,1\n1,2,1,9\n",
    "too few fields": "psu_id,ssu_id,y1\n1,1,1\n\n1,2\n",
    "malformed psu": "psu_id,ssu_id,y1\n1,1,1\n1.5,2,1\n",
    "malformed ssu": "psu_id,ssu_id,y1\n1,1,1\n1,,1\n",
    "malformed y": "psu_id,ssu_id,y1,y2\n1,1,1,2\n1,2,1,abc\n",
    "not a number, whitespace psu": "psu_id,ssu_id,y1\n1,1,1\n ,2,3\n",
    "nan": "psu_id,ssu_id,y1\n1,1,nan\n",
    "overflowing float": "psu_id,ssu_id,y1,y2\n1,1,1,2\n1,2,3,1e999\n",
    "two strata": "stratum,psu_id,ssu_id,y1\na,1,1,1\nb,2,1,1\nb,1,2,1\n",
    "duplicate": "psu_id,ssu_id,y1\n1,1,1\n2,1,1\n1,1,2\n",
    # two errors on different lines: the first line wins
    "duplicate before malformed": "psu_id,ssu_id,y1\n1,1,1\n1,1,2\n1,x,3\n",
    "malformed before duplicate": "psu_id,ssu_id,y1\n1,1,1\n1,x,3\n1,1,2\n",
    "nan before field count": "psu_id,ssu_id,y1\n1,1,inf\n1,2\n",
    "field count before nan": "psu_id,ssu_id,y1\n1,1\n1,2,nan\n",
    "two strata before duplicate": "stratum,psu_id,ssu_id,y1\na,1,1,1\nb,1,2,1\na,1,1,1\n",
    "duplicate before two strata": "stratum,psu_id,ssu_id,y1\na,1,1,1\na,1,1,1\nb,1,2,1\n",
    # two errors on one line: today's order of checks
    "psu and y malformed": "psu_id,ssu_id,y1\n1,1,1\nx,2,y\n",
    "ssu and y malformed": "psu_id,ssu_id,y1,y2\n1,1,1,1\n1,s,1,y\n",
    "two y malformed": "psu_id,ssu_id,y1,y2\n1,1,1,1\n1,2,a,b\n",
    "malformed and nan": "psu_id,ssu_id,y1,y2\n1,1,1,1\n1,2,nan,b\n",
    "nan and duplicate": "psu_id,ssu_id,y1\n1,1,1\n1,1,nan\n",
    "two strata and duplicate": "stratum,psu_id,ssu_id,y1\na,1,1,1\nb,1,1,1\n",
    "malformed and two strata": "stratum,psu_id,ssu_id,y1\na,1,1,1\nb,1,x,1\n",
    # csv.reader refuses a field past its limit of 131,072 characters, even one no column reads
    "long unused field": f"psu_id,ssu_id,y1,note\n1,1,1,a\n1,2,1,{'n' * 140000}\n2,1,1,b\n",
    "long header field": f"psu_id,ssu_id,y1,{'n' * 140000}\n1,1,1,a\n",
    "malformed before a long field": f"psu_id,ssu_id,y1,note\n1,x,1,a\n1,2,1,{'n' * 140000}\n",
    "duplicate before a long field": ("psu_id,ssu_id,y1,note\n1,1,1,a\n1,1,2,b\n"
                                      f"1,3,1,{'n' * 140000}\n"),
}


class TestBrokenFiles:
    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_same_error(self, tmp_path, name):
        path = tmp_path / "f.csv"
        path.write_text(BROKEN[name])
        outcome = _check_read(path)
        assert not isinstance(outcome, Frame) and outcome[0] is IngestError

    @pytest.mark.parametrize("at", [BLOCK - 2, BLOCK - 1, BLOCK, 2 * BLOCK])
    @pytest.mark.parametrize("kind", ["count", "psu", "y", "nan", "strata", "twin", "blank"])
    def test_errors_at_block_edges(self, tmp_path, at, kind):
        lines = _rows_text(2 * BLOCK + 5).splitlines()
        stratum, psu, ssu, y1, y2 = lines[at].split(",")
        lines[at] = {
            "count": f"{stratum},{psu},{ssu},{y1}",
            "psu": f"{stratum},p{psu},{ssu},{y1},{y2}",
            "y": f"{stratum},{psu},{ssu},{y1},-",
            "nan": f"{stratum},{psu},{ssu},{y1},-inf",
            "strata": f"other,{psu},{ssu},{y1},{y2}",
            "twin": ",".join(lines[3].split(",")[:3] + [y1, y2]),
            "blank": " , ,,, ",
        }[kind]
        # a later, different error must not win
        lines[at + 3] = "x,y,z"
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        outcome = _check_read(path)
        assert outcome[0] is IngestError

    @pytest.mark.parametrize("seed", range(60))
    @pytest.mark.parametrize("block", [3, BLOCK])
    def test_random_files(self, tmp_path, monkeypatch, seed, block):
        monkeypatch.setattr(tsframe, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(seed)
        bad_share = rng.choice([0.0, 0.01, 0.05])
        lines = ["stratum,psu_id,ssu_id,y1,y2"]
        for _ in range(int(rng.integers(1, 60))):
            psu = int(rng.integers(0, 12))
            fields = [f"s{psu % 3}", str(psu), str(int(rng.integers(0, 400))),
                      repr(float(rng.normal())), f"{rng.normal():.3e}"]
            if rng.random() < bad_share:
                kind = int(rng.integers(0, 6))
                if kind == 0:
                    fields = fields[: int(rng.integers(0, 5))]
                elif kind == 1:
                    fields = [" "] * len(fields)
                elif kind == 2:
                    fields[int(rng.integers(1, 5))] = "?"
                elif kind == 3:
                    fields[int(rng.integers(3, 5))] = "nan"
                elif kind == 4:
                    fields[0] = "s9"
                else:
                    fields.append("extra")
            lines.append(",".join(fields))
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        _check_read(path)


# Files that numpy's reader could read otherwise than csv.reader, int and float.
NUMPY_CORPUS = {
    # numpy would take "#" for a comment
    "rows starting with #": "stratum,psu_id,ssu_id,y1\na,1,1,1\n#b,2,1,1\n#,3,1,2\nc#d,4,1,1\n",
    "# before an id": "psu_id,ssu_id,y1\n1,1,1\n#2,1,1\n",
    "# after a y value": "psu_id,ssu_id,y1\n1,1,1\n1,2,2#3\n",
    "# inside a label": "psu_id,ssu_id,y1,stratum\n1,1,1,a#b\n2,1,1,a#c\n",
    # numpy skips blank lines, so it cannot name the line of a later error
    "blank lines before a duplicate": "psu_id,ssu_id,y1\n1,1,1\n\n\r\n1,2,2\n\n1,1,3\n",
    "blank lines before two strata": "stratum,psu_id,ssu_id,y1\na,1,1,1\n\n\nb,2,1,1\n\nb,1,2,1\n",
    "quoted line end before a duplicate": 'stratum,psu_id,ssu_id,y1\n"a\nb",1,1,1\n"a\nb",1,1,2\n',
    # quotes
    "quoted numbers": 'stratum,psu_id,ssu_id,y1\n"a","1","2","3.5"\na,"2"1,"3",4\na,3,1,"4"e1\n',
    "doubled quote": 'stratum,psu_id,ssu_id,y1\n"a""b",1,1,1\n"""",2,1,1\n"",3,1,1\n',
    "quote then text": 'stratum,psu_id,ssu_id,y1\n"a"b,1,1,1\n"a" "b",2,1,1\n""c,3,1,1\n',
    "text then quote": 'stratum,psu_id,ssu_id,y1\nx"y",1,1,1\n x,2,1,1\n "x",3,1,1\n',
    "quoted delimiter": 'stratum,psu_id,ssu_id,y1\n"a,b",1,1,1\n"a,b",2,1,1\n',
    "quoted line ends": ('stratum,psu_id,ssu_id,y1\n"new\nline",1,1,1\n"cr\rhere",2,1,1\n'
                         '"crlf\r\nhere",3,1,1\n'),
    "quote in a number": 'psu_id,ssu_id,y1\n1,1,1\n2,1"2",3\n',
    "unterminated quote": 'stratum,psu_id,ssu_id,y1\na,1,1,1\n"b,2,1,1\n',
    "unterminated quote, last field": 'stratum,psu_id,ssu_id,y1\na,1,1,1\nb,2,1,"1\n',
    "unterminated quote of full width": 'stratum,psu_id,ssu_id,y1\na,1,1,1\n"b,2,1,1\nc",3,1,1\n',
    # line ends
    "crlf": "stratum,psu_id,ssu_id,y1\r\na,1,1,1\r\na,1,2,2\r\nb,2,1,3\r\n",
    "lone cr": "stratum,psu_id,ssu_id,y1\ra,1,1,1\ra,1,2,2\r\rb,2,1,3\r",
    "no final line end": "stratum,psu_id,ssu_id,y1\na,1,1,1\nb,2,1,3",
    "mixed line ends": "psu_id,ssu_id,y1\n1,1,1\r\n1,2,2\r1,3,3\n\r\n2,1,4",
    "cr inside a field": "psu_id,ssu_id,y1\n1,1,1\n1,2\r,2\n",
    # ids
    "padded ids": "psu_id,ssu_id,y1\n 5 ,\t2\t,1\n5\x0b,4\x0c,1\n",
    "ids padded with Unicode spaces": "psu_id,ssu_id,y1\n5,1,1\n\xa05,3\u2003,1\n",
    "signed ids": "psu_id,ssu_id,y1\n+5,-0,1\n-5,+0,1\n",
    "int64 extremes": ("psu_id,ssu_id,y1\n9223372036854775807,-9223372036854775808,1\n"
                       "9223372036854775806,-9223372036854775807,1\n"),
    "unicode digit ids": "psu_id,ssu_id,y1\n\u0663,\uff11,1\n\u0663,\u0967,2\n",
    "underscored ids": "psu_id,ssu_id,y1\n1_0,1,1\n10,2,2\n1__0,3,3\n",
    "ids spelled as floats": "psu_id,ssu_id,y1\n1,1,1\n1.0,2,2\n",
    # y values
    "unicode digit y": "psu_id,ssu_id,y1\n1,1,\u0663.5\n1,2,\uff11e\uff12\n",
    "underscored y": "psu_id,ssu_id,y1\n1,1,1_000.5\n1,2,1e1_0\n",
    "bad underscored y": "psu_id,ssu_id,y1\n1,1,1\n1,2,1__0\n",
    "padded y": "psu_id,ssu_id,y1\n1,1, 1.5 \n1,2,\t2\x0b\n1,3,\xa02\x85\n",
    "y spellings": "psu_id,ssu_id,y1\n1,1,.5\n1,2,5.\n1,3,5E3\n1,4,+1e-3\n",
    "hex y": "psu_id,ssu_id,y1\n1,1,1\n1,2,0x1p3\n",
    "infinity": "psu_id,ssu_id,y1\n1,1,1\n1,2,-Infinity\n",
    "whitespace-only row": "psu_id,ssu_id,y1\n1,1,1\n   \n1,2,2\n",
    "nul in a label": "stratum,psu_id,ssu_id,y1\na\x00b,1,1,1\na,2,1,1\n",
    # numpy 2.4 reads "-" and some non-ASCII characters as an int: -462 here
    "minus and a non-ASCII letter": "psu_id,ssu_id,y1\n1,1,1\n-\u01fe,2,1\n",
    "non-ASCII labels": "stratum,psu_id,ssu_id,y1\nr\xe9gion,1,1,1\n\xeele,2,1,1\n\xe9,3,1,1\n",
    # numpy skips these as whitespace, int() and float() refuse them
    "unit separators": "psu_id,ssu_id,y1,y2\n1,1,1,1\n1,2,2,\x1d3\x1f\n1\x1c,3,1,1\n",
    # csv.reader refuses a field longer than its limit, 131,072 characters
    "long label": f"stratum,psu_id,ssu_id,y1\na,1,1,1\n{'b' * 131073},2,1,1\n",
    "long quoted label on two lines": ("stratum,psu_id,ssu_id,y1\na,1,1,1\n"
                                       f'"{"b" * 70000}\n{"c" * 70000}",2,1,1\n'),
    "long quoted label within the limit": ("stratum,psu_id,ssu_id,y1\na,1,1,1\n"
                                           f'"{"b" * 60000}\n{"c" * 60000}",2,1,1\n'),
    "long id": f"psu_id,ssu_id,y1\n1,1,1\n{'0' * 131072}2,1,1\n",
}

# the hard cases of decimal to binary rounding: -0.0, subnormals, underflow,
# the largest double and 17-digit and longer halfway values
HARD_FLOATS = [
    "-0.0", "0.0", "-0", "5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "2.2250738585072009e-308", "2.2250738585072011e-308",
    "2.2250738585072014e-308", "1e-400", "-1e-400", "1.7976931348623157e308",
    "1.7976931348623158e308", "9007199254740993", "9007199254740992.5",
    "0.30000000000000004", "0.1000000000000000055511151231257827",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203125000001",
    "1.00000000000000033306690738754696212708950042724609375", "123456789012345678901234567890",
    "7.038531e-26", "8.533e+68", "4.1006e-184", "9.998e+307", "9.9538452227e-280",
    "6.47660115e-260", "7.4e+47", "5.92e+48", "7.35e+66", "8.32116e+55",
]


def _refuse(*args, **kwargs):
    raise AssertionError("the block reader ran")


class TestNumpyCorpus:
    @pytest.mark.parametrize("name", sorted(NUMPY_CORPUS))
    def test_same_outcome(self, tmp_path, name):
        path = tmp_path / "f.csv"
        with open(path, "w", newline="") as fh:
            fh.write(NUMPY_CORPUS[name])
        _check_read(path)

    def test_hard_floats_on_numpy_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tsframe, "_read_block", _refuse)
        rng = np.random.default_rng(5)
        lines = ["psu_id,ssu_id,y1,y2"]
        for k, text in enumerate(HARD_FLOATS):
            lines.append(f"{k % 7},{k},{text},{text.removeprefix('-') if k % 2 else text}")
        for k in range(len(HARD_FLOATS), 2000):  # random doubles, spelled 17 digits and shortest
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
            lines.append(f"{k % 7},{k},{x:.17g},{x!r}")
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        frame = _check_read(path)
        assert isinstance(frame, Frame)

    def test_stratified_tsv(self, tmp_path):
        frame = generate_population(SyntheticConfig(30, 5, 0.4, 20.0, 2.0, (0.2,), 0.6, seed=9))
        frame = Frame(frame.values, frame.sizes, strata=[f"h {i // 8}\t" for i in range(30)])
        path = _check_write(frame, tmp_path, name="frame.tsv")
        _same_frame(_check_read(path), frame)


class TestReaderChoice:
    """numpy reads what frame_to_csv writes; the block reader reads what numpy refuses."""

    @pytest.mark.parametrize("stratified", [False, True])
    def test_numpy_reads_written_frames(self, tmp_path, monkeypatch, stratified):
        frame = generate_population(SyntheticConfig(300, 8, 0.5, 20.0, 2.0, (0.2, 0.3), 0.6,
                                                    seed=11))
        if stratified:
            frame = Frame(frame.values, frame.sizes, frame.psu_ids * 5 - 700, frame.ssu_ids,
                          [f"s, {i // 100}" for i in range(frame.n_psus)])  # quoted labels
        path = tmp_path / "frame.csv"
        frame_to_csv(frame, path)
        monkeypatch.setattr(tsframe, "_read_block", _refuse)
        _same_frame(_check_read(path), frame)

    def test_underscores_reach_the_block_reader(self, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1])  # the block's first line
            return read_block(*args, **kwargs)

        read_block = tsframe._read_block
        monkeypatch.setattr(tsframe, "_read_block", spy)
        path = tmp_path / "f.csv"
        path.write_text("psu_id,ssu_id,y1\n1,1,2.5\n1,2,1_000.5\n")
        frame = _check_read(path)
        assert calls == [2]
        assert frame.values[:, 0].tolist() == [2.5, 1000.5]


OUTSIDE_INT64 = "line 3: malformed row ({} is outside the int64 range)"


class TestIdRange:
    @pytest.mark.parametrize("psu, ssu", [("9223372036854775808", "1"),
                                          ("1", "-9223372036854775809")])
    def test_id_outside_int64_is_malformed(self, tmp_path, psu, ssu):
        path = tmp_path / "f.csv"
        path.write_text(f"psu_id,ssu_id,y1\n1,1,1.0\n{psu},{ssu},2.0\n1,x,3\n")
        assert _check_read(path) == (IngestError, OUTSIDE_INT64.format(max(psu, ssu, key=len)), 3)

    @pytest.mark.parametrize("psu, ssu", [("9223372036854775808", "1"),
                                          ("1", "-9223372036854775809")])
    def test_id_outside_int64_on_the_last_row(self, tmp_path, psu, ssu):
        """numpy refuses the row; the block reader names it, as the oracle does."""
        path = tmp_path / "f.csv"
        path.write_text(f"psu_id,ssu_id,y1\n1,1,1.0\n{psu},{ssu},2.0\n")
        assert _check_read(path) == (IngestError, OUTSIDE_INT64.format(max(psu, ssu, key=len)), 3)

    def test_int64_extremes_are_kept(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("psu_id,ssu_id,y1\n9223372036854775807,-9223372036854775808,1.0\n")
        _check_read(path)


class TestFrameConstructor:
    @pytest.mark.parametrize("seed", range(20))
    def test_duplicate_ssu_names_the_first_psu(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 6, size=30)
        ssu_ids = rng.integers(0, 8, size=int(sizes.sum()))
        psu_ids = rng.permutation(100)[:30]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        expected = first_duplicate_ssu_psu(offsets, psu_ids, ssu_ids)
        if expected is None:
            Frame(np.ones((ssu_ids.size, 1)), sizes, psu_ids, ssu_ids)
        else:
            with pytest.raises(ValueError, match=f"duplicate ssu_id within PSU {expected}$"):
                Frame(np.ones((ssu_ids.size, 1)), sizes, psu_ids, ssu_ids)

    def test_default_ssu_ids_count_within_each_psu(self):
        frame = Frame(np.ones((6, 1)), np.array([3, 1, 2]))
        assert frame.ssu_ids.tolist() == [0, 1, 2, 0, 0, 1]
        assert frame.ssu_ids.dtype == np.int64


class TestPathArguments:
    """An int is not a path: ``open`` would take it for a file descriptor and read or write it."""

    def test_ingest_refuses_a_file_descriptor(self, tmp_path):
        path = tmp_path / "frame.csv"
        path.write_text(_rows_text(20))
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(TypeError, match="^path must be a str or os.PathLike, got int$"):
                ingest_frame(fd)
        finally:
            with contextlib.suppress(OSError):
                os.close(fd)

    def test_write_refuses_a_file_descriptor(self, tmp_path):
        path = tmp_path / "frame.csv"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        frame = generate_population(SyntheticConfig(3, 4, 0.0, 20.0, 2.0, (0.2,), 0.5, seed=1))
        try:
            with pytest.raises(TypeError, match="^path must be a str or os.PathLike, got int$"):
                frame_to_csv(frame, fd)
        finally:
            with contextlib.suppress(OSError):
                os.close(fd)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("path", [None, 2.5, b"frame.csv"])
    def test_neither_opens_what_is_not_a_path(self, path):
        frame = generate_population(SyntheticConfig(3, 4, 0.0, 20.0, 2.0, (0.2,), 0.5, seed=1))
        kind = type(path).__name__
        with pytest.raises(TypeError, match=f"^path must be a str or os.PathLike, got {kind}$"):
            ingest_frame(path)
        with pytest.raises(TypeError, match=f"^path must be a str or os.PathLike, got {kind}$"):
            frame_to_csv(frame, path)

    @pytest.mark.parametrize("path", [True, False])
    def test_a_bool_is_refused_first(self, path):
        """True and False are the descriptors 1 and 0 to ``open``.

        A bad schema or delimiter makes a reader or writer that does not
        check the path first fail before it opens standard input or output.
        """
        frame = generate_population(SyntheticConfig(3, 4, 0.0, 20.0, 2.0, (0.2,), 0.5, seed=1))
        with pytest.raises(TypeError, match="^path must be a str or os.PathLike, got bool$"):
            ingest_frame(path, schema={"unknown": "x"})
        with pytest.raises(TypeError, match="^path must be a str or os.PathLike, got bool$"):
            frame_to_csv(frame, path, delimiter=5)
