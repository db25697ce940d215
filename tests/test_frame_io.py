"""Differential tests of the block-columnar frame text I/O.

``tests/oracles.py`` keeps the row-at-a-time reader and writer that
``ingest_frame`` and ``frame_to_csv`` replaced.  On every file below both
must build the same ``Frame`` arrays bit for bit, write the same bytes, or
raise the same error on the same line.
"""
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
    except (IngestError, ValueError) as exc:
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
            _check_write(frame, tmp_path, name=f"d{ord(delimiter)}.txt", delimiter=delimiter)

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


class TestIdRange:
    @pytest.mark.parametrize("psu, ssu", [("9223372036854775808", "1"),
                                          ("1", "-9223372036854775809")])
    def test_id_outside_int64_is_malformed(self, tmp_path, psu, ssu):
        path = tmp_path / "f.csv"
        path.write_text(f"psu_id,ssu_id,y1\n1,1,1.0\n{psu},{ssu},2.0\n1,x,3\n")
        with pytest.raises(IngestError, match=r"^line 3: malformed row \(-?9223372036854775\d+ "
                                              r"is outside the int64 range\)$"):
            ingest_frame(path)

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
