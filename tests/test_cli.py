"""End-to-end command-line behavior, formats, and exit codes."""

import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import stat
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibfrac import cli, ifs as ifsmod, turtle, words
from fibfrac.errors import DomainError


def run(args):
    return cli.main(args)


# ---------------------------------------------------------------------------
# angle parsing


def test_parse_angle_literals():
    assert cli.parse_angle("pi/2") == math.pi / 2
    assert cli.parse_angle("pi") == math.pi
    assert cli.parse_angle("2pi/12") == pytest.approx(math.pi / 6)
    assert cli.parse_angle("2*pi/4") == pytest.approx(math.pi / 2)
    assert cli.parse_angle("0.25") == 0.25
    assert cli.parse_angle(" PI/6 ") == pytest.approx(math.pi / 6)


def test_parse_angle_rejects_garbage():
    for bad in ("pie", "pi/0", "1/pi", "", "pi/2x"):
        with pytest.raises(DomainError):
            cli.parse_angle(bad)


def test_parse_angle_list():
    assert cli.parse_angle_list("0, pi/2") == (0.0, math.pi / 2)
    with pytest.raises(DomainError):
        cli.parse_angle_list(" , ")


def test_validate_raises_domain_error():
    with pytest.raises(DomainError):
        cli._validate(cli.build_parser().parse_args(["dim", "--grid", "1"]))


# ---------------------------------------------------------------------------
# word


def test_word_text_stdout(capsysbinary):
    assert run(["word", "--i", "2", "--n", "5"]) == 0
    assert capsysbinary.readouterr().out == b"01001010\n"


def test_word_binary_file(tmp_path):
    out = tmp_path / "w.bin"
    assert run(["word", "--i", "3", "--n", "5", "--format", "bin",
                "--out", str(out)]) == 0
    blob = out.read_bytes()
    (length,) = struct.unpack("<Q", blob[:8])
    assert length == 11
    bits = np.unpackbits(np.frombuffer(blob[8:], dtype=np.uint8),
                         bitorder="little")[:length]
    assert np.array_equal(bits, words.word_concat(3, 5).bits())


def test_word_usage_errors(capsysbinary):
    assert run(["word", "--i", "1", "--n", "3"]) == 2
    assert run(["word", "--i", "2", "--n", "0"]) == 2
    assert run(["word", "--i", "2", "--n", "500"]) == 2  # over the length cap
    err = capsysbinary.readouterr().err
    assert b"error" in err


# about 10^12 symbols at the shortest order each command draws
HUGE_I = "1000000000000"


@pytest.mark.parametrize("argv", [
    ["ifs", "--i", HUGE_I],
    ["attractor", "--i", HUGE_I, "--depth", "1"],
    ["verify", "--level", "curves", "--i", HUGE_I],
    ["verify", "--level", "ifs", "--i", HUGE_I],
    ["verify", "--i", HUGE_I],
    ["verify", "--level", "words", "--negative-control", "--i", HUGE_I],
    ["verify", "--i", "2000"],  # f_29 has 635,818,418 segments
    ["sweep", "--i", HUGE_I, "--out", "{dir}"],
    ["sweep", "--i", HUGE_I, "--what", "attractor", "--out", "{dir}"],
    ["dim", "--grid", "10000000000000"],
    ["sweep", "--grid", str(cli.MAX_GRID + 1), "--what", "dim", "--out", "{dir}"],
    ["word", "--i", "2", "--n", "10000000"],
], ids=["ifs", "attractor", "verify-curves", "verify-ifs", "verify-full",
        "verify-negative-control", "verify-full-i-2000", "sweep", "sweep-attractor",
        "dim-grid", "sweep-grid", "word-n"])
def test_oversized_work_is_a_usage_error(argv, tmp_path):
    # sized before any work starts, so nothing is allocated or written
    out = tmp_path / "sweep"
    assert run([str(out) if a == "{dir}" else a for a in argv]) == 2
    assert not out.exists()


def test_checks_independent_of_i_run_at_any_i(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--level", "words", "--i", HUGE_I, "--out", str(out)]) == 0
    assert run(["sweep", "--i", HUGE_I, "--what", "dim", "--out",
                str(tmp_path / "s")]) == 0


# ---------------------------------------------------------------------------
# curve


def test_curve_svg_structure(tmp_path):
    out = tmp_path / "c.svg"
    assert run(["curve", "--n", "8", "--svg", str(out)]) == 0
    text = out.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<path") == 1
    assert text.count("<rect") == 0
    assert 'viewBox="' in text
    # one M plus one L per remaining vertex
    n_pts = words.fib_length(2, 8) + 1
    path = text.split('<path d="')[1].split('"')[0]
    assert path.count("L") == n_pts - 1


def test_curve_svg_bbox_overlay(tmp_path):
    out = tmp_path / "c.svg"
    assert run(["curve", "--n", "8", "--bbox", "--svg", str(out)]) == 0
    assert out.read_text().count("<rect") == 1


def test_curve_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(["curve", "--n", "10", "--alpha", "pi/3", "--svg", str(a)])
    run(["curve", "--n", "10", "--alpha", "pi/3", "--svg", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_curve_csv_vertices(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["curve", "--n", "6", "--csv", str(out)]) == 0
    pts = np.loadtxt(out, delimiter=",")
    assert pts.shape == (words.fib_length(2, 6) + 1, 2)
    assert np.array_equal(pts[0], [0.0, 0.0])
    assert pts[1] == pytest.approx([0.0, 1.0], abs=1e-15)


def test_curve_rejects_conflicting_shorthands(tmp_path):
    code = run(["curve", "--svg", str(tmp_path / "a.svg"),
                "--csv", str(tmp_path / "a.csv")])
    assert code == 2


@pytest.mark.parametrize("fmt, spellings", [
    ("svg", [["--svg", "{p}"], ["--format", "svg", "--svg", "{p}"], ["--out", "{p}"],
             ["--format", "svg", "--out", "{p}"]]),
    ("csv", [["--csv", "{p}"], ["--format", "csv", "--csv", "{p}"],
             ["--format", "csv", "--out", "{p}"]]),
])
def test_curve_agreeing_output_flags_write_the_same_bytes(tmp_path, fmt, spellings):
    outputs = set()
    for k, flags in enumerate(spellings):
        path = tmp_path / ("%d.%s" % (k, fmt))
        assert run(["curve", "--n", "6"] + [f.format(p=path) for f in flags]) == 0
        outputs.add(path.read_bytes())
    assert len(outputs) == 1
    assert outputs.pop().startswith(b"<?xml") == (fmt == "svg")


def test_curve_alpha_out_of_range():
    assert run(["curve", "--n", "6", "--alpha", "2.0"]) == 2


# a finite unit can still carry the coordinates past the largest float, and
# a subnormal one leaves the segment steps too few bits
@pytest.mark.parametrize("flags", [["--unit", "inf"], ["--unit", "nan"],
                                   ["--stroke-width", "inf"],
                                   ["--stroke-width", "nan"],
                                   ["--unit", "1e308"], ["--unit", "1e-320"]])
def test_curve_non_finite_sizes_are_usage_errors(tmp_path, flags):
    out = tmp_path / "c.csv"
    assert run(["curve", "--n", "5", "--csv", str(out)] + flags) == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [["word", "--i", "2", "--n", "5", "--format", "svg"],
                                  ["curve", "--n", "5", "--parity", "up"],
                                  ["verify", "--level", "everything"]])
def test_bad_choices_are_usage_errors(args):
    # argparse rejects these before any config is built
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# stats


def test_stats_json_values(tmp_path):
    out = tmp_path / "s.json"
    assert run(["stats", "--i", "2", "--n", "2", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["vertices"] == 3
    assert doc["width"] == pytest.approx(math.sqrt(2.0))
    assert doc["aspect"] == pytest.approx(2.0)
    assert doc["turn_count"] == -1


def test_stats_json_writes_null_for_infinite_aspect(capsysbinary):
    # json.loads takes Infinity by default, though JSON has no such number
    def reject(name):
        raise ValueError("not JSON: %s" % (name,))

    assert run(["stats", "--n", "5", "--alpha", "0", "--format", "json"]) == 0
    doc = json.loads(capsysbinary.readouterr().out, parse_constant=reject)
    assert doc["aspect"] is None
    assert doc["width"] == 8.0

    # a nested report, as verify writes one, nulls every non-finite margin
    report = {"passed": False, "checks": [
        {"name": name, "margin": m, "detail": ""}
        for name, m in (("a", math.nan), ("b", math.inf), ("c", -math.inf),
                        ("d", 0.1 + 0.2))]}
    # the bytes of the parse-and-dump round trip this writer replaced
    want = json.dumps(json.loads(json.dumps(report), parse_constant=lambda _: None),
                      indent=2) + "\n"
    data = cli._json_bytes(report)
    assert data == want.encode("ascii")
    doc = json.loads(data, parse_constant=reject)
    assert [c["margin"] for c in doc["checks"]] == [None, None, None, 0.1 + 0.2]


def test_stats_text_lines(capsysbinary):
    assert run(["stats", "--n", "8"]) == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    keys = [ln.split()[0] for ln in lines]
    assert keys == ["i", "n", "alpha", "segments", "vertices", "width",
                    "height", "aspect", "net_angle", "turn_count"]


# ---------------------------------------------------------------------------
# dim


def test_dim_csv_table(capsysbinary):
    assert run(["dim"]) == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    assert lines[0] == "alpha,R,r_plus,aspect_limit,dimension"
    assert len(lines) == 10  # default 9-point grid
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[3] == "inf"
    assert float(first[4]) == 1.0


def test_dim_json_nulls_nonfinite(tmp_path):
    out = tmp_path / "d.json"
    assert run(["dim", "--alphas", "0,pi/2", "--format", "json",
                "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["aspect_limit"] is None
    assert rows[0]["dimension"] == 1.0
    assert rows[1]["aspect_limit"] == pytest.approx(math.sqrt(2.0))
    assert rows[1]["dimension"] == pytest.approx(1.6379382096763471)


@pytest.mark.parametrize("n", [1, 2, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1,
                               2 * cli.CSV_BLOCK_ROWS + 3])
def test_dim_json_blocks_match_one_dump(n):
    # alpha = 0, whose aspect limit is infinite, opens every block
    alphas = tuple(np.linspace(0.0, math.pi / 2, n).tolist())
    alphas = tuple(0.0 if k % cli.CSV_BLOCK_ROWS == 0 else a for k, a in enumerate(alphas))
    rows = cli._dim_rows(alphas)
    want = cli._json_bytes([dict(zip(cli._DIM_COLUMNS, row)) for row in rows])
    assert b"".join(cli._dim_blocks(alphas, "json")) == want
    assert want.count(b'"aspect_limit": null') == -(-n // cli.CSV_BLOCK_ROWS)
    # the CSV table joined whole, one line per row
    lines = [",".join(cli._DIM_COLUMNS)]
    lines += [",".join(ifsmod._fmt(v) for v in row) for row in rows]
    want = ("\n".join(lines) + "\n").encode("ascii")
    assert b"".join(cli._dim_blocks(alphas, "csv")) == want
    assert want.count(b",inf,") == -(-n // cli.CSV_BLOCK_ROWS)


# a dim CSV row: five %.17g numbers of at most 24 characters (sign, 17
# digits, point, exponent), four commas and a newline
_DIM_ROW_BYTES = 5 * 24 + 5


@pytest.mark.parametrize("argv,block", [
    (["word", "--i", "2", "--n", "28"], words._BLOCK),  # 514,229 symbols
    (["word", "--i", "2", "--n", "28", "--format", "bin"], words._BLOCK // 8),
    (["dim", "--grid", "10000"], cli.CSV_BLOCK_ROWS * _DIM_ROW_BYTES),
    (["sweep", "--grid", "10000", "--what", "dim"], cli.CSV_BLOCK_ROWS * _DIM_ROW_BYTES),
], ids=["word-txt", "word-bin", "dim-csv", "sweep-dim"])
def test_outputs_reach_the_writer_in_blocks(argv, block, tmp_path, monkeypatch):
    real, sizes = cli.atomic_write, []

    def recording(path, blocks):
        real(path, (sizes.append(len(b)) or b for b in blocks))

    monkeypatch.setattr(cli, "atomic_write", recording)
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0
    assert max(sizes) <= block and sum(sizes) > 3 * block


def test_dim_plot_output(tmp_path):
    plot = tmp_path / "s.svg"
    assert run(["dim", "--out", str(tmp_path / "d.csv"),
                "--plot", str(plot)]) == 0
    assert plot.read_text().count("<path") == 1


def test_dim_bad_angle_list(tmp_path):
    assert run(["dim", "--alphas", "0,xyz"]) == 2
    assert run(["dim", "--alphas", "0,2.5"]) == 2
    # an empty list is an error, not the default grid
    assert run(["dim", "--alphas", ""]) == 2
    assert run(["sweep", "--alphas", "", "--out", str(tmp_path / "s")]) == 2
    # so is a --what that names no output; neither makes the --out directory
    assert run(["sweep", "--what", ",", "--out", str(tmp_path / "s")]) == 2
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# ifs / attractor


def test_ifs_json_stdout(capsysbinary):
    assert run(["ifs", "--alpha", "pi/2"]) == 0
    doc = json.loads(capsysbinary.readouterr().out.decode())
    assert doc["alpha"] == pytest.approx(math.pi / 2)
    assert doc["parity"] == "even"
    assert len(doc["maps"]) == 5
    R = 1.0 / (1.0 + math.sqrt(2.0))
    assert doc["maps"][0]["scale"] == pytest.approx(R, rel=1e-12)


def test_attractor_row_count(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["attractor", "--depth", "2", "--out", str(out)]) == 0
    assert np.loadtxt(out, delimiter=",").shape == (50, 2)


def test_attractor_usage_errors():
    assert run(["attractor", "--depth", "-1"]) == 2
    assert run(["attractor", "--depth", "13"]) == 2


@pytest.mark.parametrize("argv", [["attractor"], ["sweep", "--what", "attractor"]])
def test_depth_cap_follows_max_segments(argv, tmp_path, monkeypatch):
    # 2 * 5^10 = 19.5M points fit under the drawing cap, 2 * 5^11 do not
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "sweep")]
    cli._validate(cli.build_parser().parse_args(argv + ["--depth", "10"]))

    def no_work(*args, **kwargs):
        raise AssertionError("an over-deep run started work")

    # the cap is checked before any map is derived or point made
    monkeypatch.setattr(cli.ifsmod, "derive_ifs", no_work)
    assert run(argv + ["--depth", "11"]) == 2
    assert 2 * 5 ** cli.MAX_DEPTH <= cli.MAX_SEGMENTS < 2 * 5 ** (cli.MAX_DEPTH + 1)


# ---------------------------------------------------------------------------
# verify


def test_verify_words_level(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--level", "words", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["level"] == "words"
    assert all(c["name"].startswith("words.") for c in rep["checks"])
    assert all(c["passed"] for c in rep["checks"])


def test_verify_full_level(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--level", "full", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["level"] == "full"
    assert len(rep["checks"]) == 24
    assert all(c["passed"] for c in rep["checks"])
    check = next(c for c in rep["checks"]
                 if c["name"] == "ifs.curve_approaches_attractor")
    assert check["margin"] >= 0.5
    # the report file holds the bytes verify prints without --out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4b6968f7fb90e9e8fc1b1a15335819da06dd430388299d8fc9ccd66348d8991f")


@pytest.mark.parametrize("alpha", ["pi/6", "pi/3", "pi/2"])
@pytest.mark.parametrize("i", range(2, 8))
def test_verify_curves_every_i(i, alpha, tmp_path):
    # for odd i the width ratio is read two orders later than for even i
    out = tmp_path / "r.json"
    assert run(["verify", "--level", "curves", "--i", str(i), "--alpha", alpha,
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


@pytest.mark.parametrize("i", [3, 4, 5, 6, 7])
def test_verify_ifs_every_i(tmp_path, i):
    # i=2 is covered by test_verify_full_level
    out = tmp_path / "r.json"
    assert run(["verify", "--level", "ifs", "--i", str(i), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


_PERTURBATIONS = pytest.mark.parametrize(
    "i,turn,shift", [(2, 0.2, 0.0), (3, -0.2, 0.0), (2, 0.0, 0.05), (3, 0.0, -0.05)])


def _perturb_first_map(monkeypatch, turn, shift):
    derive = ifsmod.derive_ifs

    def perturbed(*args, **kwargs):
        F = derive(*args, **kwargs)
        m = F.maps[0]
        m = dataclasses.replace(m, rotation=m.rotation + turn,
                                translation=(m.translation[0] + shift,
                                             m.translation[1]))
        return dataclasses.replace(F, maps=(m,) + F.maps[1:])

    monkeypatch.setattr(ifsmod, "derive_ifs", perturbed)


@_PERTURBATIONS
def test_curve_check_catches_a_perturbed_map(monkeypatch, i, turn, shift):
    # one map turned or moved carries the attractor away from the curves
    _perturb_first_map(monkeypatch, turn, shift)
    args = argparse.Namespace(i=i, alpha=math.pi / 2, parity="even-left",
                              negative_control=False)
    check = next(c for c in cli._checks_ifs(args)
                 if c["name"] == "ifs.curve_approaches_attractor")
    assert not check["passed"]


@_PERTURBATIONS
def test_rate_check_catches_a_perturbed_map(monkeypatch, i, turn, shift):
    # the curves no longer approach the perturbed maps' attractor, so their
    # collage distances stop falling by R^2 per step
    _perturb_first_map(monkeypatch, turn, shift)
    args = argparse.Namespace(i=i, alpha=math.pi / 2, parity="even-left")
    check = next(c for c in cli._checks_full(args)
                 if c["name"] == "full.curve_convergence")
    assert not check["passed"]


def test_hausdorff_check_catches_approximate_kernel(monkeypatch):
    # an eps=1.0 k-d tree query may return a neighbour up to twice as far as
    # the nearest one; the check's point sets are large enough to see that
    from scipy.spatial import cKDTree

    from fibfrac import metrics

    def run_check():
        checks = cli._checks_dim(None)
        return next(c for c in checks
                    if c["name"] == "dim.hausdorff_grid_vs_brute")

    exact = run_check()
    assert exact["passed"] and exact["margin"] == 1.0

    def approximate(queries, ref):
        dist, _ = cKDTree(ref).query(queries, k=1, eps=1.0)
        return float(dist.max())

    monkeypatch.setattr(metrics, "directed_hausdorff", approximate)
    assert run_check()["passed"] is False


def test_verify_negative_control(tmp_path, capsysbinary):
    out = tmp_path / "r.json"
    assert run(["verify", "--level", "words", "--negative-control",
                "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert failed == ["ifs.similarity_fit"]
    # stderr has one line per check, passed or failed, with its wall time
    line = re.compile(r"\[(ok |FAIL)\] (\S+) +margin [-+]\d\.\d{3}e[-+]\d+"
                      r" +\d+\.\d{3} s  ")
    err = capsysbinary.readouterr().err.decode()
    assert [line.match(ln).groups() for ln in err.splitlines()] == [
        ("ok " if c["passed"] else "FAIL", c["name"]) for c in rep["checks"]]


def test_verify_reports_a_false_structural_claim(tmp_path, monkeypatch):
    # a corrupt f_10 breaks the five-part decomposition, which five_partite
    # raises as a StructureError; verify reports it as a failed check
    concat = words.word_concat

    def corrupt(i, n):
        w = concat(i, n)
        if n != 10:
            return w
        bits = w.bits().copy()
        bits[-1] ^= 1
        return words.Word(bits)

    monkeypatch.setattr(words, "word_concat", corrupt)
    out = tmp_path / "r.json"
    assert run(["verify", "--level", "words", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["checks"][-1]["name"] == "words.StructureError"
    assert "f_10^[2]" in rep["checks"][-1]["detail"]
    assert [c["name"] for c in rep["checks"] if c["passed"]] == [
        "words.small_words_exact"]


def _draw_spy(monkeypatch):
    """Patch turtle.draw to record (length, parity) of each word it draws."""
    draw, drawn = turtle.draw, []

    def spy(w, alpha, unit=1.0, parity="even-left"):
        drawn.append((words.as_bits(w).size, parity))
        return draw(w, alpha, unit=unit, parity=parity)

    monkeypatch.setattr(turtle, "draw", spy)
    return drawn


def test_full_convergence_draws_with_the_given_parity(monkeypatch):
    drawn = _draw_spy(monkeypatch)
    args = argparse.Namespace(i=2, alpha=math.pi / 3, parity="odd-left")
    assert all(c["passed"] for c in cli._checks_full(args))
    assert {parity for _, parity in drawn} == {"odd-left"}


@pytest.mark.parametrize("i", [2, 3, 4, 5])
def test_group_orders_are_the_longest_words_drawn(monkeypatch, i):
    # _validate caps a run by these orders before any work starts
    drawn = _draw_spy(monkeypatch)
    args = argparse.Namespace(i=i, alpha=math.pi / 2, parity="even-left",
                              negative_control=False)
    for name, (checks, order) in cli._GROUPS.items():
        drawn.clear()
        assert all(c["passed"] for c in checks(args)), name
        want = None if order is None else words.fib_length(i, order(i))
        assert max((size for size, _ in drawn), default=None) == want, name

    drawn.clear()
    ifsmod.derive_ifs(i, math.pi / 2)
    ref = turtle.similar_order(i, 2)
    assert max(size for size, _ in drawn) == words.fib_length(i, ref)
    for argv in (["ifs"], ["attractor"], ["sweep", "--what", "ifs", "--out", "s"]):
        assert cli._longest_order(
            cli.build_parser().parse_args(argv + ["--i", str(i)])) == ref


# ---------------------------------------------------------------------------
# output handling


def test_missing_output_directory_is_usage_error(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run(["curve", "--n", "6", "--csv", str(target)]) == 2
    assert not target.exists()
    # a symlink is written through, so its target's directory must exist
    (tmp_path / "link").symlink_to(target)
    assert run(["curve", "--n", "6", "--csv", str(tmp_path / "link")]) == 2
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["word", "--i", "2", "--n", "5", "--out", "{dir}"],
    ["curve", "--n", "5", "--csv", "{dir}"],
    ["dim", "--plot", "{dir}"],
    ["verify", "--level", "words", "--out", "{dir}"],
    ["sweep", "--alphas", "pi/2", "--out", "{file}"],
    # "" resolves to the working directory, which no file can replace
    ["word", "--i", "2", "--n", "5", "--out", ""],
    ["dim", "--out", ""],
    ["dim", "--plot", ""],
    # sweep makes its directory when it starts; these it cannot make
    ["sweep", "--what", "dim", "--grid", "3", "--out", "{file}/sub"],
    ["sweep", "--what", "dim", "--grid", "3", "--out", ""],
    # a shorthand with --out, or with a --format naming the other format,
    # would silently drop one of them
    ["curve", "--n", "5", "--out", "a.csv", "--svg", "b.svg"],
    ["curve", "--n", "5", "--csv", "a.csv", "--out", "b.csv"],
    ["curve", "--n", "5", "--format", "csv", "--svg", "c.svg"],
    ["curve", "--n", "5", "--format", "svg", "--csv", "c.csv"],
], ids=["word-out", "curve-csv", "dim-plot", "verify-out", "sweep-out-file",
        "word-out-empty", "dim-out-empty", "dim-plot-empty", "sweep-out-under-file",
        "sweep-out-empty", "curve-out-and-svg", "curve-csv-and-out",
        "curve-csv-format-and-svg", "curve-svg-format-and-csv"])
def test_output_path_of_the_wrong_kind_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("keep")
    monkeypatch.chdir(tmp_path)
    argv = [a.format(dir=tmp_path / "d", file=tmp_path / "f") for a in argv]

    def no_work(*args, **kwargs):
        raise AssertionError("a run with a bad output path started work")

    monkeypatch.setattr(cli.words, "word_concat", no_work)
    monkeypatch.setattr(cli, "_dim_blocks", no_work)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fibfrac: error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "f"]
    assert list((tmp_path / "d").iterdir()) == []
    assert (tmp_path / "f").read_text() == "keep"


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "w.txt"
    assert run(["word", "--i", "2", "--n", "8", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.txt"]


def test_out_writes_through_a_symlink(tmp_path):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "w.txt"
    target.write_text("old")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert run(["word", "--i", "2", "--n", "5", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == b"01001010\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real"]
    assert sorted(p.name for p in (tmp_path / "real").iterdir()) == ["w.txt"]


def test_out_writes_a_fifo_directly(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a reader opened first lets the writer's open return at once
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(["word", "--i", "2", "--n", "5", "--out", str(fifo)]) == 0
        got = os.read(fd, 64)
    finally:
        os.close(fd)
    assert got == b"01001010\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_out_file_modes_match_a_plain_open(tmp_path):
    new, kept = tmp_path / "new.txt", tmp_path / "kept.txt"
    kept.write_text("old")
    kept.chmod(0o640)
    old_umask = os.umask(0o022)
    try:
        for path in (new, kept):
            assert run(["word", "--i", "2", "--n", "5", "--out", str(path)]) == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert kept.read_bytes() == b"01001010\n"


# ---------------------------------------------------------------------------
# sweep


# SHA-256 of each file of `sweep --alphas pi/6,pi/3 --what dim,ifs,attractor
# --depth 3`
SWEEP_DIGESTS = {
    "attractor_00.csv":
        "b0bf476bd696a8938706f0dd3d807ff8676b8282dfec0c0f66c5056b5e08f9c4",
    "attractor_01.csv":
        "e5be58117b983137f5f70909320da6a617cb3686e2afc86bde37318e12f57d28",
    "dim.csv": "71f5fc439adef1d58386633f20762b7e07ab84b4f9fd4aab6ca3eb2ea7d5afa4",
    "ifs_00.json": "db3e9c3960d99527a4b8f014545ede88572e92a1aab815fbce04bb9de8e8a692",
    "ifs_01.json": "57bf3d7c9a79706ff3cf6156661f69487e22e15acf849511d4df0003af5952f8",
}


def sweep_into(tmp_path, name, what):
    outdir = tmp_path / name
    code = run(["sweep", "--alphas", "pi/6,pi/3", "--what", what,
                "--depth", "3", "--out", str(outdir)])
    assert code == 0
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_sweep_output_digests(tmp_path):
    full = sweep_into(tmp_path, "full", "dim,ifs,attractor")
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in full.items()} == SWEEP_DIGESTS
    part = sweep_into(tmp_path, "part", "dim,ifs")
    assert sorted(part) == ["dim.csv", "ifs_00.json", "ifs_01.json"]
    assert all(part[name] == full[name] for name in part)
    doc = json.loads(part["ifs_00.json"].decode())
    assert doc["alpha"] == pytest.approx(math.pi / 6)


def test_sweep_attractor_files(tmp_path):
    outdir = tmp_path / "sw"
    assert run(["sweep", "--alphas", "pi/2", "--what", "attractor",
                "--depth", "3", "--out", str(outdir)]) == 0
    pts = np.loadtxt(outdir / "attractor_00.csv", delimiter=",")
    assert pts.shape == (250, 2)


def test_sweep_requires_out():
    with pytest.raises(SystemExit):
        run(["sweep", "--alphas", "pi/2"])


# ---------------------------------------------------------------------------
# point writers, each checked against the writer it replaced


def _savetxt_csv(pts):
    buf = io.BytesIO()
    np.savetxt(buf, pts, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def _joined_svg_path(pts):
    def g(v):
        return format(v, ".9g")

    return "M" + "L".join("%s %s" % (g(x), g(y)) for x, y in zip(pts[:, 0], -pts[:, 1]))


def _svg_path(blocks):
    doc = b"".join(blocks)
    return re.search(rb'<path d="([^"]*)"', doc).group(1).decode("ascii")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1e300, 1e-300, 1e22, 1e-7, 0.1, -1.5]


def _rows_with_runs(draw_row):
    # a list of rows, each repeated one to four times in a row
    runs = st.lists(st.tuples(draw_row, st.integers(1, 4)), max_size=40)
    return runs.map(lambda rs: np.array([r for r, k in rs for _ in range(k)],
                                        dtype=np.float64).reshape(-1, 2))


_any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
_finite_float = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


_signed_zero = st.sampled_from([0.0, -0.0])


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# a small pool, so that a value recurs within a block, in rows far apart and
# in both columns: the writers format each distinct value of a block once
_POOL = EDGE_FLOATS + [math.inf, -math.inf, 4e-320, -1.5e-310, 2.2250738585072009e-308,
                       _nan(0x7FF8000000000000), _nan(0xFFF8000000000000),
                       _nan(0x7FF8000000000ABC), _nan(0xFFF8000000000123)]
_SVG_POOL = [v for v in _POOL if abs(v) <= 1e300]
_pooled = st.sampled_from(_POOL)
_svg_pooled = st.sampled_from(_SVG_POOL)


@settings(max_examples=300, deadline=None)
@given(_rows_with_runs(st.one_of(st.tuples(_any_float, _any_float),
                                 st.tuples(_signed_zero, _signed_zero),
                                 st.tuples(_pooled, _pooled))))
def test_points_csv_matches_savetxt(pts):
    assert cli.points_csv(pts) == _savetxt_csv(pts)


def _block_case(n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    pts[1::3] = pts[0::3][:len(pts[1::3])]  # a repeated row every third row
    edges = np.array(EDGE_FLOATS)
    pts.ravel()[5::7] = edges[np.arange(len(pts.ravel()[5::7])) % len(edges)]
    return pts


def _streamed_csv(pts):
    # the bytes the CLI writes: points_csv of each CSV_BLOCK_ROWS-row slice
    return b"".join(cli._csv_blocks(pts))


@pytest.mark.parametrize("n", [0, 1, 2, cli.CSV_BLOCK_ROWS - 1, cli.CSV_BLOCK_ROWS,
                               cli.CSV_BLOCK_ROWS + 1, 65_535, 65_536, 65_537])
def test_points_csv_block_sizes(n):
    pts = _block_case(n)
    assert _streamed_csv(pts) == _savetxt_csv(pts)
    assert cli.points_csv(pts) == _savetxt_csv(pts)


def test_points_csv_runs_across_block_boundary():
    b = cli.CSV_BLOCK_ROWS
    pts = _block_case(2 * b + 3, seed=1)
    pts[b - 5:b + 7] = pts[b - 5]
    pts[2 * b - 1:] = [-0.0, 0.0]
    assert _streamed_csv(pts) == _savetxt_csv(pts)
    same = np.full((b + 1, 2), 0.1)
    assert _streamed_csv(same) == b"0.10000000000000001,0.10000000000000001\n" * (b + 1)


def test_pooled_values_stream_across_block_boundaries():
    # every pool value falls in every block, on both sides of each boundary
    b = cli.CSV_BLOCK_ROWS
    rng = np.random.default_rng(3)
    pts = rng.choice(np.array(_POOL), size=(2 * b + 3, 2))
    assert _streamed_csv(pts) == _savetxt_csv(pts)
    pts = rng.choice(np.array(_SVG_POOL), size=(2 * b + 3, 2))
    assert _svg_path(cli.polyline_svg(pts)) == _joined_svg_path(pts)


def test_points_csv_signed_zeros_are_distinct_rows():
    pts = np.array([[0.0, 0.0], [-0.0, 0.0], [-0.0, 0.0], [0.0, -0.0],
                    [-0.0, -0.0], [0.0, 0.0]])
    assert cli.points_csv(pts) == b"0,0\n-0,0\n-0,0\n0,-0\n-0,-0\n0,0\n"
    assert cli.points_csv(pts) == _savetxt_csv(pts)


@pytest.mark.parametrize("shape", [(4,), (3, 3), (3, 1), (2, 2, 2), ()])
def test_points_csv_rejects_other_shapes(shape):
    with pytest.raises(DomainError):
        cli.points_csv(np.zeros(shape))


# the viewBox spans the points' spread plus a margin, which overflows for
# points near the largest float
_svg_float = st.one_of(st.sampled_from([v for v in EDGE_FLOATS if abs(v) <= 1e300]),
                       st.floats(-1e300, 1e300))


@settings(max_examples=200, deadline=None)
@given(_rows_with_runs(st.one_of(st.tuples(_svg_float, _svg_float),
                                 st.tuples(_svg_pooled, _svg_pooled))).filter(len))
def test_svg_path_matches_per_point_join(pts):
    assert _svg_path(cli.polyline_svg(pts)) == _joined_svg_path(pts)


@pytest.mark.parametrize("pts", [
    np.array([[0.0, 0.0], [np.nan, 1.0]]),
    np.array([[0.0, 0.0], [1.0, -np.inf]]),
    np.zeros((0, 2)),
    np.zeros(4),
    np.zeros((3, 3)),
    np.array([[-1e308, 0.0], [1e308, 0.0]]),
], ids=["nan", "inf", "empty", "1-d", "3-columns", "overflowing-viewbox"])
def test_svg_rejects_bad_points(pts):
    with pytest.raises(DomainError):
        cli.polyline_svg(pts)


@pytest.mark.parametrize("argv,points", [
    (["stats", "--n", "5"], [[-1e308, 0.0], [1e308, 0.0]]),
    (["curve", "--n", "5", "--svg"], [[0.0, 0.0], [np.nan, 1.0]]),
], ids=["stats-overflow", "svg-nan"])
def test_bad_drawn_points_exit_2(argv, points, tmp_path):
    # draw's own checks keep such points out, so stand in for it
    bad = turtle.Polyline(points=np.array(points), final_heading=0.0, turn_count=0)
    if argv[-1] == "--svg":
        argv = argv + [str(tmp_path / "c.svg")]
    with mock.patch.object(cli.turtle, "draw", return_value=bad), \
            np.errstate(over="ignore", invalid="ignore"):
        assert run(argv) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n", [1, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1,
                               2 * cli.CSV_BLOCK_ROWS + 3])
def test_svg_path_block_sizes(n):
    # bounded as _svg_float is, so the viewBox stays finite
    pts = np.clip(_block_case(n, seed=2), -1e300, 1e300)
    assert _svg_path(cli.polyline_svg(pts)) == _joined_svg_path(pts)


def _streaming_peaks(make_blocks):
    """Traced peaks of making the block iterator, and of draining it block by block."""
    tracemalloc.start()
    try:
        blocks = make_blocks()
        call = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        size = sum(len(b) for b in blocks)
        drain = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return call, drain, size


@pytest.mark.parametrize("n", [25, 28])
def test_svg_blocks_stream_in_fixed_memory(n):
    curve = turtle.draw(words.word_concat(2, n), math.pi / 3).points
    call, drain, size = _streaming_peaks(lambda: cli.polyline_svg(curve))
    # the call copies no coordinate for the viewBox or the finiteness check;
    # the drain holds one formatted block at a time, however long the output
    assert call <= 2**12
    assert drain <= 2**19 < size


# the rect prints y0, the least flipped y, and y1 - y0; each zero's sign is
# the one np.min and np.max of the flipped ys pick.  At nine points numpy's
# min of -y and max of y break a tie between zeros differently.
@pytest.mark.parametrize("ys,rect", [
    ([0.0, -0.0, -1.0], 'y="0" width="2" height="1"'),
    ([-0.0, 0.0, -1.0], 'y="-0" width="2" height="1"'),
    ([0.0, -0.0], 'y="0" width="1" height="0"'),
    ([-0.0, 0.0], 'y="-0" width="1" height="0"'),
    ([0.0] * 8 + [-0.0], 'y="-0" width="8" height="0"'),
    ([-0.0] * 8 + [0.0], 'y="0" width="8" height="0"'),
    ([-1.0] + [0.0] * 7 + [-0.0], 'y="-0" width="8" height="1"'),
    ([-1.0] + [-0.0] * 7 + [0.0], 'y="0" width="8" height="1"'),
])
def test_svg_bbox_keeps_the_sign_of_a_zero_extent(ys, rect):
    pts = np.column_stack([np.arange(len(ys), dtype=float), ys])
    doc = b"".join(cli.polyline_svg(pts, bbox=True)).decode("ascii")
    assert re.search(r'<rect x="0" (y="[^"]*" width="[^"]*" height="[^"]*")',
                     doc).group(1) == rect
    assert _svg_path([doc.encode("ascii")]) == _joined_svg_path(pts)


@pytest.mark.parametrize("depth", [6, 7])
def test_csv_blocks_stream_in_fixed_memory(depth):
    pts = ifsmod.attractor(ifsmod.derive_ifs(2, math.pi / 2), depth=depth)
    call, drain, size = _streaming_peaks(lambda: cli._csv_blocks(pts))
    assert call <= 2**10
    assert drain <= 2**19 < size


def test_failing_block_leaves_the_old_file(tmp_path, monkeypatch):
    # depth 4 has 1,250 points, two blocks; the second one fails
    target = tmp_path / "att.csv"
    target.write_bytes(b"old contents\n")
    real, calls = cli.points_csv, []

    def second_call_fails(pts):
        calls.append(len(pts))
        if len(calls) == 2:
            raise DomainError("second block fails")
        return real(pts)

    monkeypatch.setattr(cli, "points_csv", second_call_fails)
    assert run(["attractor", "--depth", "4", "--out", str(target)]) == 2
    assert calls == [cli.CSV_BLOCK_ROWS, 1_250 - cli.CSV_BLOCK_ROWS]
    assert target.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["att.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_is_a_usage_error(capsys):
    # every check passes; only the report's write fails
    assert run(["verify", "--level", "words", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("fibfrac: error: ")


def test_a_closed_stdout_is_a_usage_error(monkeypatch, capsys):
    stdout = mock.Mock()
    stdout.buffer.writelines.side_effect = BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    assert run(["attractor", "--depth", "2"]) == 2
    assert capsys.readouterr().err == "fibfrac: error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [["stats", "--n", "6", "--alpha=%s"],
                                  ["ifs", "--alpha=%s"],
                                  ["dim", "--alphas=%s,pi/2"]])
def test_negative_zero_alpha_prints_as_zero(argv, capsysbinary):
    outs = []
    for zero in ("-0", "0"):
        assert run([a.replace("%s", zero) for a in argv]) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1]


def test_bad_svg_points_write_nothing_to_stdout(capsysbinary):
    bad = turtle.Polyline(points=np.array([[0.0, 0.0], [np.nan, 1.0]]),
                          final_heading=0.0, turn_count=0)
    with mock.patch.object(cli.turtle, "draw", return_value=bad):
        assert run(["curve", "--n", "5"]) == 2
    assert capsysbinary.readouterr().out == b""


# ---------------------------------------------------------------------------
# golden stdout


EMPTY = hashlib.sha256(b"").hexdigest()

# SHA-256 of the stdout bytes of each invocation; a usage error (exit 2)
# writes nothing to stdout
GOLDEN = [
    ("word --i 2 --n 8", 0,
     "66aafc93a3f8eefff66c5fddecbbff2164140843efb18e2a843d6cc4e4abf3f6"),
    ("word --i 3 --n 9 --format bin", 0,
     "62d716901a1e4c6de5e5f70b6a96c00d831c03204f853d996d060a279d7939b0"),
    ("curve --n 9", 0,
     "f17bea0fb9586bd51d2a95fce3ea7db47de4768f41b97e70d3c7cb15af5c144f"),
    ("curve --n 9 --format csv", 0,
     "34ff893260e8090e4ea4583827339ca60232144e15ca5badc61c66ccda9abcc2"),
    ("curve --n 9 --alpha pi/3 --bbox --stroke-width 0.05 --parity odd-left", 0,
     "c76fd48551e45ae9401c8387e3d008af8b92b548a7b54b534939f88259c9063e"),
    ("curve --i 3 --n 9 --alpha 0.3 --unit 0.5 --parity odd-left --format csv", 0,
     "995ef558036a9b0f0259d34535894b7176cb402eb2e5507e38816da9b957cf91"),
    ("stats --n 10", 0,
     "8942da9fa785f1750490815e875dc0efa923769fd67c0318bfd4c806d2a3a7bf"),
    ("stats --i 3 --n 9 --alpha pi/6 --format json", 0,
     "667c8417d7cf44e8ab3aee84e7907591311c7142aa25c9ad192f21b2d39850fd"),
    ("dim", 0,
     "0398d62914191f7cae78a1338c1db613a6d1134071910adfca231c7d2568de70"),
    ("dim --grid 5 --format json", 0,
     "7322a1be5cc29c7517d30b39d0fcf4f7510ca68ecc9b835fe517344ba33c0e00"),
    ("dim --alphas 0,pi/6,pi/2", 0,
     "5e2d0e8c1da6e39f3354aace2b2e77ccbcc5c25104c39dc4539bf02726e5a04f"),
    ("ifs", 0,
     "dcd7173879cf0a1addf96b2b4051afc8c9279532b892805caef76b3ba0104aa7"),
    ("ifs --i 3 --alpha pi/4 --parity odd-left", 0,
     "f6d757fd6715d299bca68d0744749bf367ca826234dc0030a13919ecddf56a16"),
    ("attractor --depth 3", 0,
     "657f71a37fd25ab66b89913f37a614e1dc041e5fa4dbbef8267a6cba9c4e5d6c"),
    ("attractor --depth 2", 0,
     "4524b0ea5d90cd0394b4cffc397680196629654baa90e29b59da332d2f346fe4"),
    ("verify --level words", 0,
     "ab991c1fe46b00e1cd8621ad8328a377b399f31cd8049f8625acfa2a20ca4886"),
    ("word --i 1 --n 3", 2, EMPTY),
    ("curve --n 6 --alpha 2.0", 2, EMPTY),
    ("attractor --depth 3 --budget 10", 2, EMPTY),
    ("attractor --budget 100", 2, EMPTY),  # argparse: unrecognized arguments
    ("dim --alphas 0,xyz", 2, EMPTY),
    ("ifs --n-ref 17", 2, EMPTY),  # argparse: unrecognized arguments
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[argv for argv, _, _ in GOLDEN])
def test_golden_stdout(argv, code, digest, capsysbinary):
    try:
        got = run(argv.split())
    except SystemExit as exc:  # argparse's own usage errors
        got = exc.code
    assert got == code
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest
