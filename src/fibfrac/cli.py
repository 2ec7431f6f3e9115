"""Command-line front end for fibfrac.

Subcommands:
  word       print or save an i-Fibonacci word (text or packed binary)
  curve      render the drawn curve as SVG or CSV vertices
  stats      chord width, height, aspect, and net heading of a drawn curve
  dim        alpha -> (R, r_plus, aspect limit, dimension) table
  ifs        derive the five-map IFS and emit it as JSON
  attractor  sample the attractor by deterministic iteration, as CSV
  verify     run module cross-checks, report per-check margins
  sweep      batch dim/ifs/attractor outputs over an alpha grid

Angles parse as decimal radians or as "pi/k"-style fraction literals
("pi/2", "2pi/12", "0.7853981633974483").  Every output is written a block
at a time as it is formatted.  File output is atomic (temp file in the
destination directory, then rename), so a failing run never leaves a
partial file; a symlink is written through, and a FIFO or device directly.
Identical configurations produce byte-identical output, including SVG.

Exit codes: 0 success, 1 failed verification check, 2 usage error or a
failed write.
"""

import argparse
import json
import math
import os
import re
import secrets
import stat
import sys
import time
from collections import namedtuple
from operator import itemgetter

import numpy as np

from . import analysis, ifs as ifsmod, metrics, turtle, words
from .errors import (DegenerateLandmarksError, DomainError, FibfracError,
                     SelfSimilarityError, StructureError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# fixed palette so rendered files are stable golden-file targets
CURVE_COLOR = "#1a5fb4"
BBOX_COLOR = "#e01b24"

# drawing cap: a drawn segment takes about 18 bytes (its 16-byte vertex, its
# symbol and turn), 360 MB at the cap
MAX_SEGMENTS = 20_000_000
# deepest attractor whose 2 * 5^depth points fit under the same cap
MAX_DEPTH = max(d for d in range(20) if 2 * 5 ** d <= MAX_SEGMENTS)
# word cap: on a 2-core Linux box `word --i 2 --n 40` (f_40^[2], 165M
# symbols) peaked at 192 MB RSS writing text and binary alike: the word, one
# byte a symbol, and one block of its output
MAX_WORD_CHARS = 200_000_000
# alpha grid cap: on a 2-core Linux box `dim --grid 100000` peaked at 39 MB
# RSS writing CSV or JSON, each made a block of rows at a time
MAX_GRID = 100_000
# rows per points_csv call and per write, points per SVG path block and rows
# per dim CSV or JSON block: an output is held one block, a few hundred KB,
# at a time.  A larger block repeats more of its values, so it formats
# faster: on a 2-core Linux box a depth-8 attractor's CSV took 0.39 s at
# 1,024 rows a block, 0.35 s at 4,096 and 0.29 s at 16,384.
CSV_BLOCK_ROWS = 1_024

_PI_LITERAL = re.compile(r"(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?\Z")


def parse_angle(text: str) -> float:
    """Radians from a decimal string or a pi fraction like 'pi/6' or '2pi/12'."""
    s = text.strip().lower().replace(" ", "")
    m = _PI_LITERAL.match(s)
    if m is not None:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise DomainError("zero denominator in angle %r" % (text,))
        return num * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise DomainError(
            "cannot parse angle %r; use radians or a pi/k literal" % (text,)
        ) from None


def parse_angle_list(text: str) -> tuple:
    vals = tuple(parse_angle(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise DomainError("empty angle list %r" % (text,))
    return vals


def atomic_write(path: str, blocks) -> None:
    """Write byte blocks to path as open(path, "wb") would, never half-written.

    Blocks are written as the iterable yields them.  A regular file, new or
    existing, fills a temp file in its own directory, renamed over it after
    the last block.  A symlink is followed: its target is written and the
    link kept.  A path that exists and is neither a regular file nor a
    directory, such as a FIFO or a device, is written directly.  An existing
    file keeps its mode; a new one gets 0o666 less the umask.
    """
    dest = os.path.realpath(path)
    try:
        mode = os.stat(dest).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(dest, "wb") as fh:
            fh.writelines(blocks)
        return
    tmp = os.path.join(os.path.dirname(dest),
                       ".fibfrac-tmp-" + secrets.token_hex(8))
    # os.open applies the umask to 0o666, as open(path, "wb") does
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.writelines(blocks)
        os.replace(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _deliver(blocks, out) -> None:
    if out is None:
        sys.stdout.buffer.writelines(blocks)
        sys.stdout.buffer.flush()
    else:
        atomic_write(out, blocks)


def _json_bytes(obj) -> bytes:
    """Indented JSON and one newline, with each non-finite number as null."""
    # JSON has no Infinity or NaN.  They become None in obj's own dicts and
    # lists, in place: every caller builds obj for this one write.
    def null(o):
        for key, v in (o.items() if isinstance(o, dict) else enumerate(o)):
            if isinstance(v, (dict, list)):
                null(v)
            elif isinstance(v, float) and not math.isfinite(v):
                o[key] = None

    null(obj)
    return (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode("ascii")


def _format_rows(pts: np.ndarray, fmt: bytes, row: bytes) -> bytes:
    """The template row once per row of pts, its two %s filled with fmt of the row's values.

    Each distinct value, told apart by its bits since 0.0 and -0.0 print
    differently, is formatted once: a block of curve or attractor points at
    pi/2 holds few distinct coordinates.
    """
    if len(pts) == 0:
        return b""
    u, inv = np.unique(pts.view(np.uint64), return_inverse=True)
    text = ((fmt + b"\n") * len(u)) % tuple(u.view(np.float64).tolist())
    return (row * len(pts)) % itemgetter(*inv.ravel().tolist())(text.split(b"\n"))


def points_csv(pts: np.ndarray) -> bytes:
    """One "%.17g,%.17g" line per row of an (N, 2) array, as np.savetxt writes."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("points must have shape (N, 2), got %r" % (pts.shape,))
    return _format_rows(pts, b"%.17g", b"%s,%s\n")


def _csv_blocks(pts: np.ndarray):
    """points_csv of each CSV_BLOCK_ROWS-row slice, made as it is iterated."""
    for start in range(0, len(pts), CSV_BLOCK_ROWS):
        yield points_csv(pts[start:start + CSV_BLOCK_ROWS])


def polyline_svg(pts: np.ndarray, stroke_width=None, bbox: bool = False):
    """SVG 1.1 document with the polyline as a single path element, in blocks.

    The viewBox is fitted to the data with a 2 percent margin; the y axis is
    flipped so the drawing appears in the usual orientation.  Stroke width
    defaults to 0.5 percent of the viewBox width.  Number formatting is fixed
    so equal inputs give byte-identical files.  The points must form a
    non-empty (N, 2) array of finite coordinates whose viewBox is finite,
    checked at the call; the returned iterator formats each block as it goes.
    """
    pts = turtle._as_points(pts)
    if len(pts) == 0:
        raise DomainError("an SVG polyline needs at least one point")
    xs, ys = pts[:, 0], pts[:, 1]
    x0, x1 = float(xs.min()), float(xs.max())
    # the flipped y's extents, taken without a flipped copy.  Only the bbox
    # rect can print a zero's sign (y0, and y1 - y0 when both are zero); there
    # it is the zero min(-y) picks, which hangs on numpy's reduction order, so
    # that case alone flips a copy.
    y0, y1 = -float(ys.max()), -float(ys.min())
    if bbox and y0 == 0.0:
        flipped = -ys
        y0, y1 = float(flipped.min()), float(flipped.max())
    span = max(x1 - x0, y1 - y0)
    if span == 0.0:
        span = 1.0
    m = 0.02 * span
    vx, vy = x0 - m, y0 - m
    vw, vh = (x1 - x0) + 2.0 * m, (y1 - y0) + 2.0 * m
    sw = 0.005 * vw if stroke_width is None else float(stroke_width)
    # finite points can lie too far apart for their spread to be finite
    if not all(math.isfinite(v) for v in (vx, vy, vw, vh, sw)):
        raise DomainError("the SVG viewBox or stroke width overflows: "
                          "%r %r %r %r, %r" % (vx, vy, vw, vh, sw))

    def g(v: float) -> str:
        return format(v, ".9g")

    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'viewBox="%s %s %s %s">\n' % (g(vx), g(vy), g(vw), g(vh)))
    if bbox:
        head += ('<rect x="%s" y="%s" width="%s" height="%s" fill="none" '
                 'stroke="%s" stroke-width="%s"/>\n'
                 % (g(x0), g(y0), g(x1 - x0), g(y1 - y0), BBOX_COLOR, g(0.5 * sw)))
    tail = ('" fill="none" stroke="%s" stroke-width="%s" stroke-linejoin="round" '
            'stroke-linecap="round"/>\n</svg>\n' % (CURVE_COLOR, g(sw)))

    def blocks():
        # the first point is the M, every later one an L; "%.9g" % v == g(v)
        yield (head + '<path d="M%s %s' % (g(pts[0, 0]), g(-pts[0, 1]))).encode("ascii")
        for start in range(1, len(pts), CSV_BLOCK_ROWS):
            block = pts[start:start + CSV_BLOCK_ROWS] * (1.0, -1.0)  # same bits as -y
            yield _format_rows(block, b"%.9g", b"L%s %s")
        yield tail.encode("ascii")

    return blocks()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _check_out_dir(path) -> None:
    if path is None:
        return
    dest = os.path.realpath(path)  # where atomic_write writes
    _require(not os.path.isdir(dest), "output path is a directory: %r" % (path,))
    d = os.path.dirname(dest)
    _require(os.path.isdir(d), "output directory does not exist: %r" % (d,))


def _check_alpha(a: float, msg: str) -> float:
    _require(0.0 <= a <= math.pi / 2 + 1e-12, msg % (a,))
    # -0.0 is false and becomes 0.0; any other angle is returned itself, so a
    # 100,000-point grid is not copied
    return min(a, math.pi / 2) or 0.0


def _longest_order(args):
    """Order of the longest word the command draws, None if none depends on --i."""
    sub = args.subcommand
    if sub in ("word", "curve", "stats"):
        return args.n
    if sub in ("ifs", "attractor") or (
            sub == "sweep" and ("ifs" in args.what or "attractor" in args.what)):
        return turtle.similar_order(args.i, 2)  # derive_ifs's reference curve
    if sub == "verify":
        return max((_GROUPS[g].order(args.i) for g in _verify_groups(args)
                    if _GROUPS[g].order), default=None)
    return None


def _validate(args) -> None:
    """Check every flag before any work starts and fill in the derived values.

    Nothing is created here: sweep makes its output directory when it runs.

    Commands never re-check inputs.  A subcommand's namespace only holds the
    flags that subcommand declares, so each check runs where its flag exists.
    """
    sub, given = args.subcommand, vars(args)
    if sub == "curve":
        # --svg / --csv are shorthands for --format plus --out; --format has
        # no parser default, so one that names the other format shows here
        _require(args.svg is None or args.csv is None, "give at most one of --svg/--csv")
        for fmt in ("svg", "csv"):
            if given[fmt] is not None:
                _require(args.out is None, "give --%s or --out, not both" % (fmt,))
                _require(args.format in (None, fmt),
                         "--%s conflicts with --format %s" % (fmt, args.format))
                args.format, args.out = fmt, given[fmt]
        args.format = args.format or "svg"

    if "i" in given:
        _require(args.i >= 2, "need i >= 2, got %d" % (args.i,))
    if "alpha" in given:
        args.alpha = _check_alpha(args.alpha, "alpha must lie in [0, pi/2], got %s")

    if "depth" in given:
        _require(0 <= args.depth <= MAX_DEPTH,
                 "depth must be in 0..%d, got %d" % (MAX_DEPTH, args.depth))

    if "unit" in given:
        turtle._check_unit(args.unit)
    if given.get("stroke_width") is not None:
        _require(0.0 < args.stroke_width < math.inf,
                 "stroke width must be positive and finite")

    if sub in ("dim", "sweep"):
        if args.alphas is not None:
            alphas = parse_angle_list(args.alphas)
        else:
            _require(2 <= args.grid <= MAX_GRID, "grid needs 2..%d points, got %d"
                     % (MAX_GRID, args.grid))
            alphas = tuple(float(a) for a in np.linspace(0.0, math.pi / 2, args.grid))
        args.alphas = tuple(_check_alpha(a, "grid alpha %s outside [0, pi/2]")
                            for a in alphas)

    if sub == "sweep":
        what = args.what.split(",") if args.what else ("dim", "ifs")
        args.what = tuple(tok.strip() for tok in what if tok.strip())
        _require(args.what, "--what names no sweep output")
        for tok in args.what:
            _require(tok in ("dim", "ifs", "attractor"), "bad sweep output %r" % (tok,))
        _require(os.path.isdir(args.out) or not os.path.exists(args.out),
                 "sweep output path is not a directory: %r" % (args.out,))

    n = _longest_order(args)
    if n is not None:
        length = words.fib_length(args.i, n)
        cap = MAX_WORD_CHARS if sub == "word" else MAX_SEGMENTS
        _require(length <= cap, "f_%d^[%d] has %d symbols, over the %d cap"
                 % (n, args.i, length, cap))

    if sub != "sweep":
        _check_out_dir(args.out)
    _check_out_dir(given.get("plot"))


def cmd_word(args) -> int:
    w = words.word_concat(args.i, args.n)
    _deliver((words.to_text if args.format == "txt" else words.to_binary)(w), args.out)
    return EXIT_OK


def cmd_curve(args) -> int:
    w = words.word_concat(args.i, args.n)
    p = turtle.draw(w, args.alpha, unit=args.unit, parity=args.parity)
    if args.format == "svg":
        blocks = polyline_svg(p.points, stroke_width=args.stroke_width, bbox=args.bbox)
    else:
        blocks = _csv_blocks(p.points)
    _deliver(blocks, args.out)
    return EXIT_OK


def cmd_stats(args) -> int:
    w = words.word_concat(args.i, args.n)
    p = turtle.draw(w, args.alpha, unit=args.unit, parity=args.parity)
    st = turtle.curve_stats(p)
    rows = [
        ("i", args.i), ("n", args.n), ("alpha", args.alpha),
        ("segments", p.points.shape[0] - 1), ("vertices", p.points.shape[0]),
        ("width", st.w), ("height", st.h), ("aspect", st.aspect),
        ("net_angle", p.final_heading), ("turn_count", p.turn_count),
    ]
    if args.format == "json":
        data = _json_bytes(dict(rows))
    else:
        lines = ["%s %s" % (k, v if isinstance(v, int) else ifsmod._fmt(v))
                 for k, v in rows]
        data = ("\n".join(lines) + "\n").encode("ascii")
    _deliver([data], args.out)
    return EXIT_OK


def _dim_rows(alphas) -> list:
    return [(a, analysis.scaling_ratio(a), analysis.characteristic_roots(a)[0],
             analysis.aspect_limit(a), analysis.hausdorff_dimension(a))
            for a in alphas]


_DIM_COLUMNS = ("alpha", "R", "r_plus", "aspect_limit", "dimension")
# per format: the text before the rows, one row's template, how a value is
# written, the text between two rows and after the last.  The JSON is the
# bytes _json_bytes writes for the table as a list of row objects.
_DIM_FORMATS = {
    "csv": (",".join(_DIM_COLUMNS) + "\n", ",".join(["%s"] * 5), ifsmod._fmt, "\n", "\n"),
    "json": ("[\n", "  {\n%s\n  }" % ",\n".join('    "%s": %%s' % c for c in _DIM_COLUMNS),
             lambda v: float.__repr__(v) if math.isfinite(v) else "null", ",\n", "\n]\n"),
}


def _dim_blocks(alphas, fmt):
    """The table in format fmt, CSV_BLOCK_ROWS rows a block, made as it is iterated."""
    head, row, value, sep, tail = _DIM_FORMATS[fmt]
    for start in range(0, len(alphas), CSV_BLOCK_ROWS):
        rows = _dim_rows(alphas[start:start + CSV_BLOCK_ROWS])
        text = sep.join(row % tuple(map(value, r)) for r in rows)
        yield ((sep if start else head) + text).encode("ascii")
    yield tail.encode("ascii")


def cmd_dim(args) -> int:
    _deliver(_dim_blocks(args.alphas, args.format), args.out)
    if args.plot is not None:
        graph = np.array([[a, analysis.hausdorff_dimension(a)] for a in args.alphas])
        atomic_write(args.plot, polyline_svg(graph, stroke_width=0.01))
    return EXIT_OK


def cmd_ifs(args) -> int:
    F = ifsmod.derive_ifs(args.i, args.alpha, parity=args.parity)
    _deliver([(ifsmod.to_json(F) + "\n").encode("ascii")], args.out)
    return EXIT_OK


def cmd_attractor(args) -> int:
    F = ifsmod.derive_ifs(args.i, args.alpha, parity=args.parity)
    pts = ifsmod.attractor(F, depth=args.depth)
    _deliver(_csv_blocks(pts), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check(name: str, passed: bool, detail: str = "") -> dict:
    # a yes/no check's margin is 1 or 0
    return {"name": name, "passed": bool(passed), "margin": float(bool(passed)),
            "detail": detail}


def _tol_check(name: str, err: float, tol: float, detail: str = "") -> dict:
    rec = _check(name, err <= tol,
                 detail or "error %.3g against tolerance %.3g" % (err, tol))
    # normalized margin: 1 is a perfect pass, 0 is right at tolerance
    rec["margin"] = float(1.0 - err / tol)
    return rec


# first five words for i = 2 and i = 3, written out from the recurrence
_SMALL_WORDS = {
    (2, 1): "0", (2, 2): "01", (2, 3): "010", (2, 4): "01001",
    (2, 5): "01001010",
    (3, 1): "0", (3, 2): "001", (3, 3): "0010", (3, 4): "0010001",
    (3, 5): "00100010010",
}


def _checks_words(args):
    bad = [(i, n) for (i, n), s in sorted(_SMALL_WORDS.items())
           if words.word_concat(i, n).text() != s]
    yield _check("words.small_words_exact", not bad,
                 "i in {2,3}, n in 1..5" + (": mismatches %r" % bad if bad else ""))
    ok = all(words.word_concat(i, n) == words.word_by_substitution(i, n)
             for i in (2, 3, 4) for n in range(1, 19))
    yield _check("words.substitution_matches_concat", ok, "i in {2,3,4}, n <= 18")
    # five_partite raises unless every part equals its own freshly built word
    ok = not any(words.contains_11(words.five_partite(i, n).word)
                 for i in (2, 3) for n in range(7, 14))
    yield _check("words.five_partite_reassembly", ok,
                 "i in {2,3}, n in 7..13, includes the no-11 scan")
    ok = all(words.word_concat(i, n).text().endswith(words.last_two(n))
             for i in (2, 3) for n in range(2, 13))
    yield _check("words.last_two_alternation", ok, "suffix 01 for even n, 10 for odd n")


def _checks_curves(args):
    w12 = words.word_concat(args.i, 12)
    p = turtle.draw(w12, args.alpha, parity=args.parity)
    ok = p.points.shape[0] == words.fib_length(args.i, 12) + 1
    yield _check("curves.vertex_count", ok, "n = 12 drawn at the requested alpha")

    st = turtle.curve_stats(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    err = max(abs(st.w - math.sqrt(2.0)), abs(st.h - math.sqrt(0.5)),
              abs(st.aspect - 2.0))
    yield _tol_check("curves.stats_reference_triangle", err, 1e-12)

    # draw sets final_heading to pi/2 + alpha * turn_count, so only the
    # count can disagree with the one taken straight from the word
    ok = p.turn_count == turtle.turn_count(w12, parity=args.parity)
    yield _check("curves.heading_bookkeeping", ok,
                 "final heading is pi/2 + k*alpha with integer k")

    n_hi = _GROUPS["curves"].order(args.i)
    w_lo, w_hi = (turtle.curve_stats(turtle.draw(
        words.word_concat(args.i, n), args.alpha, parity=args.parity)).w
        for n in (n_hi - 3, n_hi))
    r_plus, _ = analysis.characteristic_roots(args.alpha)
    err = abs(w_hi / w_lo - r_plus)
    yield _tol_check("curves.width_ratio_limit", err, 1e-3,
                     "w_%d / w_%d against r_plus" % (n_hi, n_hi - 3))

    n_box = turtle.similar_order(args.i, 2)
    if args.i % 2 == 0:
        _, boxes = turtle.subcurves(args.i, n_box, math.pi / 2, parity=args.parity)
        rep = turtle.boxes_disjoint(boxes)
        yield _check("curves.part_boxes_disjoint", rep.disjoint,
                     "five-partite boxes at pi/2, n = %d" % (n_box,))
    ok = turtle.endpoints_on_box(args.i, n_box, parity=args.parity)
    yield _check("curves.endpoints_on_box", ok,
                 "axis-aligned box at pi/2, n = %d" % (n_box,))


def _checks_ifs(args):
    draw_parity = args.parity
    if args.negative_control:
        draw_parity = turtle.PARITIES[1 - turtle.PARITIES.index(args.parity)]
    try:
        F = ifsmod.derive_ifs(args.i, args.alpha, parity=args.parity,
                              draw_parity=draw_parity)
    except SelfSimilarityError as exc:
        yield _check("ifs.similarity_fit", False, str(exc))
        return
    yield _check("ifs.similarity_fit", True, "five-map fit at the converged level")

    R = analysis.scaling_ratio(args.alpha)
    want = (R, R, R ** 2, R, R)
    err = max(abs(m.scale - s) for m, s in zip(F.maps, want))
    yield _tol_check("ifs.scale_spectrum", err, 1e-6,
                     "scales against (R, R, R^2, R, R)")

    tol = ifsmod.OSC_TOLERANCE
    osc = ifsmod.verify_osc(F)
    err = tol - osc.margin
    yield _tol_check("ifs.open_set_condition", err, tol,
                     "hull image overlap or excess %.3g against %.3g" % (err, tol))

    # the paper's claim: the normalized curves X tend to the maps' attractor
    # A.  By the collage theorem c = d_H(X, F(X)) puts d_H(X, A) in
    # [c / (1 + R), c / (1 - R)], for R the largest map scale
    n, r = _GROUPS["ifs"].order(args.i), max(m.scale for m in F.maps)
    c = _collage(F, args, n)
    bound = c / (1.0 - r)
    yield _tol_check("ifs.curve_approaches_attractor", bound, 0.01 * osc.diam,
                     "c = %.4g at f_%d: d_H(f_%d, A) in [%.4g, %.4g]; tolerance "
                     "0.01 diam(A) = %.4g"
                     % (c, n, n, c / (1.0 + r), bound, 0.01 * osc.diam))

    # dataclass equality compares the maps, alpha, parity and chord direction
    ok = ifsmod.from_json(ifsmod.to_json(F)) == F
    yield _check("ifs.json_round_trip", ok,
                 "17 significant digits survive the round trip")


def _checks_dim(args):
    grid = np.linspace(0.0, math.pi / 2, 200)
    svals = [analysis.hausdorff_dimension(a) for a in grid]
    worst = max(abs(4.0 * R ** s + R ** (2.0 * s) - 1.0)
                for R, s in zip(map(analysis.scaling_ratio, grid), svals))
    yield _tol_check("dim.moran_residual", worst, 1e-12,
                     "4R^s + R^2s = 1 on a 200-point grid")

    ok = analysis.hausdorff_dimension(0.0) == 1.0
    yield _check("dim.endpoint_zero", ok, "s(0) = 1 exactly")
    err = abs(analysis.hausdorff_dimension(math.pi / 2) - 1.6379)
    yield _tol_check("dim.endpoint_right", err, 1e-4, "s(pi/2) = 1.6379")

    ok = all(b >= a for a, b in zip(svals, svals[1:]))
    yield _check("dim.monotone", ok, "s nondecreasing on the grid")

    err = abs(analysis.aspect_limit(math.pi / 2) - math.sqrt(2.0))
    yield _tol_check("dim.aspect_limit_right", err, 1e-12, "w/h limit sqrt(2) at pi/2")

    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        # 50-400 points span several k-d tree leaves, so an approximate
        # search would show here
        a = rng.random((rng.integers(50, 401), 2)) * 3.0
        b = rng.random((rng.integers(50, 401), 2)) * 3.0
        ab = metrics._brute_directed(a, b)
        ba = metrics._brute_directed(b, a)
        worst = max(worst, abs(metrics.hausdorff_distance(a, b) - max(ab, ba)),
                    abs(metrics.directed_hausdorff(a, b) - ab))
    yield _tol_check("dim.hausdorff_grid_vs_brute", worst, 1e-12,
                     "20 random point-set pairs")


def _checks_full(args):
    F = ifsmod.derive_ifs(args.i, args.alpha, parity=args.parity)
    pts = ifsmod.attractor(F, depth=8)
    diam = float(math.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    rep = metrics.box_counting_dimension(pts, eps_max=diam / 8.0,
                                         eps_min=diam / 512.0, levels=7)
    want = analysis.hausdorff_dimension(args.alpha)
    err = abs(rep.boxcount_s - want)
    yield _tol_check("full.box_count_dimension", err, 0.1,
                     "slope %.4f against s = %.4f, r2 = %.5f"
                     % (rep.boxcount_s, want, rep.fit_r2))
    yield _tol_check("full.box_count_fit_quality", 1.0 - rep.fit_r2, 0.02,
                     "log-log fit r2")

    # the rate of the ifs group's limit: f_n(k+1) is two levels of five-part
    # split past f_n(k), so each collage distance is about R^2 times the last
    r2 = max(m.scale for m in F.maps) ** 2
    n = [turtle.similar_order(args.i, k) for k in (1, 2, 3)]
    c = [_collage(F, args, m) for m in n]
    q = [b / a / r2 for a, b in zip(c, c[1:])]
    yield _tol_check("full.curve_convergence", max(abs(x - 1.0) for x in q), 0.5,
                     "c = %.4g/%.4g/%.4g at f_%d/%d/%d; c_(k+1) / c_k = %.4f/%.4f "
                     "R^2; tolerance 0.5 on |ratio / R^2 - 1|" % (*c, *n, *q))


def _collage(F, args, n: int) -> float:
    """Collage distance d_H(X, F(X)) of the normalized curve X = f_n."""
    curve = metrics._normalized_curve(args.i, n, args.alpha, parity=args.parity)
    return metrics.collage_distance(F, curve)


_Group = namedtuple("_Group", ["checks", "order"])
# the check groups, in the order --level counts them, each with the order of
# the longest word it draws at family i; words and dim draw only fixed
# orders, whatever --i is
_GROUPS = {
    "words": _Group(_checks_words, None),
    # for odd i the chord ratio still oscillates at n = 22 (2.6e-3 off at
    # i = 3, pi/2); two more orders bring it within 2e-6
    "curves": _Group(_checks_curves, lambda i: 22 if i % 2 == 0 else 24),
    "ifs": _Group(_checks_ifs, lambda i: turtle.similar_order(i, 3)),
    "dim": _Group(_checks_dim, None),
    # the collage rate reads the curves f_n(1) .. f_n(3), as far as ifs does
    "full": _Group(_checks_full, lambda i: turtle.similar_order(i, 3)),
}


def _verify_groups(args) -> list:
    """Names of the check groups a verify run selects, in run order."""
    last = list(_GROUPS).index(args.level)
    # the negative control is an ifs check, so it runs at every level
    return [name for k, name in enumerate(_GROUPS)
            if k <= last or (name == "ifs" and args.negative_control)]


def _run_group(name, args):
    """A group's check records, then a failed one if the library refutes a claim."""
    try:
        yield from _GROUPS[name].checks(args)
    except (StructureError, DegenerateLandmarksError, SelfSimilarityError) as exc:
        yield _check("%s.%s" % (name, type(exc).__name__), False, str(exc))


def cmd_verify(args) -> int:
    checks = []
    t0 = time.perf_counter()
    for name in _verify_groups(args):
        for c in _run_group(name, args):
            t1 = time.perf_counter()  # the wall time goes to stderr only
            print("[%s] %-34s margin %+.3e  %7.3f s  %s"
                  % ("ok " if c["passed"] else "FAIL", c["name"], c["margin"],
                     t1 - t0, c["detail"]), file=sys.stderr)
            checks.append(c)
            t0 = t1

    passed = all(c["passed"] for c in checks)
    report = {
        "i": args.i, "alpha": args.alpha, "level": args.level,
        "negative_control": args.negative_control, "passed": passed,
        "checks": checks,
    }
    _deliver([_json_bytes(report)], args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    """Per-alpha outputs over a grid, each file written as soon as it is made."""
    os.makedirs(args.out, exist_ok=True)
    if "dim" in args.what:
        atomic_write(os.path.join(args.out, "dim.csv"), _dim_blocks(args.alphas, "csv"))
    if "ifs" not in args.what and "attractor" not in args.what:
        return EXIT_OK
    for idx, a in enumerate(args.alphas):
        F = ifsmod.derive_ifs(args.i, a, parity=args.parity)
        if "ifs" in args.what:
            atomic_write(os.path.join(args.out, "ifs_%02d.json" % idx),
                         [ifsmod.to_json(F).encode("ascii")])
        if "attractor" in args.what:
            atomic_write(os.path.join(args.out, "attractor_%02d.csv" % idx),
                         _csv_blocks(ifsmod.attractor(F, depth=args.depth)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fibfrac",
        description="i-Fibonacci word curves, their scaling laws, and the "
                    "limiting fractal.",
        epilog="Angles accept radians or pi/k literals. "
               "Exit codes: 0 ok, 1 failed check, 2 usage or write error.",
    )
    sp = ap.add_subparsers(dest="subcommand", required=True)

    def flag(name, **kw):
        # a one-flag parent parser: each shared flag is declared here only
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(name, **kw)
        return parent

    family = flag("--i", type=int, default=2, help="family index, i >= 2")
    order = flag("--n", type=int, default=17, help="word order, n >= 1")
    angle = flag("--alpha", type=parse_angle, default=math.pi / 2,
                 help="drawing angle in [0, pi/2]")
    unit = flag("--unit", type=float, default=1.0, help="segment length")
    parity = flag("--parity", choices=turtle.PARITIES, default="even-left",
                  help="which 0-positions turn left")
    out = flag("--out", help="output file (stdout when omitted)")
    grid = [flag("--grid", type=int, default=9,
                 help="points on a uniform [0, pi/2] grid"),
            flag("--alphas", help="comma-separated explicit angles")]

    def add(name, help_text, handler, parents, formats=()):
        p = sp.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(handler=handler)
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0],
                           help="output format")
        return p

    p = add("word", "print or save an i-Fibonacci word", cmd_word, [out],
            ("txt", "bin"))
    p.add_argument("--i", type=int, required=True, help="family index, i >= 2")
    p.add_argument("--n", type=int, required=True, help="word order, n >= 1")

    p = add("curve", "render the drawn curve", cmd_curve,
            [family, order, angle, unit, parity, out])
    p.add_argument("--format", choices=("svg", "csv"), help="output format (default svg)")
    p.add_argument("--svg", help="shorthand for --format svg --out PATH")
    p.add_argument("--csv", help="shorthand for --format csv --out PATH")
    p.add_argument("--bbox", action="store_true",
                   help="overlay the smallest enclosing rectangle")
    p.add_argument("--stroke-width", type=float,
                   help="SVG stroke width (default 0.5%% of the viewBox width)")

    add("stats", "chord width, height, aspect, net heading", cmd_stats,
        [family, order, angle, unit, parity, out], ("txt", "json"))

    p = add("dim", "alpha -> (R, r_plus, aspect limit, dimension) table", cmd_dim,
            grid + [out], ("csv", "json"))
    p.add_argument("--plot", help="also write an SVG graph of s(alpha)")

    add("ifs", "derive the five-map IFS, emit JSON", cmd_ifs,
        [family, angle, parity, out])

    p = add("attractor", "sample the attractor, emit CSV points", cmd_attractor,
            [family, angle, parity, out])
    p.add_argument("--depth", type=int, default=7,
                   help="iteration depth, 2 * 5^depth points (default %(default)s)")

    p = add("verify", "run module cross-checks, report margins", cmd_verify,
            [family, angle, parity, out])
    p.add_argument("--level", choices=list(_GROUPS),
                   default="full", help="cumulative check groups")
    p.add_argument("--negative-control", action="store_true",
                   help="derive with the turn parity deliberately swapped; the "
                        "similarity fit is expected to fail")

    p = add("sweep", "batch outputs over an alpha grid", cmd_sweep,
            [family] + grid + [parity])
    p.add_argument("--what", help="comma subset of dim,ifs,attractor "
                                  "(default dim,ifs)")
    p.add_argument("--depth", type=int, default=6,
                   help="attractor depth (default %(default)s)")
    p.add_argument("--out", required=True, help="output directory")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return args.handler(args)
    except SelfSimilarityError as exc:
        print("fibfrac: verification failed: %s" % (exc,), file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (FibfracError, OSError) as exc:  # OSError: a failed write
        print("fibfrac: error: %s" % (exc,), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
