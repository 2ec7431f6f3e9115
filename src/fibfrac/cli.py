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
("pi/2", "2pi/12", "0.7853981633974483").  File output is atomic (temp
file in the destination directory, then rename), so a failing run never
leaves a partial file.  Identical configurations produce byte-identical
output, including SVG, independent of the worker count.  The environment
variable FIBFRAC_THREADS caps the number of sweep workers.

Exit codes: 0 success, 1 failed verification check, 2 usage error.
"""

import argparse
import io
import json
import math
import os
import re
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analysis, ifs as ifsmod, metrics, turtle, words
from .errors import DomainError, FibfracError, SelfSimilarityError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# fixed palette so rendered files are stable golden-file targets
CURVE_COLOR = "#1a5fb4"
BBOX_COLOR = "#e01b24"

MAX_SEGMENTS = 20_000_000  # drawing cap; keeps vertex buffers in memory
MAX_WORD_CHARS = 200_000_000

_PI_LITERAL = re.compile(r"(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?\Z")


def parse_angle(text: str) -> float:
    """Radians from a decimal string or a pi fraction like 'pi/6' or '2pi/12'."""
    s = text.strip().lower().replace(" ", "")
    m = _PI_LITERAL.match(s)
    if m is not None:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ValueError("zero denominator in angle %r" % (text,))
        return num * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise ValueError(
            "cannot parse angle %r; use radians or a pi/k literal" % (text,)
        ) from None


def parse_angle_list(text: str) -> tuple:
    vals = tuple(parse_angle(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise ValueError("empty angle list %r" % (text,))
    return vals


def worker_count() -> int:
    """Worker cap from FIBFRAC_THREADS, else the CPU count."""
    raw = os.environ.get("FIBFRAC_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError("FIBFRAC_THREADS=%r is not an integer" % (raw,)) from None
    if n < 1:
        raise ValueError("FIBFRAC_THREADS must be >= 1, got %d" % (n,))
    return n


def atomic_write(path: str, data: bytes) -> None:
    """Write data to path via a same-directory temp file and atomic rename."""
    dest = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(dest), prefix=".fibfrac-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _deliver(data: bytes, out) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        atomic_write(out, data)


def _fmt17(v: float) -> str:
    return format(float(v), ".17g")


def points_csv(pts: np.ndarray) -> bytes:
    """One "x,y" line per point, 17 significant digits."""
    buf = io.BytesIO()
    np.savetxt(buf, np.asarray(pts, dtype=np.float64), fmt="%.17g", delimiter=",")
    return buf.getvalue()


def polyline_svg(pts: np.ndarray, stroke_width=None, bbox: bool = False) -> bytes:
    """SVG 1.1 document with the polyline as a single path element.

    The viewBox is fitted to the data with a 2 percent margin; the y axis is
    flipped so the drawing appears in the usual orientation.  Stroke width
    defaults to 0.5 percent of the viewBox width.  Number formatting is fixed
    so equal inputs give byte-identical files.
    """
    pts = np.asarray(pts, dtype=np.float64)
    xs = pts[:, 0]
    ys = -pts[:, 1]
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    span = max(x1 - x0, y1 - y0)
    if span == 0.0:
        span = 1.0
    m = 0.02 * span
    vx, vy = x0 - m, y0 - m
    vw, vh = (x1 - x0) + 2.0 * m, (y1 - y0) + 2.0 * m
    sw = 0.005 * vw if stroke_width is None else float(stroke_width)

    def g(v: float) -> str:
        return format(v, ".9g")

    d = "M" + "L".join("%s %s" % (g(x), g(y)) for x, y in zip(xs, ys))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="%s %s %s %s">\n' % (g(vx), g(vy), g(vw), g(vh)),
    ]
    if bbox:
        parts.append(
            '<rect x="%s" y="%s" width="%s" height="%s" fill="none" '
            'stroke="%s" stroke-width="%s"/>\n'
            % (g(x0), g(y0), g(x1 - x0), g(y1 - y0), BBOX_COLOR, g(0.5 * sw))
        )
    parts.append(
        '<path d="%s" fill="none" stroke="%s" stroke-width="%s" '
        'stroke-linejoin="round" stroke-linecap="round"/>\n' % (d, CURVE_COLOR, g(sw))
    )
    parts.append("</svg>\n")
    return "".join(parts).encode("ascii")


@dataclass(frozen=True)
class RunConfig:
    """One parsed and validated invocation; commands never re-check inputs."""

    subcommand: str
    i: int = 2
    n: int = 17
    alpha: float = math.pi / 2
    out: str = None
    fmt: str = "txt"
    depth: int = None
    budget: int = None
    parity: str = "even-left"
    n_ref: int = None
    bbox: bool = False
    stroke_width: float = None
    unit: float = 1.0
    alphas: tuple = ()
    plot: str = None
    level: str = "full"
    negative_control: bool = False
    what: tuple = ("dim", "ifs")
    workers: int = 1


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _check_out_dir(path) -> None:
    if path is None:
        return
    d = os.path.dirname(os.path.abspath(path))
    _require(os.path.isdir(d), "output directory does not exist: %r" % (d,))


def _config_from_args(args) -> RunConfig:
    """Build the RunConfig, validating every flag before any work starts."""
    get = lambda name, default: getattr(args, name, default)
    sub = args.subcommand
    fmt = get("format", None)
    out = get("out", None)
    if sub == "curve":
        # --svg / --csv are shorthands for --format plus --out
        svg_path, csv_path = get("svg", None), get("csv", None)
        _require(svg_path is None or csv_path is None, "give at most one of --svg/--csv")
        if svg_path is not None:
            fmt, out = "svg", svg_path
        elif csv_path is not None:
            fmt, out = "csv", csv_path
        fmt = fmt or "svg"
    defaults = {"word": "txt", "stats": "txt", "dim": "csv", "ifs": "json",
                "attractor": "csv", "verify": "json", "sweep": "csv"}
    fmt = fmt or defaults.get(sub, "txt")

    i = int(get("i", 2))
    n = int(get("n", 17))
    _require(i >= 2, "need i >= 2, got %d" % (i,))
    _require(n >= 1, "need n >= 1, got %d" % (n,))
    alpha = float(get("alpha", math.pi / 2))
    _require(0.0 <= alpha <= math.pi / 2 + 1e-12,
             "alpha must lie in [0, pi/2], got %s" % (alpha,))
    alpha = min(alpha, math.pi / 2)

    if sub in ("word", "curve", "stats"):
        try:
            length = words.fib_length(i, n)
        except OverflowError:
            raise ValueError("f_%d^[%d] is too long to materialize" % (n, i)) from None
        cap = MAX_WORD_CHARS if sub == "word" else MAX_SEGMENTS
        _require(length <= cap, "f_%d^[%d] has %d symbols, over the %d cap"
                 % (n, i, length, cap))

    depth = get("depth", None)
    budget = get("budget", None)
    if sub == "attractor":
        _require(depth is None or budget is None, "give --depth or --budget, not both")
        if depth is None and budget is None:
            depth = 7
    if depth is not None:
        depth = int(depth)
        _require(0 <= depth <= 12, "depth must be in 0..12, got %d" % (depth,))
    if budget is not None:
        budget = int(budget)
        _require(budget >= 2, "budget must be >= 2, got %d" % (budget,))

    parity = get("parity", "even-left")

    n_ref = get("n_ref", None)
    if n_ref is not None:
        n_ref = int(n_ref)
        _require(n_ref >= 7, "n_ref must be >= 7, got %d" % (n_ref,))

    unit = float(get("unit", 1.0))
    _require(0.0 < unit < math.inf, "unit must be positive and finite, got %s" % (unit,))
    stroke = get("stroke_width", None)
    if stroke is not None:
        stroke = float(stroke)
        _require(0.0 < stroke < math.inf, "stroke width must be positive and finite")

    if get("alphas", None):
        alphas = parse_angle_list(args.alphas)
    elif sub in ("dim", "sweep"):
        grid = int(get("grid", 9))
        _require(grid >= 2, "grid needs at least 2 points, got %d" % (grid,))
        alphas = tuple(float(a) for a in np.linspace(0.0, math.pi / 2, grid))
    else:
        alphas = ()
    for a in alphas:
        _require(0.0 <= a <= math.pi / 2 + 1e-12,
                 "grid alpha %s outside [0, pi/2]" % (a,))
    alphas = tuple(min(a, math.pi / 2) for a in alphas)

    level = get("level", "full")

    what_raw = get("what", None)
    if what_raw:
        what = tuple(tok.strip() for tok in what_raw.split(",") if tok.strip())
        for tok in what:
            _require(tok in ("dim", "ifs", "attractor"), "bad sweep output %r" % (tok,))
    else:
        what = ("dim", "ifs")

    if sub == "sweep":
        _require(out is not None, "sweep needs --out DIR")
        os.makedirs(out, exist_ok=True)
    else:
        _check_out_dir(out)
    _check_out_dir(get("plot", None))

    return RunConfig(
        subcommand=sub, i=i, n=n, alpha=alpha, out=out, fmt=fmt, depth=depth,
        budget=budget, parity=parity, n_ref=n_ref, bbox=bool(get("bbox", False)),
        stroke_width=stroke, unit=unit, alphas=alphas, plot=get("plot", None),
        level=level, negative_control=bool(get("negative_control", False)),
        what=what, workers=worker_count(),
    )


def cmd_word(cfg: RunConfig) -> int:
    w = words.word_concat(cfg.i, cfg.n)
    data = words.to_text(w) if cfg.fmt == "txt" else words.to_binary(w)
    _deliver(data, cfg.out)
    return EXIT_OK


def cmd_curve(cfg: RunConfig) -> int:
    w = words.word_concat(cfg.i, cfg.n)
    p = turtle.draw(w, cfg.alpha, unit=cfg.unit, parity=cfg.parity)
    if cfg.fmt == "svg":
        data = polyline_svg(p.points, stroke_width=cfg.stroke_width, bbox=cfg.bbox)
    else:
        data = points_csv(p.points)
    _deliver(data, cfg.out)
    return EXIT_OK


def cmd_stats(cfg: RunConfig) -> int:
    w = words.word_concat(cfg.i, cfg.n)
    p = turtle.draw(w, cfg.alpha, unit=cfg.unit, parity=cfg.parity)
    st = turtle.curve_stats(p)
    rows = [
        ("i", cfg.i), ("n", cfg.n), ("alpha", cfg.alpha),
        ("segments", p.points.shape[0] - 1), ("vertices", p.points.shape[0]),
        ("width", st.w), ("height", st.h), ("aspect", st.aspect),
        ("net_angle", st.net_angle), ("turn_count", p.turn_count),
    ]
    if cfg.fmt == "json":
        obj = {k: (v if isinstance(v, int) else float(v)) for k, v in rows}
        data = (json.dumps(obj, indent=2) + "\n").encode("ascii")
    else:
        lines = ["%s %s" % (k, v if isinstance(v, int) else _fmt17(v))
                 for k, v in rows]
        data = ("\n".join(lines) + "\n").encode("ascii")
    _deliver(data, cfg.out)
    return EXIT_OK


def _dim_rows(alphas) -> list:
    rows = []
    for a in alphas:
        prof = analysis.scaling_profile(a)
        rows.append((a, prof.R, prof.r_plus, prof.aspect_limit,
                     analysis.hausdorff_dimension(a)))
    return rows


def _dim_csv(rows) -> bytes:
    lines = ["alpha,R,r_plus,aspect_limit,dimension"]
    lines += [",".join(_fmt17(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def cmd_dim(cfg: RunConfig) -> int:
    rows = _dim_rows(cfg.alphas)
    if cfg.fmt == "json":
        fin = lambda v: float(v) if math.isfinite(v) else None
        obj = [
            {"alpha": fin(a), "R": fin(R), "r_plus": fin(rp),
             "aspect_limit": fin(al), "dimension": fin(s)}
            for a, R, rp, al, s in rows
        ]
        data = (json.dumps(obj, indent=2) + "\n").encode("ascii")
    else:
        data = _dim_csv(rows)
    _deliver(data, cfg.out)
    if cfg.plot is not None:
        graph = np.array([[a, s] for a, _, _, _, s in rows])
        atomic_write(cfg.plot, polyline_svg(graph, stroke_width=0.01))
    return EXIT_OK


def cmd_ifs(cfg: RunConfig) -> int:
    F = ifsmod.derive_ifs(cfg.i, cfg.alpha, n_ref=cfg.n_ref, parity=cfg.parity)
    _deliver((ifsmod.to_json(F) + "\n").encode("ascii"), cfg.out)
    return EXIT_OK


def cmd_attractor(cfg: RunConfig) -> int:
    F = ifsmod.derive_ifs(cfg.i, cfg.alpha, n_ref=cfg.n_ref, parity=cfg.parity)
    pts = ifsmod.attractor(F, depth=cfg.depth, budget=cfg.budget)
    _deliver(points_csv(pts), cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check(name: str, passed: bool, margin: float, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "margin": float(margin),
            "detail": detail}


def _tol_check(name: str, err: float, tol: float, detail: str = "") -> dict:
    # normalized margin: 1 is a perfect pass, 0 is right at tolerance
    return _check(name, err <= tol, 1.0 - err / tol,
                  detail or "error %.3g against tolerance %.3g" % (err, tol))


# first five words for i = 2 and i = 3, written out from the recurrence
_SMALL_WORDS = {
    (2, 1): "0", (2, 2): "01", (2, 3): "010", (2, 4): "01001",
    (2, 5): "01001010",
    (3, 1): "0", (3, 2): "001", (3, 3): "0010", (3, 4): "0010001",
    (3, 5): "00100010010",
}


def _word_text(i: int, n: int) -> str:
    return words.to_text(words.word_concat(i, n)).decode("ascii").rstrip("\n")


def _checks_words() -> list:
    out = []
    bad = [(i, n) for (i, n), s in sorted(_SMALL_WORDS.items())
           if _word_text(i, n) != s]
    out.append(_check("words.small_words_exact", not bad, 0.0 if bad else 1.0,
                      "i in {2,3}, n in 1..5" + (": mismatches %r" % bad if bad else "")))
    ok = True
    for i in (2, 3, 4):
        for n in range(1, 19):
            a = words.word_concat(i, n)
            b = words.word_by_substitution(i, n)
            ok = ok and np.array_equal(a.bits(), b.bits())
    out.append(_check("words.substitution_matches_concat", ok, float(ok),
                      "i in {2,3,4}, n <= 18"))
    ok = True
    for i in (2, 3):
        for n in range(7, 14):
            fp = words.five_partite(i, n)
            bits = fp.word.bits()
            ok = ok and fp.parts[0][0] == 0 and fp.parts[-1][1] == bits.size
            joined = np.concatenate([bits[a:b] for a, b in fp.parts])
            ok = ok and np.array_equal(joined, bits)
            ok = ok and not words.contains_11(fp.word)
    out.append(_check("words.five_partite_reassembly", ok, float(ok),
                      "i in {2,3}, n in 7..13, includes the no-11 scan"))
    ok = all(_word_text(i, n).endswith(words.last_two(n))
             for i in (2, 3) for n in range(2, 13))
    out.append(_check("words.last_two_alternation", ok, float(ok),
                      "suffix 01 for even n, 10 for odd n"))
    return out


def _checks_curves(cfg: RunConfig) -> list:
    out = []
    w12 = words.word_concat(cfg.i, 12)
    p = turtle.draw(w12, cfg.alpha, parity=cfg.parity)
    ok = p.points.shape[0] == words.fib_length(cfg.i, 12) + 1
    out.append(_check("curves.vertex_count", ok, float(ok),
                      "n = 12 drawn at the requested alpha"))

    st = turtle.curve_stats(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    err = max(abs(st.w - math.sqrt(2.0)), abs(st.h - math.sqrt(0.5)),
              abs(st.aspect - 2.0))
    out.append(_tol_check("curves.stats_reference_triangle", err, 1e-12))

    ok = p.turn_count == turtle.turn_count(w12, parity=cfg.parity)
    ok = ok and abs(p.final_heading
                    - (math.pi / 2 + cfg.alpha * p.turn_count)) == 0.0
    out.append(_check("curves.heading_bookkeeping", ok, float(ok),
                      "final heading is pi/2 + k*alpha with integer k"))

    n_hi = 22
    ws = {}
    for n in (n_hi - 3, n_hi):
        st_n = turtle.curve_stats(
            turtle.draw(words.word_concat(cfg.i, n), cfg.alpha, parity=cfg.parity))
        ws[n] = st_n.w
    r_plus = analysis.scaling_profile(cfg.alpha).r_plus
    err = abs(ws[n_hi] / ws[n_hi - 3] - r_plus)
    out.append(_tol_check("curves.width_ratio_limit", err, 1e-3,
                          "w_%d / w_%d against r_plus" % (n_hi, n_hi - 3)))

    if cfg.i % 2 == 0:
        _, boxes = turtle.subcurves(cfg.i, 17, math.pi / 2, parity=cfg.parity)
        rep = turtle.boxes_disjoint(boxes)
        out.append(_check("curves.part_boxes_disjoint", rep.disjoint,
                          float(rep.disjoint), "five-partite boxes at pi/2, n = 17"))
        n_box = 17
    else:
        n_box = 15
    ok = turtle.endpoints_on_box(cfg.i, n_box, math.pi / 2, parity=cfg.parity)
    out.append(_check("curves.endpoints_on_box", ok, float(ok),
                      "axis-aligned box at pi/2, n = %d" % (n_box,)))
    return out


def _checks_ifs(cfg: RunConfig) -> list:
    out = []
    draw_parity = cfg.parity
    if cfg.negative_control:
        draw_parity = "odd-left" if cfg.parity == "even-left" else "even-left"
    try:
        F = ifsmod.derive_ifs(cfg.i, cfg.alpha, n_ref=cfg.n_ref,
                              parity=cfg.parity, draw_parity=draw_parity)
    except SelfSimilarityError as exc:
        out.append(_check("ifs.similarity_fit", False, 0.0, str(exc)))
        return out
    out.append(_check("ifs.similarity_fit", True, 1.0,
                      "five-map fit at the converged level"))

    prof = analysis.scaling_profile(cfg.alpha)
    want = (prof.R, prof.R, prof.R ** 2, prof.R, prof.R)
    err = max(abs(m.scale - s) for m, s in zip(F.maps, want))
    out.append(_tol_check("ifs.scale_spectrum", err, 1e-6,
                          "scales against (R, R, R^2, R, R)"))

    tol = 1e-9
    err = tol - ifsmod.verify_osc(F, tolerance=tol).margin
    out.append(_tol_check("ifs.open_set_condition", err, tol,
                          "hull image overlap or excess %.3g against %.3g"
                          % (err, tol)))

    pts = ifsmod.attractor(F, depth=7)
    diam = float(math.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    res = ifsmod.invariance_residual(F, pts)
    out.append(_tol_check("ifs.invariance_residual", res, 0.02 * diam,
                          "depth-7 sample against its own map images"))

    G = ifsmod.from_json(ifsmod.to_json(F))
    ok = (G.alpha == F.alpha and G.parity == F.parity
          and G.frame.chord_direction == F.frame.chord_direction)
    for a, b in zip(F.maps, G.maps):
        ok = ok and (a.scale, a.rotation, a.reflect) == (b.scale, b.rotation, b.reflect)
        ok = ok and a.translation == b.translation
    out.append(_check("ifs.json_round_trip", ok, float(ok),
                      "17 significant digits survive the round trip"))
    return out


def _checks_dim(cfg: RunConfig, rng: np.random.Generator) -> list:
    out = []
    grid = np.linspace(0.0, math.pi / 2, 200)
    worst = 0.0
    for a in grid:
        R = analysis.scaling_ratio(a)
        s = analysis.hausdorff_dimension(a)
        worst = max(worst, abs(4.0 * R ** s + R ** (2.0 * s) - 1.0))
    out.append(_tol_check("dim.moran_residual", worst, 1e-12,
                          "4R^s + R^2s = 1 on a 200-point grid"))

    ok = analysis.hausdorff_dimension(0.0) == 1.0
    out.append(_check("dim.endpoint_zero", ok, float(ok), "s(0) = 1 exactly"))
    err = abs(analysis.hausdorff_dimension(math.pi / 2) - 1.6379)
    out.append(_tol_check("dim.endpoint_right", err, 1e-4, "s(pi/2) = 1.6379"))

    svals = [analysis.hausdorff_dimension(a) for a in grid]
    ok = all(b >= a for a, b in zip(svals, svals[1:]))
    out.append(_check("dim.monotone", ok, float(ok), "s nondecreasing on the grid"))

    err = abs(analysis.aspect_limit(math.pi / 2) - math.sqrt(2.0))
    out.append(_tol_check("dim.aspect_limit_right", err, 1e-12,
                          "w/h limit sqrt(2) at pi/2"))

    worst = 0.0
    for _ in range(20):
        # 50-400 points span several k-d tree leaves, so an approximate
        # search would show here
        a = rng.random((rng.integers(50, 401), 2)) * 3.0
        b = rng.random((rng.integers(50, 401), 2)) * 3.0
        worst = max(worst, abs(metrics.hausdorff_distance(a, b)
                               - max(metrics._brute_directed(a, b),
                                     metrics._brute_directed(b, a))))
    out.append(_tol_check("dim.hausdorff_grid_vs_brute", worst, 1e-12,
                          "20 random point-set pairs"))
    return out


def _checks_full(cfg: RunConfig) -> list:
    out = []
    try:
        F = ifsmod.derive_ifs(cfg.i, cfg.alpha, n_ref=cfg.n_ref, parity=cfg.parity)
    except SelfSimilarityError as exc:
        out.append(_check("full.box_count_dimension", False, 0.0, str(exc)))
        return out
    pts = ifsmod.attractor(F, depth=8)
    diam = float(math.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    rep = metrics.box_counting_dimension(pts, eps_max=diam / 8.0,
                                         eps_min=diam / 512.0, levels=7)
    want = analysis.hausdorff_dimension(cfg.alpha)
    err = abs(rep.boxcount_s - want)
    out.append(_tol_check("full.box_count_dimension", err, 0.1,
                          "slope %.4f against s = %.4f, r2 = %.5f"
                          % (rep.boxcount_s, want, rep.fit_r2)))
    out.append(_check("full.box_count_fit_quality", rep.fit_r2 > 0.98,
                      rep.fit_r2 - 0.98, "log-log fit r2"))

    conv = metrics.convergence_report(cfg.i, cfg.alpha, (1, 2, 3))
    ok = all(b < a for a, b in zip(conv.distances, conv.distances[1:]))
    out.append(_check("full.curve_convergence", ok, float(ok),
                      "successive normalized curves draw closer"))
    return out


def cmd_verify(cfg: RunConfig) -> int:
    rng = np.random.default_rng(20240817)
    order = ("words", "curves", "ifs", "dim", "full")
    selected = order[: order.index(cfg.level) + 1]
    checks = []
    if "words" in selected:
        checks += _checks_words()
    if "curves" in selected:
        checks += _checks_curves(cfg)
    if "ifs" in selected or cfg.negative_control:
        checks += _checks_ifs(cfg)
    if "dim" in selected:
        checks += _checks_dim(cfg, rng)
    if "full" in selected:
        checks += _checks_full(cfg)

    passed = all(c["passed"] for c in checks)
    for c in checks:
        print("[%s] %-34s margin %+.3e  %s"
              % ("ok " if c["passed"] else "FAIL", c["name"], c["margin"],
                 c["detail"]), file=sys.stderr)
    report = {
        "i": cfg.i, "alpha": cfg.alpha, "level": cfg.level,
        "negative_control": cfg.negative_control, "passed": passed,
        "checks": checks,
    }
    _deliver((json.dumps(report, indent=2) + "\n").encode("ascii"), cfg.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_sweep(cfg: RunConfig) -> int:
    """Per-alpha outputs over a grid; workers only compute, writes are ordered."""

    def task(a: float):
        res = {}
        if "ifs" in cfg.what or "attractor" in cfg.what:
            F = ifsmod.derive_ifs(cfg.i, a, n_ref=cfg.n_ref, parity=cfg.parity)
            if "ifs" in cfg.what:
                res["ifs"] = ifsmod.to_json(F).encode("ascii")
            if "attractor" in cfg.what:
                depth = cfg.depth if cfg.depth is not None else 6
                res["attractor"] = points_csv(ifsmod.attractor(F, depth=depth))
        return res

    with ThreadPoolExecutor(max_workers=min(cfg.workers, len(cfg.alphas))) as ex:
        results = list(ex.map(task, cfg.alphas))

    if "dim" in cfg.what:
        atomic_write(os.path.join(cfg.out, "dim.csv"),
                     _dim_csv(_dim_rows(cfg.alphas)))
    for idx, res in enumerate(results):
        if "ifs" in res:
            atomic_write(os.path.join(cfg.out, "ifs_%02d.json" % idx), res["ifs"])
        if "attractor" in res:
            atomic_write(os.path.join(cfg.out, "attractor_%02d.csv" % idx),
                         res["attractor"])
    return EXIT_OK


_HANDLERS = {
    "word": cmd_word, "curve": cmd_curve, "stats": cmd_stats, "dim": cmd_dim,
    "ifs": cmd_ifs, "attractor": cmd_attractor, "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fibfrac",
        description="i-Fibonacci word curves, their scaling laws, and the "
                    "limiting fractal.",
        epilog="Angles accept radians or pi/k literals. FIBFRAC_THREADS caps "
               "sweep workers. Exit codes: 0 ok, 1 failed check, 2 usage.",
    )
    sp = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text):
        p = sp.add_parser(name, help=help_text)
        return p

    p = add("word", "print or save an i-Fibonacci word")
    p.add_argument("--i", type=int, required=True, help="family index, i >= 2")
    p.add_argument("--n", type=int, required=True, help="word order, n >= 1")
    p.add_argument("--format", choices=["txt", "bin"], help="text or packed bits")
    p.add_argument("--out", help="output file (stdout when omitted)")

    p = add("curve", "render the drawn curve")
    p.add_argument("--i", type=int, default=2)
    p.add_argument("--n", type=int, default=17)
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 2,
                   help="drawing angle in [0, pi/2]")
    p.add_argument("--format", choices=["svg", "csv"])
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.add_argument("--svg", help="shorthand for --format svg --out PATH")
    p.add_argument("--csv", help="shorthand for --format csv --out PATH")
    p.add_argument("--bbox", action="store_true",
                   help="overlay the smallest enclosing rectangle")
    p.add_argument("--stroke-width", type=float, dest="stroke_width",
                   help="SVG stroke width (default 0.5%% of the viewBox width)")
    p.add_argument("--unit", type=float, default=1.0, help="segment length")
    p.add_argument("--parity", choices=["even-left", "odd-left"],
                   default="even-left", help="which 0-positions turn left")

    p = add("stats", "chord width, height, aspect, net heading")
    p.add_argument("--i", type=int, default=2)
    p.add_argument("--n", type=int, default=17)
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 2)
    p.add_argument("--format", choices=["txt", "json"])
    p.add_argument("--out")
    p.add_argument("--unit", type=float, default=1.0)
    p.add_argument("--parity", choices=["even-left", "odd-left"], default="even-left")

    p = add("dim", "alpha -> (R, r_plus, aspect limit, dimension) table")
    p.add_argument("--grid", type=int, default=9,
                   help="points on a uniform [0, pi/2] grid")
    p.add_argument("--alphas", help="comma-separated explicit angles")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--out")
    p.add_argument("--plot", help="also write an SVG graph of s(alpha)")

    p = add("ifs", "derive the five-map IFS, emit JSON")
    p.add_argument("--i", type=int, default=2)
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 2)
    p.add_argument("--n-ref", type=int, dest="n_ref",
                   help="reference order for the junction validation")
    p.add_argument("--parity", choices=["even-left", "odd-left"], default="even-left")
    p.add_argument("--out")

    p = add("attractor", "sample the attractor, emit CSV points")
    p.add_argument("--i", type=int, default=2)
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 2)
    p.add_argument("--depth", type=int, help="iteration depth (2 * 5^depth points)")
    p.add_argument("--budget", type=int, help="stop before exceeding this count")
    p.add_argument("--n-ref", type=int, dest="n_ref")
    p.add_argument("--parity", choices=["even-left", "odd-left"], default="even-left")
    p.add_argument("--out")

    p = add("verify", "run module cross-checks, report margins")
    p.add_argument("--i", type=int, default=2)
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 2)
    p.add_argument("--level", choices=["words", "curves", "ifs", "dim", "full"],
                   default="full", help="cumulative check groups")
    p.add_argument("--negative-control", action="store_true",
                   dest="negative_control",
                   help="derive with the turn parity deliberately swapped; the "
                        "similarity fit is expected to fail")
    p.add_argument("--n-ref", type=int, dest="n_ref")
    p.add_argument("--parity", choices=["even-left", "odd-left"], default="even-left")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = add("sweep", "batch outputs over an alpha grid")
    p.add_argument("--i", type=int, default=2)
    p.add_argument("--grid", type=int, default=9)
    p.add_argument("--alphas", help="comma-separated explicit angles")
    p.add_argument("--what", help="comma subset of dim,ifs,attractor "
                                  "(default dim,ifs)")
    p.add_argument("--depth", type=int, help="attractor depth (default 6)")
    p.add_argument("--n-ref", type=int, dest="n_ref")
    p.add_argument("--parity", choices=["even-left", "odd-left"], default="even-left")
    p.add_argument("--out", required=True, help="output directory")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:  # DomainError subclasses ValueError
        print("fibfrac: error: %s" % (exc,), file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[cfg.subcommand](cfg)
    except SelfSimilarityError as exc:
        print("fibfrac: verification failed: %s" % (exc,), file=sys.stderr)
        return EXIT_CHECK_FAILED
    except FibfracError as exc:
        print("fibfrac: error: %s" % (exc,), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
