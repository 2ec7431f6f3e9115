"""The per-layer metrics of the traced run.

Every public function of the six layer modules gets a span.  The functions
in NAMED also get their own metrics; the time of an unnamed helper is
credited to the named function of the same layer that called it (see
tracer.summarize).  README.md lists which end-to-end metric each of these
should move, and on which workload.
"""

LAYERS = ("words", "turtle", "analysis", "ifs", "metrics", "cli")

NAMED = (
    "words.word_concat",
    "turtle.draw",
    "turtle.curve_stats",
    "ifs.derive_ifs",
    "ifs.attractor",
    "ifs.verify_osc",
    "ifs.invariance_residual",
    "metrics.hausdorff_distance",
    "metrics.box_counting_dimension",
    "metrics.convergence_report",
    "cli.main",
    "cli.points_csv",
    "cli.polyline_svg",
    "cli.atomic_write",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> f(args, kwargs, result) -> counts added to the span
COUNTERS = {
    "words.word_concat": lambda a, k, out: {"symbols": len(out)},
    "turtle.draw": lambda a, k, out: {"segments": out.points.shape[0] - 1},
    "ifs.attractor": lambda a, k, out: {"points": out.shape[0]},
    "metrics.hausdorff_distance": lambda a, k, out: {
        "points": len(_arg(a, k, 0, "a")) + len(_arg(a, k, 1, "b"))},
    "metrics.box_counting_dimension": lambda a, k, out: {
        "points": len(_arg(a, k, 0, "pts"))},
    "cli.points_csv": lambda a, k, out: {"bytes": len(out)},
}

# count metric -> (layer or function, count field)
COUNTS = {
    "words.word_concat.symbols": ("words.word_concat", "symbols"),
    "turtle.draw.segments": ("turtle.draw", "segments"),
    "ifs.attractor.points": ("ifs.attractor", "points"),
    "metrics.hausdorff_distance.calls": ("metrics.hausdorff_distance", "calls"),
    "metrics.hausdorff_distance.points": ("metrics.hausdorff_distance", "points"),
    "metrics.box_counting_dimension.points": ("metrics.box_counting_dimension", "points"),
    "cli.points_csv.bytes": ("cli.points_csv", "bytes"),
}

# rate metric -> (unit, count metric, scale, time metric)
RATES = {
    "turtle.draw.segments_per_s": ("1/s", "turtle.draw.segments", 1.0,
                                   "turtle.draw.self_s"),
    "cli.points_csv.mb_per_s": ("MB/s", "cli.points_csv.bytes", 1e-6,
                                "cli.points_csv.self_s"),
}

BENCH_METRICS = ("bench.untraced_wall_s", "bench.trace_overhead_s",
                 "bench.span_wall_s")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for key in LAYERS + NAMED:
        specs += [(key + ".self_s", "s", "lower"), (key + ".wall_s", "s", "lower")]
    specs += [(name, "count", "lower") for name in COUNTS]
    specs += [(name, spec[0], "higher") for name, spec in RATES.items()]
    return specs + [(name, "s", "lower") for name in BENCH_METRICS]


def pass_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass from tracer.summarize's output.

    self_s is busy time summed over threads and wall_s the time covered on
    the clock; both are reported, never their ratio.  A layer or function
    that did not run reports 0, and so does a rate over no time.  The
    bench.* metrics other than span_wall_s need untraced passes and are
    filled in by the caller.
    """
    m = {}
    for key in LAYERS + NAMED:
        entry = summary.get(key, {})
        m[key + ".self_s"] = entry.get("self_s", 0.0)
        m[key + ".wall_s"] = entry.get("wall_s", 0.0)
    for name, (key, field) in COUNTS.items():
        m[name] = summary.get(key, {}).get(field, 0)
    for name, (_, amount, scale, seconds) in RATES.items():
        m[name] = m[amount] * scale / m[seconds] if m[seconds] > 0.0 else 0.0
    m["bench.span_wall_s"] = summary.get("*", {}).get("wall_s", 0.0)
    return m
