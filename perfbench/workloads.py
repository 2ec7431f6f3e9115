"""The benchmark's three workloads.

A workload is a list of operations that one client runs in order, waiting
for each reply (a closed loop).  An operation is one call into fibfrac plus a
check of what it returned or wrote.  Only the call is timed; a call that
raises, or an output that fails its check, counts as a failed operation.

The workloads have no random input.  The seed only reorders operations (the
angle order in `curves`, the command order in `export`); it never changes the
amount of work.

`setup` imports fibfrac, so the set-up time includes the package import.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

NAMES = ("curves", "verify_full", "export")

# test 06 of the acceptance suite: the same order, angles and tolerance
CURVE_ORDER = 35
CURVE_ALPHAS = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
ASPECT_TOL = 1e-3

VERIFY_ARGV = ("verify", "--level", "full", "--alpha", "pi/2")

# command -> (argv with {out} for the output directory, files it writes)
_SWEEP_FILES = (("sweep/dim.csv",)
                + tuple("sweep/ifs_%02d.json" % k for k in range(5))
                + tuple("sweep/attractor_%02d.csv" % k for k in range(5)))
EXPORT_CALLS = {
    "attractor": (("attractor", "--depth", "8", "--out", "{out}/attractor.csv"),
                  ("attractor.csv",)),
    "sweep": (("sweep", "--grid", "5", "--what", "dim,ifs,attractor",
               "--depth", "7", "--out", "{out}/sweep"), _SWEEP_FILES),
    "curve_svg": (("curve", "--n", "25", "--svg", "{out}/curve.svg"),
                  ("curve.svg",)),
    "curve_csv": (("curve", "--n", "25", "--csv", "{out}/curve.csv"),
                  ("curve.csv",)),
}

# SHA-256 of every export output, recorded when the benchmark was defined;
# the CLI promises byte-identical output for identical configurations
EXPORT_DIGESTS = {
    "attractor.csv": "a7b3d03b38e5f83196bebd527742866832fa4e89f59de8140310cfd7f52b2fb9",
    "curve.csv": "105cb70b8fba034a4767ed42baf5e535c0e6d3c93f5e1cb99e7460008239a788",
    "curve.svg": "6463d24680a06349a683a66f7a7b81fa8a4a70b3b64f3d6961a5ce04636a6e18",
    "sweep/dim.csv": "d519d5941a8ef7e569a7d94e4c67f54dff17833c643b9b7188a8e59425e811f0",
    "sweep/ifs_00.json": "836c363dbfbd8e2e1212fe73a5ce9ac82ffce92924410b710f95ec280685cad3",
    "sweep/ifs_01.json": "1245241741df277bf93a0d76b68ad0e5dcabdd7299b73a2ec824a71446ac8742",
    "sweep/ifs_02.json": "4467bc966a99464ea9dbfdebd1b5b76546afce102c17cdaf76076506743c0285",
    "sweep/ifs_03.json": "bf038dd241daac3fdfb636d843fed28aeb055a4b012f12678acf73a7057dd538",
    "sweep/ifs_04.json": "50bb3154c4f863d5241032c087c9c6ee429a3e434236167e65320a57f97cb965",
    "sweep/attractor_00.csv": "146894d6f9a31eb2f608a1cf872deaf0be564b82d7623208a554980405d89cf8",
    "sweep/attractor_01.csv": "6d7a0eab22a7f33807ecc87b54d4d290835154630db6cc505ec585f3c584c480",
    "sweep/attractor_02.csv": "5ceea8dc9a5e9f2d582a441fccb4f2277cf49dcb89a7d9a4b48deabcce6050a0",
    "sweep/attractor_03.csv": "01ba316aa78b837369398801679cf448a21eedaf6d53c5966744554ac0d6377c",
    "sweep/attractor_04.csv": "044bd06355cc60d47753dd966556f378baa1509bae30003341a4f77c6e3f6fb7",
}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (attempted, failed)


def _flip_first_byte(path: str) -> None:
    with open(path, "r+b") as fh:
        b = fh.read(1)
        fh.seek(0)
        fh.write(bytes([b[0] ^ 0x01]))


def _curves(seed: int, outdir: str, corrupt: bool) -> list:
    from fibfrac import analysis, turtle, words

    vertices = words.fib_length(2, CURVE_ORDER) + 1
    alphas = list(CURVE_ALPHAS)
    random.Random(seed).shuffle(alphas)

    def op(alpha):
        def call():
            p = turtle.draw(words.word_concat(2, CURVE_ORDER), alpha)
            st = turtle.curve_stats(p)
            return p.points.shape[0], st.aspect, analysis.aspect_limit(alpha)

        def check(out):
            n, aspect, limit = out
            ok = n == vertices and abs(aspect - limit) < ASPECT_TOL
            return 1, int(not ok)

        return Op("curve alpha=%.6f" % alpha, call, check)

    return [op(a) for a in alphas]


def _verify_full(seed: int, outdir: str, corrupt: bool) -> list:
    from fibfrac import cli

    report = os.path.join(outdir, "verify.json")
    argv = list(VERIFY_ARGV) + ["--out", report]

    def call():
        return cli.main(argv)

    def check(code):
        try:
            if corrupt:
                with open(report) as fh:
                    rep = json.load(fh)
                rep["checks"][0]["passed"] = False
                with open(report, "w") as fh:
                    json.dump(rep, fh)
            with open(report) as fh:
                rep = json.load(fh)
        finally:
            if os.path.exists(report):
                os.unlink(report)
        checks = rep["checks"]
        failed = sum(not c["passed"] for c in checks)
        if failed == 0 and (code != 0 or rep["passed"] is not True or not checks):
            failed = 1
        return max(len(checks), 1), failed

    return [Op("verify --level full", call, check)]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _export(seed: int, outdir: str, corrupt: bool) -> list:
    from fibfrac import cli

    os.environ["FIBFRAC_THREADS"] = str(len(os.sched_getaffinity(0)))
    names = sorted(EXPORT_CALLS)
    random.Random(seed).shuffle(names)

    def op(name):
        template, files = EXPORT_CALLS[name]
        argv = [a.format(out=outdir) for a in template]
        paths = [os.path.join(outdir, f) for f in files]

        def call():
            return cli.main(argv)

        def check(code):
            try:
                if corrupt and name == "attractor":
                    _flip_first_byte(paths[0])
                bad = [f for f, p in zip(files, paths)
                       if _sha256(p) != EXPORT_DIGESTS[f]]
            finally:
                for p in paths:
                    if os.path.exists(p):
                        os.unlink(p)
            return 1, int(code != 0 or bool(bad))

        return Op(name, call, check)

    return [op(n) for n in names]


_BUILDERS = {"curves": _curves, "verify_full": _verify_full, "export": _export}


def setup(name: str, seed: int, outdir: str, corrupt: bool = False) -> list:
    """Import fibfrac and build the operations of workload `name`.

    Outputs go under `outdir`, which is created empty.  `corrupt` damages
    one output per pass after it is written (the negative control).
    """
    if os.path.exists(outdir):
        shutil.rmtree(outdir)
    os.makedirs(outdir)
    return _BUILDERS[name](seed, outdir, corrupt)
