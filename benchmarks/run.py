"""Stdlib benchmark for dcpoly: CLI workloads timed end to end, plus a traced run.

Run from the root of a checkout (no install step; the harness puts
``src`` on the path itself)::

    python3 benchmarks/run.py --workload deep --seed 0 --seconds 30 --trace 0

Workloads (``WORKLOADS``; each op runs the listed commands one after
another as fresh ``python -m dcpoly.cli ...`` processes, never two at
once)::

    deep      ratios --max-perimeter 160 --format csv
              layered iteration with d collapsed, at high order
    refined   series --by diagonals --max-perimeter 64 --format csv,
              then series --by noses --max-perimeter 64 --format csv
              layered iteration with d tracked, plus joint_table and project
    census    census --max-perimeter 24 --classify --format csv
              the exhaustive walk in brute only, no series arithmetic
    kernel    verify --suite kernel --order 60 --d-samples <from the seed>
              closedform radicals and roots over Q and Q(sqrt D)

Only ``kernel`` uses the seed: bit i of the seed picks one of the two
samples of ``KERNEL_SLOTS[i]``, and seed 0 gives the CLI default
1,1/2,2,3.  The other workloads take the same input for every seed.

``--trace 0`` measures with tracing off.  Ops run back to back until
the next one would end after ``--seconds`` (at least ``MIN_OPS``), each
preceded by ``SETUP_PER_OP`` runs of ``<subcommand> --help`` (a round).
``--trace 1`` alternates one untraced op with one traced op, which calls
``dcpoly.cli.main(argv)`` in this process with the same argv while the
wrappers of ``tracer.py`` time each module's public calls.

Every op's output is checked: a nonzero exit, a timeout, a stdout
digest that differs from the seed commit's (deep, refined, census), or
a disagreement with the published counts and ratio decimals makes the
op fail.  ``kernel`` must exit 0 with ``N checks, 0 failed`` and N as
the seed commit reports it for the sample set.

Output.  Every metric is printed on its own line as ``name value unit
(samples)``; the last line of stdout is the JSON object
``{"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}``.  The full result is also written to
``benchmarks/results/<workload>-seed<seed>-trace<t>.json``:

    schema       1
    workload, seed, seconds, trace, commands (argv lists, d-samples filled in)
    machine      {nproc, cpu_model, python, platform}
    commit       ``git rev-parse HEAD`` of the checkout, or "unknown"
    correct, attempted, failed, error_rate, failures [{op, reason}]
    metrics      {name: {value, unit, samples}}; samples is the count of
                 values the reported median (or max) was taken over
    raw          {wall_raw_s, setup_raw_s, reference_s}, same layout
    op_samples   {wall_s, setup_s, max_rss_kb, reference_s}: every
                 untraced measurement, raw, in the order taken
    spans_file   (trace 1) JSON lines, one span each: id, name, start,
                 end, parent, run, self_s; times are perf_counter seconds

``benchmarks/BENCH_1/`` holds the first baseline: the result documents
(without spans) of every workload at seed 0 with tracing off and on.
Later baselines go into new ``BENCH_<n>`` directories beside it.

End-to-end metrics (trace 0).  On a shared 2-vCPU virtual machine
(Xeon, KVM) the speed of the same code drifts by 20-35% over a minute
as the host gets busy, more than any bound worth gating on, so the
gated times are taken at reference speed.  A fixed loop of dcpoly's
kind of work that runs none of dcpoly, ``reference_s()``, is timed
before the first round and after every round; each round's times are
multiplied by ``REFERENCE_NOMINAL_S`` over the mean of the two
reference times around the round.  A change
to dcpoly moves these times as it moves the raw ones; a change in
machine speed moves the round and its references together.

    wall_s       median over ops of one op's wall time, first spawn to
                 last exit, at reference speed
    setup_s      median over setup runs of ``<subcommand> --help`` wall
                 time at reference speed: interpreter start, package
                 import and the argparse build
    peak_rss_mb  largest max-RSS of the op processes (os.wait4 rusage)
    error_rate   failed ops / attempted ops (printed and written, and
                 carried by ``failed`` / ``attempted`` of the last line)

The raw medians ``wall_raw_s`` and ``setup_raw_s`` and the median
``reference_s`` are printed and written under ``raw`` as well.

Per-layer metrics (trace 1) are medians over the traced ops of per-op
totals: ``<name>.calls`` counts calls, ``<name>.self_s`` sums self
time (duration minus traced calls inside), both for the names of
``tracer.py``.  Besides those, ``brute.generate.keys`` is the size of
the returned table, ``verify.checks`` and ``verify.checks_failed``
count the CheckResults of ``run_suites``, ``cli.main.traced_s`` is the
traced duration of ``cli.main``, ``cli.stdout_bytes`` the bytes it
printed, and ``trace.overhead_s`` is ``cli.main.traced_s`` minus
(``wall_raw_s`` less one ``setup_raw_s`` per process of the op), all
raw times of the same run.
A layer the workload does not call reports 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"

MIN_OPS = 3
SETUP_PER_OP = 2
OP_TIMEOUT_S = 150.0

# Published counts by perimeter 4, 6, ..., 40 of diagonally convex and of
# column-convex polyominoes, and ratio decimals of the comparison table.
PUBLISHED_DCP = dict(zip(range(4, 41, 2), [
    1, 2, 7, 28, 122, 556, 2618, 12634, 62128, 310212, 1568495, 8014742,
    41323641, 214719610, 1123244757, 5910863420, 31268459118, 166185855552,
    886961294034,
]))
PUBLISHED_CC = dict(zip(range(4, 41, 2), [
    1, 2, 7, 28, 122, 558, 2641, 12822, 63501, 319554, 1629321, 8399092,
    43701735, 229211236, 1210561517, 6432491192, 34364148528, 184463064936,
    994430028087,
]))
KNOWN_RATIOS = {
    4: "1.0000", 6: "1.0000", 8: "1.0000", 10: "1.0000", 12: "1.0000",
    14: "1.0036", 16: "1.0088", 36: "1.0990", 38: "1.1100", 40: "1.1212",
}

# sha256 of stdout at the seed commit, keyed by the command line.
DIGESTS = {
    "ratios --max-perimeter 160 --format csv":
        "029dcbac3375abbf64014479e916fd3867eadd60469cd0d482e4ac9221570825",
    "series --by diagonals --max-perimeter 64 --format csv":
        "db87bf0022dce519548a1a8261de3e7e152df430acb95fbd5270bb9114b941f6",
    "series --by noses --max-perimeter 64 --format csv":
        "3ef22c148ce0e22f89134d052f1dae5fc1932c403fddf3f08e34091bf8e87b1e",
    "census --max-perimeter 24 --classify --format csv":
        "e8b23e566950aea1b81184973c01ce8be3be69f7a24706592ca27ea2d22b526b",
    # tiny sizes, for selfcheck.py
    "ratios --max-perimeter 40 --format csv":
        "14f3156f8078b21c3ce9cd26c1a5ed1306feaa427bfa932f7783c4a6dd6ad2c0",
    "series --by diagonals --max-perimeter 16 --format csv":
        "e4183d12f1f321f2234b5ef852414c991bbb288dab5817538e145f32f2695318",
    "series --by noses --max-perimeter 16 --format csv":
        "ab957e142274525e7d35963856ab1e6cb5784683a170b7d2713e617067d74ec6",
    "census --max-perimeter 12 --classify --format csv":
        "128ba59315f1bd8fe7d3042f8405e4458ca2722576014ed33121c9290b765a6f",
}

# Bit i of the seed picks an entry of slot i.  The two entries of a slot
# cost about the same at order 60, so the seed changes the inputs but not
# the work; 4 + d^2 is never a rational square, so every sample takes the
# Q(sqrt D) path; slot 0 holds integers only, so the integer-coefficient
# check always runs.
KERNEL_SLOTS = (("1", "5"), ("1/2", "5/2"), ("2", "4/3"), ("3", "1/3"))
KERNEL_ORDER = 60
# At the seed commit the kernel suite reports 10 checks per sample plus
# one integer-coefficient check per integer sample.
KERNEL_CHECKS_PER_SAMPLE = 10


def _is_rational_square(value):
    num, den = value.numerator, value.denominator
    return num >= 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


for _slot in KERNEL_SLOTS:
    for _text in _slot:
        _d = Fraction(_text)
        if _d == 0 or _is_rational_square(4 + _d * _d):
            raise AssertionError("kernel sample %s leaves the Q(sqrt D) path" % _text)


def kernel_samples(seed):
    return [slot[(seed >> bit) & 1] for bit, slot in enumerate(KERNEL_SLOTS)]


# ---------------------------------------------------------------- checks
#
# A check takes the stdout bytes of every command of an op and returns
# None, or the reason the op failed.


def _published_sums(sums, max_perimeter, what):
    if sorted(sums) != list(range(4, max_perimeter + 1, 2)):
        return "%s: perimeters %s, expected 4..%d" % (what, sorted(sums), max_perimeter)
    for n, count in sorted(sums.items()):
        if n in PUBLISHED_DCP and count != PUBLISHED_DCP[n]:
            return "%s: %d shapes at perimeter %d, published %d" % (
                what, count, n, PUBLISHED_DCP[n])
    return None


def _key_count_sums(text, max_perimeter, fields, what):
    """Sum the ``key,count`` rows of a csv census by their perimeter."""
    lines = text.splitlines()
    if not lines or lines[0] != "key,count":
        return "%s: missing key,count header" % what
    sums = {}
    for line in lines[1:]:
        key, _, count = line.rpartition(",")
        parts = key.split("/")
        if len(parts) != fields or not count.isdigit():
            return "%s: malformed row %r" % (what, line)
        sums[int(parts[0])] = sums.get(int(parts[0]), 0) + int(count)
    return _published_sums(sums, max_perimeter, what)


def _round_half_even(value, places=4):
    scale = 10 ** places
    units, remainder = divmod(value.numerator * scale, value.denominator)
    if 2 * remainder > value.denominator or (
        2 * remainder == value.denominator and units % 2
    ):
        units += 1
    return "%d.%0*d" % (units // scale, places, units % scale)


def check_ratios(text, max_perimeter):
    lines = text.splitlines()
    if not lines or lines[0] != "perimeter,column_convex,diagonally_convex,ratio":
        return "ratios: missing csv header"
    sums = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4:
            return "ratios: malformed row %r" % line
        n, cc, dcp = (int(f) for f in fields[:3])
        sums[n] = dcp
        if n in PUBLISHED_CC and cc != PUBLISHED_CC[n]:
            return "ratios: %d column-convex at %d, published %d" % (cc, n, PUBLISHED_CC[n])
        if fields[3] != _round_half_even(Fraction(cc, dcp)):
            return "ratios: ratio %s at %d does not match its counts" % (fields[3], n)
        if n in KNOWN_RATIOS and fields[3] != KNOWN_RATIOS[n]:
            return "ratios: ratio %s at %d, published %s" % (fields[3], n, KNOWN_RATIOS[n])
    if max_perimeter >= 40 and not set(KNOWN_RATIOS) <= set(sums):
        return "ratios: published ratio rows missing"
    return _published_sums(sums, max_perimeter, "ratios")


def check_kernel_output(text, samples):
    expected = KERNEL_CHECKS_PER_SAMPLE * len(samples) + sum(
        1 for s in samples if Fraction(s).denominator == 1
    )
    lines = text.splitlines()
    if not lines or lines[-1] != "%d checks, 0 failed" % expected:
        return "kernel: last line %r, expected '%d checks, 0 failed'" % (
            lines[-1] if lines else "", expected)
    if len(lines) != expected + 1 or not all(
        line.startswith("PASS [kernel] ") for line in lines[:-1]
    ):
        return "kernel: %d result lines, not all PASS" % (len(lines) - 1)
    return None


def _max_perimeter(argv):
    return int(argv[argv.index("--max-perimeter") + 1])


def check_op(argvs, outputs):
    """Correctness gate for one op: digests, then the published literals."""
    for argv, out in zip(argvs, outputs):
        line = " ".join(argv)
        text = out.decode("utf-8", "replace")
        if argv[0] == "verify":
            reason = check_kernel_output(text, argv[argv.index("--d-samples") + 1].split(","))
        else:
            digest = DIGESTS.get(line)
            if digest is None:
                return "no seed digest recorded for %r" % line
            if hashlib.sha256(out).hexdigest() != digest:
                return "stdout of %r differs from the seed commit" % line
            if argv[0] == "ratios":
                reason = check_ratios(text, _max_perimeter(argv))
            elif argv[0] == "series":
                reason = _key_count_sums(text, _max_perimeter(argv), 2, line)
            else:
                reason = _key_count_sums(text, _max_perimeter(argv), 4, line)
        if reason:
            return reason
    return None


# ------------------------------------------------------------- workloads


def workload_commands(name, seed):
    if name == "deep":
        return [["ratios", "--max-perimeter", "160", "--format", "csv"]]
    if name == "refined":
        return [
            ["series", "--by", by, "--max-perimeter", "64", "--format", "csv"]
            for by in ("diagonals", "noses")
        ]
    if name == "census":
        return [["census", "--max-perimeter", "24", "--classify", "--format", "csv"]]
    if name == "kernel":
        return [["verify", "--suite", "kernel", "--order", str(KERNEL_ORDER),
                 "--d-samples", ",".join(kernel_samples(seed))]]
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("deep", "refined", "census", "kernel")


# ------------------------------------------------------------ processes


def child_env():
    env = dict(os.environ)
    env.pop("DCPOLY_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd, timeout=OP_TIMEOUT_S):
    """Run one process to exit; returns (stdout, status, maxrss_kb, wall_s).

    stdout is read to EOF, then the child is reaped with os.wait4 for its
    rusage.  A timer kills it after ``timeout`` seconds, which reads as a
    nonzero status.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)

    def kill():
        # os.kill, not proc.kill: Popen.poll would reap the child and lose
        # its rusage; nothing else reaps it before the wait4 below.
        with contextlib.suppress(ProcessLookupError):
            os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        timer.join()
    return out, proc.returncode, usage.ru_maxrss, time.perf_counter() - start


def cli_command(argv, program=None):
    return (program or [sys.executable, "-m", "dcpoly.cli"]) + list(argv)


def measure_setup(subcommand, program=None):
    out, code, _, wall = run_process(cli_command([subcommand, "--help"], program))
    if code != 0 or not out.startswith(b"usage:"):
        raise RuntimeError("%s --help exited %d" % (subcommand, code))
    return wall


def run_op(argvs, program=None):
    """One untraced op: returns (wall_s, peak_rss_kb, failure reason or None)."""
    start = time.perf_counter()
    outputs = []
    peak = 0
    reason = None
    for argv in argvs:
        out, code, rss, _ = run_process(cli_command(argv, program))
        peak = max(peak, rss)
        outputs.append(out)
        if code != 0 and reason is None:
            reason = "%r exited %d" % (" ".join(argv), code)
    wall = time.perf_counter() - start
    return wall, peak, reason or check_op(argvs, outputs)


def run_traced_op(argvs, tracer, cli):
    """One op through cli.main in this process: returns (metrics, reason)."""
    tracer.start_run()
    outputs = []
    reason = None
    for argv in argvs:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the op fails; the benchmark goes on
            code = "%s: %s" % (type(exc).__name__, exc)
        outputs.append(buffer.getvalue().encode("utf-8"))
        if code != 0 and reason is None:
            reason = "traced %r returned %s" % (" ".join(argv), code)
    totals = tracer.totals
    values = {}
    for name, unit in PER_LAYER:
        base, _, stat = name.rpartition(".")
        entry = totals.get(base)
        if stat == "calls":
            values[name] = entry.calls if entry else 0
        elif stat == "self_s":
            values[name] = entry.self_s if entry else 0.0
    values["cli.main.traced_s"] = totals["cli.main"].total_s if "cli.main" in totals else 0.0
    values["cli.stdout_bytes"] = sum(len(out) for out in outputs)
    values.update(tracer.returns)
    return values, reason or check_op(argvs, outputs)


def _observe_generate(returns, table):
    returns["brute.generate.keys"] = returns.get("brute.generate.keys", 0) + len(table)


def _observe_run_suites(returns, results):
    returns["verify.checks"] = returns.get("verify.checks", 0) + len(results)
    returns["verify.checks_failed"] = returns.get("verify.checks_failed", 0) + sum(
        1 for r in results if not r.passed
    )


OBSERVE = {"brute.generate": _observe_generate, "verify.run_suites": _observe_run_suites}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("layered.rhs_step.calls", "count"),
    ("layered.rhs_step.self_s", "s"),
    ("layered.check_invariants.self_s", "s"),
    ("layered.solve.self_s", "s"),
    ("layered.joint_table.self_s", "s"),
    ("series.zpoly_mul.calls", "count"),
    ("series.zpoly_mul.self_s", "s"),
    ("series.zpoly_tail.self_s", "s"),
    ("series.bipoly_add.calls", "count"),
    ("series.bipoly_add.self_s", "s"),
    ("series.bipoly_mul.self_s", "s"),
    ("series.xseries_mul.calls", "count"),
    ("series.xseries_mul.self_s", "s"),
    ("series.xseries_divide.self_s", "s"),
    ("series.xseries_sqrt.self_s", "s"),
    ("series.quadext_new.calls", "count"),
    ("series.quadext_mul.calls", "count"),
    ("closedform.roots.calls", "count"),
    ("closedform.roots.self_s", "s"),
    ("closedform.radicals.self_s", "s"),
    ("closedform.kernel_factors.calls", "count"),
    ("closedform.column_convex_gf.self_s", "s"),
    ("closedform.ratio_table.self_s", "s"),
    ("brute.generate.calls", "count"),
    ("brute.generate.self_s", "s"),
    ("brute.generate.keys", "count"),
    ("verify.kernel_suite.self_s", "s"),
    ("verify.checks", "count"),
    ("verify.checks_failed", "count"),
    ("counts.project.calls", "count"),
    ("counts.project.self_s", "s"),
    ("cli.main.traced_s", "s"),
    ("cli.write_text.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


# ------------------------------------------------------------ measuring


def _dict_products():
    terms = {(k % 5, 2 * k): k + 1 for k in range(100)}
    acc = {}
    for (ad, ax), av in terms.items():
        for (bd, bx), bv in terms.items():
            key = (ad + bd, ax + bx)
            acc[key] = acc.get(key, 0) + av * bv


def _fraction_sqrt():
    coeffs = [Fraction(1), Fraction(-4), Fraction(0), Fraction(1, 3)]
    coeffs.extend([Fraction(0)] * 56)
    root = [Fraction(1)]
    for n in range(1, 60):
        value = coeffs[n]
        for k in range(1, n):
            value -= root[k] * root[n - k]
        root.append(value / 2)


# Host contention slows interpreter-bound dict work and big-integer
# Fraction work by different factors (1.75x against 1.35x in one slow
# spell on a 2-vCPU Xeon under KVM), so the reference loop does both:
# BiPoly-style products of dicts keyed by exponent tuples and an
# XSeries.sqrt-style Fraction recurrence.  REFERENCE_NOMINAL_S sets the
# scale: times at reference speed read as raw wall times on a machine
# where the loop takes that long, as that Xeon does when its host is quiet.
REFERENCE_NOMINAL_S = 0.22


def reference_s():
    """Wall time of the fixed reference loop.  Nothing of dcpoly runs in
    it, so a change to the program cannot move it; only the speed of the
    machine does."""
    start = time.perf_counter()
    for _ in range(42):
        _dict_products()
    for _ in range(18):
        _fraction_sqrt()
    return time.perf_counter() - start


def measure(commands, seconds, trace, min_ops=MIN_OPS, program=None):
    """Run ops for about ``seconds``; returns the result without metadata.

    Each round is ``SETUP_PER_OP`` setup runs and one untraced op, plus
    one traced op with ``trace`` set (then ``program`` must be left at
    its default).  The reference loop runs before the first round and
    after every round; the mean of the two around a round rescales its
    times to reference speed.
    """
    subcommand = commands[0][0]
    setup, walls, peaks, failures, traced, refs, scales = [], [], [], [], [], [], []
    tracer = cli = None
    if trace:
        sys.path.insert(0, str(SRC))
        from dcpoly import cli
        import tracer as tracer_module

        tracer = tracer_module.Tracer("dcpoly", OBSERVE)
        tracer.install()
    start = time.perf_counter()
    refs.append(reference_s())
    rounds = attempted = 0
    try:
        while True:
            round_start = time.perf_counter()
            for _ in range(SETUP_PER_OP):
                setup.append(measure_setup(subcommand, program))
            wall, peak, reason = run_op(commands, program)
            walls.append(wall)
            peaks.append(peak)
            reasons = [reason]
            if trace:
                values, reason = run_traced_op(commands, tracer, cli)
                traced.append(values)
                reasons.append(reason)
            refs.append(reference_s())
            scales.append(2 * REFERENCE_NOMINAL_S / (refs[-2] + refs[-1]))
            for reason in reasons:
                if reason:
                    failures.append({"op": attempted, "reason": reason})
                attempted += 1
            rounds += 1
            now = time.perf_counter()
            if rounds >= (1 if trace else min_ops) and (
                now + (now - round_start) > start + seconds
            ):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    metrics = {}
    raw = {
        "wall_raw_s": (statistics.median(walls), "s", len(walls)),
        "setup_raw_s": (statistics.median(setup), "s", len(setup)),
        "reference_s": (statistics.median(refs), "s", len(refs)),
    }
    if trace:
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(v["cli.main.traced_s"] for v in traced) - (
                    raw["wall_raw_s"][0] - len(commands) * raw["setup_raw_s"][0]
                )
            else:
                value = statistics.median(v.get(name, 0) for v in traced)
            metrics[name] = (value, unit, len(traced))
    else:
        setup_scales = [f for f in scales for _ in range(SETUP_PER_OP)]
        metrics["wall_s"] = (
            statistics.median(w * f for w, f in zip(walls, scales)), "s", len(walls))
        metrics["setup_s"] = (
            statistics.median(t * f for t, f in zip(setup, setup_scales)), "s",
            len(setup))
        metrics["peak_rss_mb"] = (max(peaks) / 1024.0, "MB", len(peaks))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": n}
            for name, (value, unit, n) in metrics.items()
        },
        "raw": {
            name: {"value": value, "unit": unit, "samples": n}
            for name, (value, unit, n) in raw.items()
        },
        "op_samples": {"wall_s": walls, "setup_s": setup, "max_rss_kb": peaks,
                       "reference_s": refs},
    }
    if tracer is not None:
        result["spans"] = tracer.span_records()
    return result


# ------------------------------------------------------------- metadata


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": "%s %s" % (os.uname().sysname, os.uname().release),
    }


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be at least 0 and --seconds at least 1")
    if not (SRC / "dcpoly" / "cli.py").is_file():
        print("benchmark: no dcpoly sources under %s" % SRC, file=sys.stderr)
        return 2
    os.environ.pop("DCPOLY_THREADS", None)
    commands = workload_commands(args.workload, args.seed)
    try:
        result = measure(commands, args.seconds, args.trace)
    except RuntimeError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    spans = result.pop("spans", None)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    document = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": commands,
        "machine": machine(),
        "commit": commit(),
    }
    document.update(result)
    if spans is not None:
        document["spans_file"] = "%s.spans.jsonl" % stem
        with open(RESULTS / document["spans_file"], "w") as stream:
            for span in spans:
                stream.write(json.dumps(span) + "\n")
    with open(RESULTS / ("%s.json" % stem), "w") as stream:
        json.dump(document, stream, indent=2)
        stream.write("\n")

    m = document["machine"]
    print("workload %s  seed %d  trace %d  commit %s" % (
        args.workload, args.seed, args.trace, document["commit"][:12]))
    print("python %s  nproc %s  cpu %s" % (m["python"], m["nproc"], m["cpu_model"]))
    for name, metric in list(document["metrics"].items()) + list(
        document["raw"].items()
    ):
        print("%-36s %14.6f %-5s (%d samples)" % (
            name, metric["value"], metric["unit"], metric["samples"]))
    print("%-36s %14.6f %-5s (%d failed of %d attempted)" % (
        "error_rate", document["error_rate"], "ratio", document["failed"],
        document["attempted"]))
    for failure in document["failures"]:
        print("failed op %d: %s" % (failure["op"], failure["reason"]))
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in document["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
