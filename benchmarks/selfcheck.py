"""Self-check of the benchmark harness, at tiny sizes (about 20 seconds).

    python3 benchmarks/selfcheck.py

Shows that BENCHMARK.json lists the workloads and metrics ``run.py``
reports; that clean ops report error_rate 0; that a nonzero exit and a
tampered stdout each count as a failed op; that the published literals
still catch a tampered output whose digest was re-recorded; that a
traced run reports the layers an op calls and zero calls for the layers
it bypasses; that the last line of ``run.py`` carries exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; that ``run.py``
exits nonzero, printing no result, in a directory holding only the
benchmark files; that the harness never has more children alive than
``nproc`` (it runs one at a time); and that it opens nothing for
writing outside the checkout.  Exits 0 when all hold.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

ROOT = run.ROOT
FAILURES = []

# Runs dcpoly's CLI in-process and bumps the last digit of the second
# output line, e.g. the count of the first census row.
TAMPER = r"""
import contextlib, io, sys
from dcpoly import cli
buffer = io.StringIO()
try:
    with contextlib.redirect_stdout(buffer):
        code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
lines = buffer.getvalue().split("\n")
if len(lines) > 1 and lines[1][-1:].isdigit():
    lines[1] = lines[1][:-1] + str((int(lines[1][-1]) + 1) % 10)
sys.stdout.write("\n".join(lines))
sys.exit(code)
"""

CENSUS = [["census", "--max-perimeter", "12", "--classify", "--format", "csv"]]
REFINED = [
    ["series", "--by", by, "--max-perimeter", "16", "--format", "csv"]
    for by in ("diagonals", "noses")
]
RATIOS = [["ratios", "--max-perimeter", "40", "--format", "csv"]]
KERNEL = [["verify", "--suite", "kernel", "--order", "12", "--d-samples", "1,1/2"]]


def expect(condition, what):
    print("%s  %s" % ("ok  " if condition else "FAIL", what))
    if not condition:
        FAILURES.append(what)


# -------------------------------------------------- process and file audit

spawned = []
max_alive = 0
written_inside = []
written_outside = []


class CountingPopen(subprocess.Popen):
    def __init__(self, *args, **kwargs):
        global max_alive
        super().__init__(*args, **kwargs)
        spawned.append(self)
        alive = sum(1 for p in spawned if p.returncode is None)
        max_alive = max(max_alive, alive)


def audit(event, args):
    if event != "open" or not isinstance(args[0], (str, bytes)):
        return
    path, mode, flags = args
    writes = (mode and any(c in mode for c in "wax+")) or (
        flags is not None and flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT)
    )
    path = os.path.abspath(os.fsdecode(path))
    if not writes or path == os.devnull:
        return
    if path.startswith(str(ROOT) + os.sep):
        written_inside.append(path)
    else:
        written_outside.append(path)


def main():
    sys.addaudithook(audit)
    run.subprocess.Popen = CountingPopen
    try:
        checks()
    finally:
        run.subprocess.Popen = subprocess.Popen
    expect(1 <= max_alive <= (os.cpu_count() or 1),
           "at most nproc children alive at once (saw %d)" % max_alive)
    expect(written_inside and not written_outside,
           "%d files written, none outside the checkout %s"
           % (len(written_inside), written_outside or ""))
    print("%d self-check failures" % len(FAILURES))
    return 1 if FAILURES else 0


def checks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
           and [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
           and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json names the workloads and metrics run.py reports")

    for name, commands in (("census", CENSUS), ("refined", REFINED),
                           ("ratios", RATIOS), ("kernel", KERNEL)):
        result = run.measure(commands, 0, 0, min_ops=1)
        expect(result["error_rate"] == 0 and result["attempted"] == 1,
               "clean %s op: error_rate 0 %s" % (name, result["failures"]))

    result = run.measure([["census", "--max-perimeter", "13"]], 0, 0, min_ops=2)
    expect(result["failed"] == result["attempted"] == 2,
           "nonzero exit counts as failed: error_rate %s" % result["error_rate"])

    tamper = [sys.executable, "-c", TAMPER]
    for commands in (CENSUS, RATIOS):
        result = run.measure(commands, 0, 0, min_ops=1, program=tamper)
        expect(result["error_rate"] == 1.0,
               "tampered %s stdout counts as failed: %s"
               % (commands[0][0], result["failures"]))

        # a digest re-recorded from the tampered program still fails
        out, code, _, _ = run.run_process(run.cli_command(commands[0], tamper))
        line = " ".join(commands[0])
        saved = run.DIGESTS[line]
        run.DIGESTS[line] = hashlib.sha256(out).hexdigest()
        try:
            reason = run.check_op(commands, [out])
        finally:
            run.DIGESTS[line] = saved
        expect(code == 0 and reason is not None and "digest" not in reason,
               "published literals reject tampered %s output: %s"
               % (commands[0][0], reason))

    for name, commands, calls, bypassed in (
        ("refined", REFINED, "layered.rhs_step.calls", "brute.generate.calls"),
        ("census", CENSUS, "brute.generate.calls", "layered.rhs_step.calls"),
        ("kernel", KERNEL, "closedform.roots.calls", "layered.rhs_step.calls"),
    ):
        result = run.measure(commands, 0, 1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        expect(result["error_rate"] == 0 and set(metrics) == {
            n for n, _ in run.PER_LAYER
        }, "traced %s op is correct and reports every per-layer metric" % name)
        expect(metrics[calls] > 0 and metrics[bypassed] == 0,
               "traced %s: %s = %s, %s = %s" % (
                   name, calls, metrics[calls], bypassed, metrics[bypassed]))
        expect(all(s["run"] >= 1 for s in result["spans"]),
               "traced %s: %d spans, each with a run id" % (name, len(result["spans"])))
    expect(metrics["closedform.roots.calls"] == 6 and metrics["verify.checks"] == 21,
           "kernel at two samples: 3 roots calls per sample, 21 checks")

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "census", "--seed", "3", "--seconds", "1"])
    last = json.loads(stdout.getvalue().splitlines()[-1])
    expect(code == 0 and sorted(last) == ["attempted", "correct", "failed", "metrics"]
           and sorted(last["metrics"]) == sorted(n for n, _ in run.END_TO_END)
           and last["correct"] and last["failed"] == 0,
           "run.py prints the result object last: %s" % sorted(last["metrics"]))

    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "benchmarks", bare / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "census", "--seed",
             "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout,
           "without the sources run.py exits %d and prints no result"
           % proc.returncode)


if __name__ == "__main__":
    sys.exit(main())
