"""Start-up cost of the command line: which modules a subcommand loads.

Each case runs ``cli.main`` in a fresh interpreter and lists the
modules that appeared between just before ``from dcpoly import cli``
and the end of the run.  Modules the interpreter loaded before that
(``site`` may preload ``tempfile`` or ``typing``) are not counted.  One
more case pins that ``closedform`` needs no module of the package but
``series``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcpoly
from dcpoly import closedform

PROBE = """
import sys
before = set(sys.modules)
from dcpoly import cli
try:
    cli.main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)))
"""

ENGINES = {"dcpoly.series", "dcpoly.layered", "dcpoly.closedform", "dcpoly.brute"}


def fresh(probe, *argv):
    """The words a fresh interpreter running ``probe`` writes to stderr."""
    env = dict(os.environ)
    src = str(Path(dcpoly.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stderr.split())


def loaded(*argv):
    """Modules a fresh ``cli.main(argv)`` run loads, with ``cli`` itself."""
    return fresh(PROBE, *argv)


@pytest.mark.parametrize("sub", ["series", "census", "ratios", "verify", None])
def test_help_loads_no_engine(sub):
    modules = loaded(*filter(None, (sub, "--help")))
    assert "dcpoly.cli" in modules
    assert modules & (
        ENGINES | {"dcpoly.verify", "dcpoly.counts", "dataclasses", "json"}
    ) == set()


# argv -> (modules it must load, modules it must not load)
RUNS = {
    ("census", "--max-perimeter", "12", "--format", "csv"): (
        {"dcpoly.brute"},
        {"dcpoly.series", "dcpoly.layered", "dcpoly.closedform", "dcpoly.verify",
         "fractions"},
    ),
    # the series tables are sums of packed ints: no series arithmetic, and
    # no CountTable, which only joint_table builds
    **{
        ("series", "--max-perimeter", "12", *by, "--format", "csv"): (
            {"dcpoly.layered"},
            {"dcpoly.series", "dcpoly.brute", "dcpoly.closedform", "dcpoly.verify",
             "dcpoly.counts", "fractions", "decimal"},
        )
        for by in ((), ("--by", "noses"), ("--by", "diagonals"))
    },
    # the column-convex counts are integers: no closed-form series algebra
    ("ratios", "--max-perimeter", "14", "--format", "csv"): (
        {"dcpoly.ratios", "dcpoly.layered"},
        {"dcpoly.brute", "dcpoly.verify", "dcpoly.closedform", "dcpoly.series",
         "dcpoly.counts", "fractions", "decimal"},
    ),
    # the kernel suite is series algebra only: no census tables, no integer counts
    ("verify", "--suite", "kernel", "--order", "12"): (
        {"dcpoly.verify", "dcpoly.closedform"},
        {"dcpoly.brute", "dcpoly.layered", "dcpoly.counts", "dcpoly.ratios"},
    ),
}


def run_id(argv):
    """The subcommand, with its ``--by`` value when it has one."""
    if "--by" in argv:
        return "%s-%s" % (argv[0], argv[argv.index("--by") + 1])
    return argv[0]


@pytest.mark.parametrize("argv", sorted(RUNS), ids=run_id)
def test_subcommand_loads_only_its_engine(argv):
    needed, absent = RUNS[argv]
    modules = loaded(*argv)
    assert needed <= modules
    assert modules & (absent | {"dataclasses", "json"}) == set()


def test_json_output_loads_json():
    assert "json" in loaded("census", "--max-perimeter", "8", "--format", "json")


def test_closedform_loads_no_module_of_the_package_but_series():
    modules = fresh(
        "import sys\n"
        "from dcpoly import closedform\n"
        "closedform.directed_series(3)\n"
        "sys.stderr.write(' '.join(sys.modules))\n"
    )
    assert {m for m in modules if m.partition(".")[0] == "dcpoly"} == {
        "dcpoly", "dcpoly.closedform", "dcpoly.series"
    }
    # the column-convex counts and the ratio table are reached through ratios only
    with pytest.raises(AttributeError):
        closedform.ratio_table
