"""Command-line front end for the enumeration engines.

Four subcommands cover the package surface:

* ``series``  - counts from the layered functional-equation iteration,
  by perimeter alone or refined by diagonals or nose class;
* ``census``  - the same numbers from the exhaustive generator, with an
  optional full four-statistic breakdown;
* ``ratios``  - the column-convex to diagonally-convex comparison table;
* ``verify``  - the named identity suites, one PASS/FAIL line per check.

Every output is deterministic for a given set of flags: census and
series rows come in sorted key order, a nose sorting by its label, and
files are written to a temporary name and renamed into place so a
failure never leaves a partial file behind; a symlink is written
through, as ``>`` would.  Exit codes: 0 on success, 1 when a
verification check fails, 2 on usage errors, on an ``--out`` path that
cannot be written and on a ``ValueError``, ``ArithmeticError`` or
``RuntimeError`` from an engine, reported as one line on stderr.

A subcommand imports only its engine (``ratios`` the integer ``ratios``
module and the layered iteration, no closed-form algebra): the handlers
import it, and ``json``, ``tempfile`` and ``fractions`` load only on the
paths that use them (``python -X importtime -m dcpoly.cli <sub> --help``
shows it).
The ``verify`` defaults live only here; ``SUITE_NAMES``, the one copy
of ``verify``'s suite names, is pinned equal to them by a test.
"""

import argparse
import os
import stat
import sys

FORMATS = ("table", "csv", "json", "bfile")

SERIES_FIELDS = {
    "perimeter": ("perimeter",),
    "diagonals": ("perimeter", "diagonals"),
    "noses": ("perimeter", "nose"),
}

SUITE_NAMES = ("kernel", "twonose", "fixedd", "columnconvex", "directed", "oracle")
DEFAULT_ORDER = 40
DEFAULT_D_SAMPLES = "1,1/2,2,3"


def _even_perimeter(minimum):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not an integer" % (text,))
        if value < minimum or value % 2:
            raise argparse.ArgumentTypeError(
                "perimeter bound must be an even integer of at least %d" % minimum
            )
        return value

    return parse


def _d_samples(text):
    from fractions import Fraction
    try:
        values = tuple(
            Fraction(token.strip()) for token in text.split(",") if token.strip()
        )
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "samples must be comma-separated rationals such as 1,1/2,2,3"
        )
    if not values:
        raise argparse.ArgumentTypeError("at least one sample is required")
    if 0 in values:
        raise argparse.ArgumentTypeError(
            "samples must be nonzero: at d=0 every series root of the kernel is z=1"
        )
    if -2 in values:
        raise argparse.ArgumentTypeError(
            "samples must not be -2: the nested radicand's constant term (d+2)^2 vanishes there"
        )
    return values


def write_text(text, path):
    """Print to stdout, or write the file atomically via a rename, with
    the permission bits ``open(path, "w")`` would leave; a symlink is
    resolved first, so the text lands in its target."""
    if path is None:
        sys.stdout.write(text)
        return
    import tempfile
    path = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(path)
    handle, tmp = tempfile.mkstemp(dir=directory, prefix=".dcpoly.")
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def parse_bfile(text):
    """Counts keyed by perimeter from ``--format bfile`` text, one
    ``n count`` line each; rejects malformed lines."""
    counts = {}
    for line in text.splitlines():
        n_text, _, count_text = line.partition(" ")
        if not count_text or " " in count_text:
            raise ValueError("b-file lines carry exactly two fields: %r" % (line,))
        counts[int(n_text)] = int(count_text)
    return counts


def _lines(sep, rows):
    """One ``sep``-joined line per row of text cells."""
    return "".join(sep.join(row) + "\n" for row in rows)


def _render_table(header, rows):
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return _lines("  ", ([cell.rjust(w) for cell, w in zip(row, widths)]
                         for row in [header] + rows))


def _emit_census(args, projected, fields):
    """Census counts keyed by ``fields`` in ``args.format``, one row per
    key in ``sorted()`` order (a nose is its label, see ``counts``); a
    scalar key renders as a one-field row."""
    if args.format == "bfile" and fields != ("perimeter",):
        args.command_parser.error("bfile output needs plain perimeter keys")
    rows = [
        (tuple(map(str, key if type(key) is tuple else (key,))), count)
        for key, count in sorted(projected.items())
    ]
    if args.format == "json":
        import json
        root = {}
        for key, count in rows:
            node = root
            for part in key[:-1]:
                node = node.setdefault(part, {})
            node[key[-1]] = count
        return json.dumps(root, indent=2) + "\n", 0
    if args.format == "table":
        body = [[*key, str(count)] for key, count in rows]
        return _render_table(list(fields) + ["count"], body), 0
    body = [("/".join(key), str(count)) for key, count in rows]
    if args.format == "csv":
        return _lines(",", [("key", "count")] + body), 0
    return _lines(" ", body), 0


def _cmd_series(args):
    from . import layered
    counts = layered.marginals(args.max_perimeter, args.by)
    return _emit_census(args, counts, SERIES_FIELDS[args.by])


def _cmd_census(args):
    from . import brute
    table = brute.generate(args.max_perimeter)
    fields = table.FIELDS if args.classify else ("perimeter",)
    return _emit_census(args, table.project(*fields), fields)


def _cmd_ratios(args):
    from . import ratios
    rows = ratios.ratio_table(args.max_perimeter)
    if args.format == "json":
        import json
        return json.dumps([row._asdict() for row in rows], indent=2) + "\n", 0
    header = list(ratios.RatioRow._fields)
    body = [list(map(str, row)) for row in rows]
    if args.format == "csv":
        return _lines(",", [header] + body), 0
    return _render_table(header, body), 0


def _cmd_verify(args):
    from . import verify
    minimum = verify.min_order(args.suite)
    if args.order < minimum:
        args.command_parser.error(
            "suite %s needs --order of at least %d" % (args.suite, minimum)
        )
    results = verify.run_suites([args.suite], args.order, args.d_samples)
    lines = [
        "%s [%s] %s%s" % ("PASS" if r.passed else "FAIL", r.suite, r.name,
                          ": " + r.detail if r.detail else "")
        for r in results
    ]
    failed = sum(not r.passed for r in results)
    lines.append("%d checks, %d failed" % (len(results), failed))
    return "".join(line + "\n" for line in lines), 1 if failed else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dcpoly",
        description="Exact perimeter enumeration of diagonally convex polyominoes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    series = commands.add_parser(
        "series",
        help="counts from the layered functional-equation iteration",
    )
    series.add_argument(
        "--max-perimeter",
        type=_even_perimeter(4),
        default=40,
        help="largest perimeter to report (even, default 40)",
    )
    series.add_argument(
        "--by",
        choices=sorted(SERIES_FIELDS),
        default="perimeter",
        help="statistic layout of the table (default perimeter)",
    )
    series.set_defaults(handler=_cmd_series, command_parser=series)

    census = commands.add_parser(
        "census",
        help="counts from the exhaustive shape generator",
    )
    census.add_argument(
        "--max-perimeter",
        type=_even_perimeter(4),
        default=16,
        help="largest perimeter to generate (even, default 16)",
    )
    census.add_argument(
        "--classify",
        action="store_true",
        help="break counts down by diagonals, nose class, and last run",
    )
    census.set_defaults(handler=_cmd_census, command_parser=census)

    ratios = commands.add_parser(
        "ratios",
        help="column-convex versus diagonally convex count ratios",
    )
    ratios.add_argument(
        "--max-perimeter",
        type=_even_perimeter(14),
        default=40,
        help="largest perimeter row (even, at least 14, default 40)",
    )
    ratios.set_defaults(handler=_cmd_ratios, command_parser=ratios)

    check = commands.add_parser(
        "verify",
        help="run the cross-route identity suites",
    )
    check.add_argument(
        "--suite",
        choices=SUITE_NAMES + ("all",),
        default="all",
        help="which suite to run (default all)",
    )
    check.add_argument(
        "--order",
        type=int,
        default=DEFAULT_ORDER,
        help="truncation order for the algebraic suites; the exhaustive"
        " cross-checks cap their perimeter at 40 (default %(default)s)",
    )
    check.add_argument(
        "--d-samples",
        type=_d_samples,
        default=DEFAULT_D_SAMPLES,
        help="comma-separated rational samples for the diagonal marker"
        " (default %(default)s)",
    )
    check.set_defaults(handler=_cmd_verify, command_parser=check)

    for sub in (series, census, ratios):
        sub.add_argument(
            "--format",
            choices=FORMATS if sub is not ratios else ("table", "csv", "json"),
            default="table",
            help="output format (default table)",
        )
    for sub in (series, census, ratios, check):
        sub.add_argument(
            "--out",
            default=None,
            help="write to this file instead of stdout (atomic rename)",
        )
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value such as -1/2,3 or -.5,2 after a space as an option,
    # not as the value of --d-samples or a prefix of it, so it is joined to its flag
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1 : i + 1]
        negative = value[:1] == "-" and value[1:].removeprefix(".")[:1].isdigit()
        if negative and len(flag) > 2 and "--d-samples".startswith(flag):
            argv[i - 1 : i + 1] = ["--d-samples=" + value]
    args = _build_parser().parse_args(argv)
    # the bases of the engines' errors (InvariantError is a RuntimeError),
    # so no engine is imported here
    try:
        text, code = args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        args.command_parser.exit(2, "%s: error: %s: %s\n" % (
            args.command_parser.prog, type(exc).__name__, exc))
    try:
        write_text(text, args.out)
    except OSError as exc:
        if args.out is None:
            raise
        args.command_parser.exit(2, "%s: error: cannot write %s: %s\n" % (
            args.command_parser.prog, args.out, exc.strerror or exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
