"""Cross-route verification suites.

Every number this package publishes can be produced at least two
independent ways: the layered functional-equation iteration, the
exhaustive cell-level generator, and the closed-form algebra.  Each
suite here replays one family of identities connecting the routes and
reports a named pass or fail per check, with the first offending
coefficient or table key spelled out on failure.  The suites are pure
functions; nothing is cached between calls.

A suite ``<name>_suite(order, d_samples)`` is a generator of (check
name, failure) pairs, failure None or the nonempty detail of what went
wrong; ``_suite`` maps ``<name>`` to its least order in ``SUITES``, the
only list of suites.  ``run_suites`` looks ``<name>_suite`` up on this
module as it runs it, so a wrapper installed here sees every call.
"""

import functools
from fractions import Fraction
from typing import NamedTuple

# the suites that walk shapes, solve or count import brute, layered, counts and
# ratios: kernel loads none of them
from . import closedform

# perimeter bound of the exhaustive cross-checks: the published range
ORACLE_PERIMETER_CAP = 40

# depths of the directed suite, which is exact arithmetic at any order
DIRECTED_FORMULA_DEPTH = 15
DIRECTED_EXHAUSTIVE_DEPTH = 4

# one check name per field of closedform.KernelResiduals, in field order
KERNEL_RESIDUAL_CHECKS = (
    "quadratic root annihilates its factor",
    "quartic root (+) annihilates its factor",
    "quartic root (-) annihilates its factor",
    "series-root quadratic divides the quartic, z^1",
    "series-root quadratic divides the quartic, z^0",
    "quartic-root sum identity",
    "quartic-root reciprocal sum identity",
)


class CheckResult(NamedTuple):
    """Outcome of one named check inside a suite."""

    suite: str
    name: str
    passed: bool
    detail: str


# suite name -> the smallest order at which all its checks can hold, or
# can catch a wrong coefficient, in report order
SUITES = {}


def _check(suite, name, failure=None):
    """The one constructor of a ``CheckResult``: the check passes exactly
    when ``failure`` is None, and a failure is its nonempty detail."""
    if failure == "":
        raise ValueError("check %r failed without a detail" % (name,))
    return CheckResult(suite, name, failure is None, failure or "")


def _suite(least_order):
    """Register the decorated generator ``<name>_suite`` of (check name,
    failure) pairs as suite ``<name>`` with its least order; called, it
    returns its checks as ``CheckResult``s."""

    def register(checks):
        name = checks.__name__.removesuffix("_suite")

        @functools.wraps(checks)
        def suite(order, d_samples):
            return [_check(name, check, failure) for check, failure in checks(order, d_samples)]

        SUITES[name] = least_order
        return suite

    return register


def _series_failure(series):
    """The first nonzero coefficient of a series that must vanish."""
    v = series.valuation()
    if v is None:
        return None
    return "first offending coefficient: x^%d -> %s" % (v, series.coefficient(v))


def _terms_failure(terms):
    """The first term, in x-order, of a {(d_degree, x_degree): coefficient}
    dict that must be empty."""
    if not terms:
        return None
    kd, kx = min(terms, key=lambda key: (key[1], key[0]))
    return "first offending term: d^%d x^%d -> %s" % (kd, kx, terms[(kd, kx)])


def _table_failure(left, right):
    """The first key at which two census tables differ."""
    from .counts import nose_label, sortable_key
    for key in sorted(left.keys() | right.keys(), key=sortable_key):
        a = left.get(key, 0)
        b = right.get(key, 0)
        if a != b:
            perimeter, diagonals, nose, last_run = key
            return "first differing key (%d, %d, %s, %d): %d vs %d" % (
                perimeter, diagonals, nose_label(nose), last_run, a, b
            )
    return None


# a wrong x^12 coefficient of the quartic kernel factor shows only from order 12
@_suite(12)
def kernel_suite(order, d_samples):
    """Radical, kernel-root, and symmetric-identity checks per sample.

    Each sample gets the three radical checks of
    ``closedform.radical_residuals``, whose squares are taken in
    t = x^2 and read in x, and the seven residuals of
    ``closedform.kernel_residuals``, whose roots are built once per
    sample; each integer sample also gets the integer-coefficient check
    on the expanded kernel, which tests each numerator against its
    den * lam^k and builds a ``Fraction`` only for the first offender.
    That check cannot fail on the factors as written: at integer d
    every factor coefficient is an integer polynomial in d.  A sample
    of 0 or -2 raises ``ValueError``: the kernel has no series roots at
    0, and no nested radical at -2.
    """
    for d in d_samples:
        label = "d=%s" % d
        radicals = closedform.radical_residuals(d, order)
        for radical_name, residual in zip(radicals._fields, radicals):
            yield (
                "%s radical squares back (%s)" % (radical_name, label),
                _series_failure(residual),
            )
        residuals = closedform.kernel_residuals(d, order)
        for name, series in zip(KERNEL_RESIDUAL_CHECKS, residuals):
            yield "%s (%s)" % (name, label), _series_failure(series)
    for d in map(Fraction, d_samples):
        if d.denominator != 1:
            continue
        fractional = (
            "first offending coefficient: z^%d x^%d -> %s" % (dz, kx, series.coefficient(kx))
            for dz, series in enumerate(closedform.kernel_sextic(d, order))
            for kx, c in enumerate(series.nums)
            if c % (series.den * series.lam**kx)
        )
        yield "expanded kernel has integer coefficients (d=%s)" % d, next(fractional, None)


# the squared-marker residual the suite must see first appears at x^8
@_suite(8)
def twonose_suite(order, d_samples):
    """The linear relation among the nose classes, and its convention."""
    from . import layered
    matching, squared = layered.two_nose_identity_residuals(order)
    yield "relation holds with the plain marker", _terms_failure(matching)
    lowest = min((kx for _, kx in squared), default=None)
    if lowest is None:
        failure = "the variant residual vanished; the convention is not pinned"
    elif lowest != 8:
        failure = "variant residual starts at x^%d, not x^8" % lowest
    else:
        failure = None
    yield "squared-marker variant fails as expected", failure


# every column-convex series is zero below x^4
@_suite(4)
def columnconvex_suite(order, d_samples):
    """Equality of the three closed-form variants, plus the generator."""
    from . import brute, ratios
    for r in (Fraction(1), Fraction(1, 2)):
        series = {
            v: closedform.column_convex_gf(v, r, order)
            for v in closedform.CC_VARIANTS
        }
        for left, right in (("ratio", "nested"), ("nested", "split")):
            yield (
                "%s and %s variants agree at r=%s" % (left, right, r),
                _series_failure(series[left] - series[right]),
            )
    bound = min(order, ORACLE_PERIMETER_CAP)
    closed = {
        k: v
        for k, v in ratios.column_convex_perimeter_counts(order).items()
        if k <= bound
    }
    exhaustive = brute.column_convex_counts(bound)
    differing = min(
        (k for k in closed.keys() | exhaustive.keys() if closed.get(k) != exhaustive.get(k)),
        default=None,
    )
    yield (
        "closed form matches the exhaustive generator through %d" % bound,
        None if differing is None else "first differing perimeter: %s" % differing,
    )


@_suite(1)
def directed_suite(order, d_samples):
    """Fixed point, binomial formula, and generator for directed shapes."""
    from . import brute
    series = closedform.directed_series(DIRECTED_FORMULA_DEPTH)
    coefficients = [series.coefficient(k) for k in range(DIRECTED_FORMULA_DEPTH + 1)]
    mismatches = (
        "first offending coefficient: d^%d -> %s, formula %s"
        % (k, coefficients[k], closedform.ternary_count(k))
        for k in range(1, DIRECTED_FORMULA_DEPTH + 1)
        if coefficients[k] != closedform.ternary_count(k)
    )
    yield (
        "fixed point matches the binomial formula through %d" % DIRECTED_FORMULA_DEPTH,
        next(mismatches, None),
    )
    counted = brute.directed_counts_by_diagonals(DIRECTED_EXHAUSTIVE_DEPTH)
    derived = {k: int(coefficients[k]) for k in range(1, DIRECTED_EXHAUSTIVE_DEPTH + 1)}
    yield (
        "exhaustive directed counts match through %d diagonals" % DIRECTED_EXHAUSTIVE_DEPTH,
        None if counted == derived else "exhaustive %s vs fixed point %s" % (counted, derived),
    )


# the layered census needs perimeter 4
@_suite(4)
def oracle_suite(order, d_samples):
    """Layered and exhaustive joint census tables, key for key."""
    from . import brute, layered
    max_perimeter = min(order, ORACLE_PERIMETER_CAP)
    yield (
        "layered and exhaustive censuses agree through perimeter %d" % max_perimeter,
        _table_failure(layered.joint_table(max_perimeter), brute.generate(max_perimeter)),
    )


SUITE_NAMES = tuple(SUITES)


def _expand(name):
    return SUITE_NAMES if name == "all" else (name,)


def min_order(name):
    """The least ``order`` at which the named suite, or each of "all", can pass."""
    return max(SUITES[n] for n in _expand(name))


def run_suites(names, order, d_samples):
    """Run the named suites and return their concatenated results.

    ``order`` is the truncation for the algebraic suites and doubles as
    the perimeter bound for the exhaustive cross-checks, which are
    capped at 40, the published range.  The directed suite has fixed
    depths; it is exact arithmetic either way.  An unknown name raises
    ``ValueError`` before any suite runs.
    """
    wanted = [n for name in names for n in _expand(name)]
    for name in wanted:
        if name not in SUITES:
            raise ValueError("unknown suite %r" % (name,))
    return [r for name in wanted for r in globals()[name + "_suite"](order, d_samples)]
