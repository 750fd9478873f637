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

# the suites that walk shapes, solve or count import brute, layered and ratios:
# kernel loads none of them
from . import closedform

# perimeter bound of the exhaustive cross-checks: the published range
ORACLE_PERIMETER_CAP = 40

# depth of the directed suite, which is exact arithmetic at any order
DIRECTED_DEPTH = 15

# one check name per field of closedform.KernelResiduals, in field order
KERNEL_RESIDUAL_CHECKS = (
    "kernel radical squares back",
    "base radical squares back",
    "nested radical squares back",
    "quadratic root annihilates its factor",
    "kernel radicand is the quadratic factor's discriminant",
    "quartic z^2 coefficient matches shape and swing",
    "nested radicand's rational part matches shape and swing",
    "nested radicand's base part matches shape and swing",
    "series-root quadratic divides the quartic, z^1",
    "series-root quadratic divides the quartic, z^0",
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


def _series_failure(series, step=1):
    """The first nonzero coefficient of a series that must vanish, named by
    its x-degree: index k is x^(step*k), step 2 for a series in t = x^2."""
    v = series.valuation()
    if v is None:
        return None
    return "first offending coefficient: x^%d -> %s" % (step * v, series.coefficient(v))


def _terms_failure(terms):
    """The first term, in x-order, of a {(d_degree, x_degree): coefficient}
    dict that must be empty."""
    if not terms:
        return None
    kd, kx = min(terms, key=lambda key: (key[1], key[0]))
    return "first offending term: d^%d x^%d -> %s" % (kd, kx, terms[(kd, kx)])


def _perimeter_failure(left, right):
    """The first key, a perimeter or a (perimeter, nose) pair, at which two
    dicts of counts differ."""
    differing = min(
        (k for k in left.keys() | right.keys() if left.get(k) != right.get(k)),
        default=None,
    )
    return None if differing is None else "first differing perimeter: %s" % (differing,)


def _table_failure(left, right):
    """The first key at which two census tables differ."""
    for key in sorted(left.keys() | right.keys()):
        a = left.get(key, 0)
        b = right.get(key, 0)
        if a != b:
            return "first differing key (%d, %d, %s, %d): %d vs %d" % (*key, a, b)
    return None


def _integer_failure(series):
    """The first coefficient of a t-series that is no integer, named by its
    x-degree; each numerator is tested against its den * lam^k, and a
    ``Fraction`` is built only for the first offender."""
    fractional = (
        "first offending coefficient: x^%d -> %s" % (2 * k, series.coefficient(k))
        for k, c in enumerate(series.nums)
        if c % (series.den * series.lam**k)
    )
    return next(fractional, None)


# a wrong x^12 coefficient of the quartic kernel factor shows only from order 12
@_suite(12)
def kernel_suite(order, d_samples):
    """Radical, kernel-root and factor identity checks per sample.

    Each sample d gets the ten residuals of ``closedform.kernel_residuals``,
    all at marker d and over Q, and each integer sample also the check
    that the quadratic factor's series root has integer coefficients: at
    integer d it is the sum of C_(k-1) t^(2k-2) b^(1-2k) over k >= 1,
    with b = 1 + t^2 - d t^3.  A sample of 0 or -2 raises ``ValueError``
    before any check runs (see ``closedform.kernel_sample``).  After
    that, an ``ArithmeticError`` or ``ValueError`` from the closed form
    fails every check of its sample with the exception's name and text,
    and the other samples still report.

    The closed form runs in t = x^2 through t^(order // 2), the even
    x-degrees through ``order``; a failing t^k coefficient is reported
    as x^(2k).  The integer checks follow all residual checks.
    """
    n = order // 2
    samples = [closedform.kernel_sample(d) for d in d_samples]
    integer_checks = []
    for d in samples:
        names = ["%s (d=%s)" % (name, d) for name in KERNEL_RESIDUAL_CHECKS]
        integral = d.denominator == 1
        try:
            failures = [_series_failure(s, 2) for s in closedform.kernel_residuals(d, n)]
            if integral:
                integer_failure = _integer_failure(closedform._quadratic_root(d, n))
        except (ArithmeticError, ValueError) as error:
            failures = ["raised %s: %s" % (type(error).__name__, error)] * len(names)
            integer_failure = failures[0]
        yield from zip(names, failures, strict=True)
        if integral:
            integer_checks.append(
                ("quadratic root has integer coefficients (d=%s)" % d, integer_failure)
            )
    yield from integer_checks


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


# the fixed-d solve and the stream start at perimeter 4
@_suite(4)
def fixedd_suite(order, d_samples):
    """The fixed-d solve against the delta stream: by perimeter at d = 1 and
    at each sample, the stream's counts by diagonals weighted by d^k, and by
    nose class at d = 1, the stream's summed over k."""
    from . import layered
    diagonals = layered.marginals(order, "diagonals")
    for d in dict.fromkeys((1, *d_samples)):
        weighted = dict.fromkeys(range(4, order + 1, 2), 0)
        for (kx, k), v in diagonals.items():
            weighted[kx] += v * d**k
        name = "fixed-d counts match the stream by diagonals through %d (d=%s)" % (order, d)
        yield name, _perimeter_failure(layered.perimeter_counts(order, d), weighted)
    stream = {(4, "none"): 1}
    for cls, counts in layered._grouped(order, lambda k, cls: cls).items():
        stream.update(((kx, cls), v) for kx, v in counts.items())
    name = "fixed-d nose classes match the stream's through %d" % order
    yield name, _perimeter_failure(layered.marginals(order, "noses"), stream)


# every column-convex series is zero below x^4
@_suite(4)
def columnconvex_suite(order, d_samples):
    """Equality of the three closed-form variants, and of the integer
    counts with the r = 1 series and with the generator."""
    from . import brute, ratios
    series = {
        r: {v: closedform.column_convex_gf(v, r, order) for v in closedform.CC_VARIANTS}
        for r in (Fraction(1), Fraction(1, 2))
    }
    for r, forms in series.items():
        for left, right in (("ratio", "nested"), ("nested", "split")):
            yield (
                "%s and %s variants agree at r=%s" % (left, right, r),
                _series_failure(forms[left] - forms[right]),
            )
    counts = ratios.column_convex_perimeter_counts(order)
    at_one = {k: c for k, c in enumerate(series[1]["split"].coeff_list()) if c}
    yield (
        "integer counts match the r=1 series through %d" % order,
        _perimeter_failure(counts, at_one),
    )
    bound = min(order, ORACLE_PERIMETER_CAP)
    yield (
        "closed form matches the exhaustive generator through %d" % bound,
        _perimeter_failure(
            {k: v for k, v in counts.items() if k <= bound}, brute.column_convex_counts(bound)
        ),
    )


@_suite(1)
def directed_suite(order, d_samples):
    """Fixed point against the binomial formula and against the exhaustive
    walk, both through ``DIRECTED_DEPTH`` diagonals."""
    from . import brute
    series = closedform.directed_series(DIRECTED_DEPTH)
    coefficients = [series.coefficient(k) for k in range(DIRECTED_DEPTH + 1)]
    mismatches = (
        "first offending coefficient: d^%d -> %s, formula %s"
        % (k, coefficients[k], closedform.ternary_count(k))
        for k in range(1, DIRECTED_DEPTH + 1)
        if coefficients[k] != closedform.ternary_count(k)
    )
    yield (
        "fixed point matches the binomial formula through %d" % DIRECTED_DEPTH,
        next(mismatches, None),
    )
    counted = brute.directed_counts_by_diagonals(DIRECTED_DEPTH)
    derived = {k: int(coefficients[k]) for k in range(1, DIRECTED_DEPTH + 1)}
    yield (
        "exhaustive directed counts match through %d diagonals" % DIRECTED_DEPTH,
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
    capped at 40, the published range.  The directed suite has a fixed
    depth; it is exact arithmetic either way.  An unknown name raises
    ``ValueError`` before any suite runs.
    """
    wanted = [n for name in names for n in _expand(name)]
    for name in wanted:
        if name not in SUITES:
            raise ValueError("unknown suite %r" % (name,))
    return [r for name in wanted for r in globals()[name + "_suite"](order, d_samples)]
