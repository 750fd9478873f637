"""Cross-route verification suites.

Every number this package publishes can be produced at least two
independent ways: the layered functional-equation iteration, the
exhaustive cell-level generator, and the closed-form algebra.  Each
suite here replays one family of identities connecting the routes and
reports a named pass or fail per check, with the first offending
coefficient or table key spelled out on failure.  The suites are pure
functions; nothing is cached between calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

# the suites that walk shapes import brute, so the kernel suite never loads it
from . import closedform, layered
from .counts import nose_label, sortable_key

SUITE_NAMES = ("kernel", "twonose", "columnconvex", "directed", "oracle")

DEFAULT_D_SAMPLES = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3))

DEFAULT_ORDER = 40

# perimeter bound of the exhaustive cross-checks: the published range
ORACLE_PERIMETER_CAP = 40

# smallest order at which a suite's checks can all hold, or can catch a
# wrong coefficient: the layered census needs perimeter 4, the
# squared-marker residual the twonose suite must see first appears at
# x^8, a wrong coefficient of the quadratic or quartic kernel factor
# shows only once the order reaches its x-degree, which goes up to 12,
# and every column-convex series is zero below x^4
MIN_ORDER = {"kernel": 12, "twonose": 8, "columnconvex": 4, "directed": 1, "oracle": 4}


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


def _series_zero_check(suite, name, series):
    v = series.valuation()
    if v is None:
        return CheckResult(suite, name, True, "")
    return CheckResult(
        suite,
        name,
        False,
        "first offending coefficient: x^%d -> %s" % (v, series.coefficient(v)),
    )


def _series_equal_check(suite, name, left, right):
    return _series_zero_check(suite, name, left - right)


def _terms_zero_check(suite, name, terms):
    """Pass when the {(d_degree, x_degree): coefficient} dict is empty."""
    if not terms:
        return CheckResult(suite, name, True, "")
    kd, kx = min(terms, key=lambda key: (key[1], key[0]))
    return CheckResult(
        suite,
        name,
        False,
        "first offending term: d^%d x^%d -> %s" % (kd, kx, terms[(kd, kx)]),
    )


def _table_equal_check(suite, name, left, right):
    keys = sorted(set(left.counts) | set(right.counts), key=sortable_key)
    for key in keys:
        a = left.counts.get(key, 0)
        b = right.counts.get(key, 0)
        if a != b:
            perimeter, diagonals, nose, last_run = key
            return CheckResult(
                suite,
                name,
                False,
                "first differing key (%d, %d, %s, %d): %d vs %d"
                % (perimeter, diagonals, nose_label(nose), last_run, a, b),
            )
    return CheckResult(suite, name, True, "")


def kernel_suite(order=DEFAULT_ORDER, d_samples=DEFAULT_D_SAMPLES):
    """Radical, kernel-root, and symmetric-identity checks per sample.

    Each sample gets the three radical checks and the seven residuals of
    ``closedform.kernel_residuals``, whose roots are built once per
    sample; each integer sample also gets the integer-coefficient check
    on the expanded kernel.  A sample of 0 or -2 raises ``ValueError``:
    the kernel has no series roots at 0, and no nested radical at -2.
    """
    results = []
    for d in d_samples:
        label = "d=%s" % d
        triple = closedform.radicals(d, order)
        for radical_name, radical in zip(("kernel", "base", "nested"), triple):
            results.append(
                _series_zero_check(
                    "kernel",
                    "%s radical squares back (%s)" % (radical_name, label),
                    radical.value * radical.value - radical.radicand,
                )
            )
        residuals = closedform.kernel_residuals(d, order)
        for name, series in zip(KERNEL_RESIDUAL_CHECKS, residuals):
            results.append(
                _series_zero_check("kernel", "%s (%s)" % (name, label), series)
            )
    for d in d_samples:
        d = Fraction(d)
        if d.denominator != 1:
            continue
        offending = None
        for dz, coeff_series in enumerate(closedform.kernel_sextic(d, order)):
            for kx, c in enumerate(coeff_series.coeff_list()):
                if c.denominator != 1:
                    offending = (dz, kx, c)
                    break
            if offending:
                break
        results.append(
            CheckResult(
                "kernel",
                "expanded kernel has integer coefficients (d=%s)" % d,
                offending is None,
                ""
                if offending is None
                else "first offending coefficient: z^%d x^%d -> %s" % offending,
            )
        )
    return results


def twonose_suite(order=20):
    """The linear relation among the nose classes, and its convention."""
    matching, squared = layered.two_nose_identity_residuals(order)
    results = [
        _terms_zero_check(
            "twonose", "relation holds with the plain marker", matching
        )
    ]
    if not squared:
        results.append(
            CheckResult(
                "twonose",
                "squared-marker variant fails as expected",
                False,
                "the variant residual vanished; the convention is not pinned",
            )
        )
    else:
        lowest = min(kx for _, kx in squared)
        results.append(
            CheckResult(
                "twonose",
                "squared-marker variant fails as expected",
                lowest == 8,
                ""
                if lowest == 8
                else "variant residual starts at x^%d, not x^8" % lowest,
            )
        )
    return results


def columnconvex_suite(order=DEFAULT_ORDER):
    """Equality of the three closed-form variants, plus the generator."""
    from . import brute
    results = []
    for r in (Fraction(1), Fraction(1, 2)):
        series = {
            v: closedform.column_convex_gf(v, r, order)
            for v in closedform.CC_VARIANTS
        }
        for left, right in (("ratio", "nested"), ("nested", "split")):
            results.append(
                _series_equal_check(
                    "columnconvex",
                    "%s and %s variants agree at r=%s" % (left, right, r),
                    series[left],
                    series[right],
                )
            )
    bound = min(order, ORACLE_PERIMETER_CAP)
    closed = {
        k: v
        for k, v in closedform.column_convex_perimeter_counts(order).items()
        if k <= bound
    }
    exhaustive = brute.column_convex_counts(bound)
    results.append(
        CheckResult(
            "columnconvex",
            "closed form matches the exhaustive generator through %d" % bound,
            closed == exhaustive,
            ""
            if closed == exhaustive
            else "first differing perimeter: %s"
            % min(
                (k for k in set(closed) | set(exhaustive)
                 if closed.get(k) != exhaustive.get(k)),
            ),
        )
    )
    return results


def directed_suite(formula_depth=15, exhaustive_depth=4):
    """Fixed point, binomial formula, and generator for directed shapes."""
    from . import brute
    series = closedform.directed_series(formula_depth)
    mismatch = None
    for k in range(1, formula_depth + 1):
        if series.coefficient(k) != closedform.ternary_count(k):
            mismatch = (k, series.coefficient(k), closedform.ternary_count(k))
            break
    results = [
        CheckResult(
            "directed",
            "fixed point matches the binomial formula through %d" % formula_depth,
            mismatch is None,
            ""
            if mismatch is None
            else "first offending coefficient: d^%d -> %s, formula %s" % mismatch,
        )
    ]
    counted = brute.directed_counts_by_diagonals(exhaustive_depth)
    derived = {
        k: int(series.coefficient(k)) for k in range(1, exhaustive_depth + 1)
    }
    results.append(
        CheckResult(
            "directed",
            "exhaustive directed counts match through %d diagonals"
            % exhaustive_depth,
            counted == derived,
            ""
            if counted == derived
            else "exhaustive %s vs fixed point %s" % (counted, derived),
        )
    )
    return results


def oracle_suite(max_perimeter=ORACLE_PERIMETER_CAP):
    """Layered and exhaustive joint census tables, key for key."""
    from . import brute
    expected = layered.joint_table(max_perimeter)
    found = brute.generate(max_perimeter)
    return [
        _table_equal_check(
            "oracle",
            "layered and exhaustive censuses agree through perimeter %d"
            % max_perimeter,
            expected,
            found,
        )
    ]


def min_order(name):
    """The least ``order`` at which the named suite, or each of "all", can pass."""
    return max(MIN_ORDER[n] for n in (SUITE_NAMES if name == "all" else (name,)))


def run_suites(names, order=DEFAULT_ORDER, d_samples=DEFAULT_D_SAMPLES):
    """Run the named suites and return their concatenated results.

    ``order`` is the truncation for the algebraic suites and doubles as
    the perimeter bound for the exhaustive cross-checks, which are
    capped at 40, the published range.  The directed suite has fixed
    depths; it is exact arithmetic either way.
    """
    wanted = []
    for name in names:
        if name == "all":
            wanted.extend(SUITE_NAMES)
        elif name in SUITE_NAMES:
            wanted.append(name)
        else:
            raise ValueError("unknown suite %r" % (name,))
    results = []
    for name in wanted:
        if name == "kernel":
            results.extend(kernel_suite(order, d_samples))
        elif name == "twonose":
            results.extend(twonose_suite(order))
        elif name == "columnconvex":
            results.extend(columnconvex_suite(order))
        elif name == "directed":
            results.extend(directed_suite())
        elif name == "oracle":
            results.extend(oracle_suite(min(order, ORACLE_PERIMETER_CAP)))
    return results
