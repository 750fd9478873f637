"""Tests for the verification-suite plumbing.

The identities themselves are covered in depth by the module tests;
here the focus is the reporting contract: suite naming, failure
details, and the all-suites dispatcher.
"""

import re
from fractions import Fraction

import pytest

from dcpoly import brute, cli, closedform, layered, ratios, verify
from dcpoly.series import XSeries

# the defaults live in the command line only
SAMPLES = cli._d_samples(cli.DEFAULT_D_SAMPLES)


def test_unknown_suite_name_rejected():
    with pytest.raises(ValueError):
        verify.run_suites(["bogus"], 12, SAMPLES)


def test_an_unknown_name_is_rejected_before_any_suite_runs(monkeypatch):
    def refuse(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "kernel_suite", refuse)
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run_suites(["kernel", "bogus"], 12, SAMPLES)


def test_run_suites_calls_a_wrapper_installed_on_each_suite(monkeypatch):
    # every suite is looked up as <name>_suite on the module at the call,
    # and all of them take the same (order, d_samples)
    seen = []
    for name in verify.SUITE_NAMES:
        def wrapper(order, d_samples, name=name):
            seen.append((name, order, d_samples))
            return []

        monkeypatch.setattr(verify, name + "_suite", wrapper)
    assert verify.run_suites(["all"], 12, SAMPLES) == []
    assert seen == [(name, 12, SAMPLES) for name in verify.SUITE_NAMES]


def test_failure_reports_first_offending_coefficient():
    bad = XSeries.from_terms({3: Fraction(-1, 2)}, 6)
    result = verify._check("kernel", "demo", verify._series_failure(bad))
    assert not result.passed
    assert "x^3" in result.detail
    assert "-1/2" in result.detail


def test_kernel_suite_passes_where_four_plus_d_squared_is_a_square():
    # 4 + (3/2)^2 = (5/2)^2, so every root is rational; D stays 25
    assert closedform.roots(Fraction(3, 2), 8).disc == 25
    results = verify.kernel_suite(order=16, d_samples=(Fraction(3, 2),))
    assert len(results) == 10
    assert all(r.passed for r in results)


def test_kernel_suite_names_every_check():
    results = verify.kernel_suite(order=10, d_samples=(Fraction(1),))
    assert len(results) == 11
    assert all(r.passed for r in results)
    assert all(r.suite == "kernel" for r in results)
    assert len({r.name for r in results}) == len(results)


def test_kernel_suite_rejects_a_zero_sample():
    with pytest.raises(ValueError):
        verify.kernel_suite(12, (0,))


def test_kernel_suite_rejects_minus_two_naming_the_sample():
    with pytest.raises(ValueError, match=r"d=-2 .*\(d\+2\)\^2"):
        verify.kernel_suite(12, (1, -2))


def test_kernel_suite_builds_the_roots_once_per_sample(monkeypatch):
    # the suite builds the roots and radicals once per sample, and the factors
    # once per sample and once more for the expanded kernel at the integer
    # sample 1, each at its marker d^2
    calls = {"roots": [], "radicals": [], "_kernel_factors": []}
    for name, seen in calls.items():
        real = getattr(closedform, name)

        def counted(d, n, real=real, seen=seen):
            seen.append(d)
            return real(d, n)

        monkeypatch.setattr(closedform, name, counted)
    results = verify.kernel_suite(12, (1, Fraction(1, 2)))
    assert all(r.passed for r in results)
    assert calls == {
        "roots": [1, Fraction(1, 2)],
        "radicals": [1, Fraction(1, 2)],
        "_kernel_factors": [1, Fraction(1, 4), 1],
    }


# (factor, power of z, x-degree) of a coefficient bumped by 1
FACTOR_BUMPS = [("quartic", 2, 12), ("quadratic", 1, 6)]


def _bumped_factor(which, dz, kx):
    """A plant for ``_kernel_factors``: the factors are built in t = x^2,
    where the x^kx coefficient of z^dz sits at t^(kx/2)."""
    def plant(real):
        def bumped(e, n):
            factors = real(e, n)
            coeffs = list(getattr(factors, which))
            coeffs[dz] = coeffs[dz] + XSeries.from_terms({kx // 2: 1}, n)
            return factors._replace(**{which: tuple(coeffs)})

        return bumped

    return plant


@pytest.mark.parametrize("which, dz, kx", FACTOR_BUMPS)
def test_kernel_suite_sees_a_wrong_factor_coefficient_from_its_x_degree(
    monkeypatch, which, dz, kx
):
    # a wrong x^kx coefficient of z^dz shows only from order kx on, so
    # the quartic's x^12 term is what makes the suite's minimum order 12
    real = closedform._kernel_factors
    monkeypatch.setattr(closedform, "_kernel_factors", _bumped_factor(which, dz, kx)(real))
    assert kx <= verify.min_order("kernel")
    assert any(not r.passed for r in verify.kernel_suite(kx, (1,)))
    assert all(r.passed for r in verify.kernel_suite(kx - 1, (1,)))


def test_the_integer_check_reads_numerators_on_their_lam_scale(monkeypatch):
    # t^5 / 3^5 kept as numerator 1 over lam = 3: den alone is 1; the z^1
    # coefficient of the kernel is zero past t^3, so t^5 holds only the plant
    real = closedform.kernel_sextic

    def sextic(d, n):
        coeffs = list(real(d, n))
        coeffs[1] = coeffs[1] + XSeries([0] * 5 + [1], n, 1, 3)
        return coeffs

    monkeypatch.setattr(closedform, "kernel_sextic", sextic)
    assert [r.detail for r in verify.kernel_suite(12, (1,)) if not r.passed] == [
        "first offending coefficient: z^1 x^10 -> 1/243"
    ]


def _bumped_radicand(which):
    """A plant for ``radicals``: the t^5 coefficient of one radicand plus 1."""
    def plant(real):
        def bumped(d, n):
            triple = real(d, n)
            value, radicand = getattr(triple, which)
            radical = closedform.Radical(value, radicand + XSeries.from_terms({5: 1}, n))
            return triple._replace(**{which: radical})

        return bumped

    return plant


def test_a_radicand_bumped_in_t_fails_at_its_x_degree(monkeypatch, capsys):
    # the radicals square back in t = x^2 and the suite names t^k as x^(2k),
    # so a wrong t^5 radicand coefficient is reported at x^10; the odd order
    # 13 runs through t^6, as 12 does, and prints the same line
    monkeypatch.setattr(closedform, "radicals", _bumped_radicand("base")(closedform.radicals))
    for order in ("12", "13"):
        code = cli.main(["verify", "--suite", "kernel", "--order", order])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL [kernel] base radical squares back (d=%s): "
            "first offending coefficient: x^10 -> -1" % d
            for d in cli.DEFAULT_D_SAMPLES.split(",")
        ]


def test_all_dispatch_covers_every_suite():
    results = verify.run_suites(["all"], order=8, d_samples=(Fraction(1),))
    assert {r.suite for r in results} == set(verify.SUITE_NAMES)
    assert all(r.passed for r in results)


def _planted(matching=None, squared=None):
    """``two_nose_identity_residuals`` with either residual replaced."""
    real = layered.two_nose_identity_residuals

    def residuals(order):
        plain, variant = real(order)
        return (
            plain if matching is None else matching,
            variant if squared is None else squared,
        )

    return residuals


def test_twonose_reports_a_planted_term_and_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        layered, "two_nose_identity_residuals", _planted(matching={(3, 12): 5, (2, 10): -7})
    )
    code = cli.main(["verify", "--suite", "twonose", "--order", "20"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines() == [
        "FAIL [twonose] relation holds with the plain marker: "
        "first offending term: d^2 x^10 -> -7",
        "PASS [twonose] squared-marker variant fails as expected",
        "2 checks, 1 failed",
    ]


def test_twonose_fails_when_the_squared_residual_vanishes(monkeypatch):
    monkeypatch.setattr(layered, "two_nose_identity_residuals", _planted(squared={}))
    plain, variant = verify.twonose_suite(20, SAMPLES)
    assert plain.passed
    assert not variant.passed
    assert variant.name == "squared-marker variant fails as expected"
    assert variant.detail == "the variant residual vanished; the convention is not pinned"


def _one_more_single_cell(table):
    table[(4, 1, "none", 1)] += 1
    return table


def _one_more_one_nose_shape(table):
    table[(8, 3, "one", 1)] += 1
    return table


EXHAUSTIVE_PLANTS = [
    (
        "oracle",
        "generate",
        _one_more_single_cell,
        "first differing key (4, 1, none, 1): 1 vs 2",
    ),
    (
        "oracle",
        "generate",
        _one_more_one_nose_shape,
        "first differing key (8, 3, one, 1): 4 vs 5",
    ),
    (
        "columnconvex",
        "column_convex_counts",
        lambda counts: {**counts, 10: counts[10] + 1},
        "first differing perimeter: 10",
    ),
    (
        "directed",
        "directed_counts_by_diagonals",
        lambda counts: {**counts, 3: counts[3] + 1},
        "exhaustive {1: 1, 2: 3, 3: 13, 4: 55, 5: 273, 6: 1428, 7: 7752, 8: 43263, "
        "9: 246675, 10: 1430715, 11: 8414640, 12: 50067108, 13: 300830572, "
        "14: 1822766520, 15: 11124755664} vs fixed point {1: 1, 2: 3, 3: 12, 4: 55, "
        "5: 273, 6: 1428, 7: 7752, 8: 43263, 9: 246675, 10: 1430715, 11: 8414640, "
        "12: 50067108, 13: 300830572, 14: 1822766520, 15: 11124755664}",
    ),
]


@pytest.mark.parametrize(
    "suite, target, plant, detail",
    EXHAUSTIVE_PLANTS,
    ids=("oracle", "oracle-one-nose", "columnconvex", "directed"),
)
def test_exhaustive_suites_report_a_planted_count_and_exit_one(
    monkeypatch, capsys, suite, target, plant, detail
):
    real = getattr(brute, target)
    monkeypatch.setattr(brute, target, lambda bound: plant(real(bound)))
    code = cli.main(["verify", "--suite", suite, "--order", "12"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL [%s] " % suite)
    assert fails[0].endswith(": " + detail)
    assert lines[-1].endswith(" checks, 1 failed")
    assert all(r.passed == (r.detail == "") for r in verify.run_suites([suite], 12, SAMPLES))


def _nested_off_by_half(real):
    def gf(variant, r, order):
        series = real(variant, r, order)
        if variant == "nested":
            series = series + XSeries.from_terms({6: Fraction(1, 2)}, order)
        return series

    return gf


def _fractional_sextic(real):
    # the z^1 coefficient of the kernel is zero past t^3, so t^5 holds only the plant
    def sextic(d, n):
        coeffs = list(real(d, n))
        coeffs[1] = coeffs[1] + XSeries.from_terms({5: Fraction(1, 3)}, n)
        return coeffs

    return sextic


def _top_count_bumped(real):
    def counts(max_perimeter):
        found = real(max_perimeter)
        return {**found, max_perimeter: found[max_perimeter] + 1}

    return counts


def _nested_value_bumped(real):
    # kernel_residuals takes the nested radical at d^2 from _outer_radicals
    def outer(d, n):
        base, nested = real(d, n)
        return base, nested._replace(value=nested.value + XSeries.from_terms({4: 1}, n))

    return outer


# the quartic factor's x^12 z^2 coefficient plus 1 leaves q(0)^2 at x^12 for
# each quartic root q, q(0) = (2 + d^2 -+ d sqrt(4 + d^2))/2, and the sum of
# those two, 2 + d^2, in the z^1 remainder: per sample (rational part A of
# q+(0)^2, its sqrt(D) part B, 2 + d^2)
QUARTIC_BUMP_DETAILS = {
    "1": ("7/2", "-3/2", "3"),
    "1/2": ("49/32", "-9/32", "9/4"),
    "2": ("17", "-6", "6"),
    "3": ("119/2", "-33/2", "11"),
}

def _quartic_b_bumped(real):
    # the quartic roots are a +- b*sqrt(D)
    def bumped(d, n):
        found = real(d, n)
        return found._replace(quartic_b=found.quartic_b + XSeries.from_terms({5: 1}, n))

    return bumped


# b plus t^5 moves the root product a^2 - D b^2 by -2D b(0) t^5, with
# b(0) = -d/(2q) for d = p/q, and the quartic Q at the roots by
# Q'(q) sqrt(D) t^5, where Q'(q(0)) = 2b(0) sqrt(D): its rational part gains
# 2D b(0) t^5, and its sqrt(D) part nothing at t^5; the root sum 2a is
# untouched: per sample (2D b(0), and the reciprocal-sum shift 2D b(0)(2 + d^2))
ROOT_BUMP_DETAILS = {
    "1": ("-5", "-15"),
    "1/2": ("-17/4", "-153/16"),
    "2": ("-16", "-96"),
    "3": ("-39", "-429"),
}

CLOSED_FORM_PLANTS = [
    (
        closedform,
        "ternary_count",
        lambda real: lambda k: real(k) + (k == 5),
        "directed",
        "12",
        [
            "FAIL [directed] fixed point matches the binomial formula through 15: "
            "first offending coefficient: d^5 -> 273, formula 274",
        ],
    ),
    (
        layered,
        "two_nose_identity_residuals",
        lambda real: _planted(squared={(2, 12): 1, (3, 10): -4}),
        "twonose",
        "20",
        [
            "FAIL [twonose] squared-marker variant fails as expected: "
            "variant residual starts at x^10, not x^8",
        ],
    ),
    (
        closedform,
        "kernel_sextic",
        _fractional_sextic,
        "kernel",
        "12",
        [
            "FAIL [kernel] expanded kernel has integer coefficients (d=%s): "
            "first offending coefficient: z^1 x^10 -> 1/3" % d
            for d in (1, 2, 3)
        ],
    ),
    (
        closedform,
        "column_convex_gf",
        _nested_off_by_half,
        "columnconvex",
        "12",
        [
            "FAIL [columnconvex] %s variants agree at r=%s: "
            "first offending coefficient: x^6 -> %s" % (pair, r, c)
            for r in (1, Fraction(1, 2))
            for pair, c in (("ratio and nested", "-1/2"), ("nested and split", "1/2"))
        ],
    ),
    # past the exhaustive cap of 40, only the r = 1 series sees the top count
    (
        ratios,
        "column_convex_perimeter_counts",
        _top_count_bumped,
        "columnconvex",
        "42",
        [
            "FAIL [columnconvex] integer counts match the r=1 series through 42: "
            "first differing perimeter: 42",
        ],
    ),
    (
        closedform,
        "radicals",
        _bumped_radicand("kernel"),
        "kernel",
        "12",
        [
            "FAIL [kernel] kernel radical squares back (d=%s): "
            "first offending coefficient: x^10 -> -1" % d
            for d in SAMPLES
        ],
    ),
    (
        closedform,
        "radicals",
        _bumped_radicand("nested"),
        "kernel",
        "12",
        [
            "FAIL [kernel] nested radical squares back (d=%s): "
            "first offending coefficient: x^10 -> -1" % d
            for d in SAMPLES
        ],
    ),
    (
        closedform,
        "_outer_radicals",
        _nested_value_bumped,
        "kernel",
        "12",
        [
            line
            for d in SAMPLES
            for line in (
                # value^2 - radicand gains 2 value(0) t^4, and value(0) = d + 2
                "FAIL [kernel] nested radical squares back (d=%s): "
                "first offending coefficient: x^8 -> %s" % (d, 2 * (d + 2)),
                "FAIL [kernel] quartic-root sum identity (d=%s): "
                "first offending coefficient: x^4 -> 1/2" % d,
                "FAIL [kernel] quartic-root reciprocal sum identity (d=%s): "
                "first offending coefficient: x^8 -> -1/2" % d,
            )
        ],
    ),
    (
        closedform,
        "_kernel_factors",
        _bumped_factor(*FACTOR_BUMPS[0]),
        "kernel",
        "12",
        [
            "FAIL [kernel] %s (d=%s): first offending coefficient: x^12 -> %s" % (name, d, detail)
            for d, (a, b, s) in QUARTIC_BUMP_DETAILS.items()
            for name, detail in (
                ("quartic roots annihilate their factor, rational part", a),
                ("quartic roots annihilate their factor, sqrt(D) part", b),
                ("series-root quadratic divides the quartic, z^1", s),
                ("series-root quadratic divides the quartic, z^0", "-1"),
            )
        ],
    ),
    (
        closedform,
        "roots",
        _quartic_b_bumped,
        "kernel",
        "12",
        [
            "FAIL [kernel] %s (d=%s): first offending coefficient: x^10 -> %s" % (name, d, detail)
            for d, (shift, reciprocal) in ROOT_BUMP_DETAILS.items()
            for name, detail in (
                ("quartic roots annihilate their factor, rational part", shift),
                ("series-root quadratic divides the quartic, z^0", shift),
                ("quartic-root reciprocal sum identity", reciprocal),
            )
        ],
    ),
    (
        closedform,
        "_kernel_factors",
        _bumped_factor(*FACTOR_BUMPS[1]),
        "kernel",
        "12",
        [
            "FAIL [kernel] quadratic root annihilates its factor (d=%s): "
            "first offending coefficient: x^6 -> 1" % d
            for d in SAMPLES
        ],
    ),
]


@pytest.mark.parametrize(
    "module, target, plant, suite, order, fails",
    CLOSED_FORM_PLANTS,
    ids=(
        "directed-formula", "twonose-variant-start", "kernel-integer", "columnconvex-variants",
        "columnconvex-integer", "kernel-radicand", "nested-radicand", "nested-value",
        "quartic-factor", "quartic-root-b", "quadratic-factor",
    ),
)
def test_planted_closed_form_faults_report_their_detail_and_exit_one(
    monkeypatch, capsys, module, target, plant, suite, order, fails
):
    monkeypatch.setattr(module, target, plant(getattr(module, target)))
    code = cli.main(["verify", "--suite", suite, "--order", order])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] == fails
    assert lines[-1] == "%d checks, %d failed" % (len(lines) - 1, len(fails))
    results = verify.run_suites([suite], int(order), SAMPLES)
    assert sum(not r.passed for r in results) == len(fails)
    assert all(r.passed == (r.detail == "") for r in results)


def test_the_quartic_residual_parts_stay_unfolded_at_a_square_d(monkeypatch, capsys):
    """At d = 3/2 and 21/10, D = 25 and 841 are squares, r^2 with r = 5
    and 29, but the quartic at a +- b*sqrt(D) is still checked as A and B,
    read off the division's remainder r1*z + r0 as A = r1*a + r0 and
    B = r1*b with D unfolded.  The quartic-factor bump leaves q(0)^2 at
    x^12 and 2 + d^2 in the z^1 remainder, and A +- r*B
    are q+(0)^2 and q-(0)^2, the squares of q+(0) = 1/4, q-(0) = 4 at 3/2
    and of q+(0) = 4/25, q-(0) = 25/4 at 21/10."""
    plant = _bumped_factor(*FACTOR_BUMPS[0])
    monkeypatch.setattr(closedform, "_kernel_factors", plant(closedform._kernel_factors))
    code = cli.main(["verify", "--suite", "kernel", "--order", "12", "--d-samples", "3/2,21/10"])
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    samples = (
        ("3/2", 5, "257/32", "-51/32", "17/4", ("1/16", "16")),
        ("21/10", 29, "390881/20000", "-13461/20000", "641/100", ("16/625", "625/16")),
    )
    assert fails == [
        "FAIL [kernel] %s (d=%s): first offending coefficient: x^12 -> %s" % (name, d, detail)
        for d, _, a, b, s, _ in samples
        for name, detail in (
            ("quartic roots annihilate their factor, rational part", a),
            ("quartic roots annihilate their factor, sqrt(D) part", b),
            ("series-root quadratic divides the quartic, z^1", s),
            ("series-root quadratic divides the quartic, z^0", "-1"),
        )
    ]
    for _, r, a, b, _, squares in samples:
        a, b = Fraction(a), Fraction(b)
        assert (a + r * b, a - r * b) == tuple(map(Fraction, squares))


def test_a_check_passes_exactly_when_its_detail_is_empty():
    results = verify.run_suites(["all"], 12, SAMPLES)
    assert len(results) == 54
    assert all(r.passed and r.detail == "" for r in results)



# check families that no planted fault in the code can fail, with the reason
UNFAILABLE = {
    "expanded kernel has integer coefficients": (
        "at integer d every factor coefficient is an integer polynomial in d^2, so only "
        "a fraction added to kernel_sextic's output fails it; it stays while the kernel "
        "benchmark counts its lines"
    ),
}


def _family(name):
    """A check name without its sample label " (d=...)" or ratio label " at r=..."."""
    return re.sub(r" \(d=[^)]*\)| at r=\S+", "", name)


def _plants():
    """(module, target, plant, suite) for every planted fault in this file,
    plant taking the real target and returning its replacement."""
    for suite, target, transform, _ in EXHAUSTIVE_PLANTS:
        yield brute, target, lambda real, t=transform: lambda bound: t(real(bound)), suite
    for module, target, plant, suite, _, _ in CLOSED_FORM_PLANTS:
        yield module, target, plant, suite
    yield closedform, "radicals", _bumped_radicand("base"), "kernel"
    for planted in ({"matching": {(3, 12): 5, (2, 10): -7}}, {"squared": {}}):
        yield layered, "two_nose_identity_residuals", lambda real, p=planted: _planted(**p), "twonose"


def test_every_check_family_has_a_planted_fault_that_fails_it(monkeypatch):
    """Each check of "all" at order 12, its sample and ratio labels
    stripped, is failed by some plant above, so a new check without a
    plant fails here; only the families in UNFAILABLE are exempt."""
    families = {_family(r.name) for r in verify.run_suites(["all"], 12, SAMPLES)}
    assert UNFAILABLE.keys() <= families
    failed = set()
    for module, target, plant, suite in _plants():
        with monkeypatch.context() as patch:
            patch.setattr(module, target, plant(getattr(module, target)))
            results = verify.run_suites([suite], 12, SAMPLES)
        failed |= {_family(r.name) for r in results if not r.passed}
    assert sorted(families - UNFAILABLE.keys() - failed) == []
