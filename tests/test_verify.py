"""Tests for the verification-suite plumbing.

The identities themselves are covered in depth by the module tests;
here the focus is the reporting contract: suite naming, failure
details, and the all-suites dispatcher.
"""

from fractions import Fraction

import pytest

from dcpoly import brute, cli, closedform, layered, verify
from dcpoly.counts import NoseClass
from dcpoly.series import SurdSeries, XSeries

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


def test_failure_in_the_irrational_part_names_both_parts():
    bad = SurdSeries(XSeries.zero(6), XSeries.from_terms({3: Fraction(1, 2)}, 6), 17)
    result = verify._check("kernel", "demo", verify._series_failure(bad))
    assert not result.passed
    assert result.detail == "first offending coefficient: x^3 -> 0 + 1/2*sqrt(17)"


def test_kernel_suite_passes_where_four_plus_d_squared_is_a_square():
    # 4 + (3/2)^2 = (5/2)^2, so every root is rational
    assert closedform.roots(Fraction(3, 2), 8).quartic_plus.disc == 1
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
    # the suite reaches the roots through the t = x^2 level only
    calls = []
    real = closedform._roots

    def counted(d, n):
        calls.append(d)
        return real(d, n)

    monkeypatch.setattr(closedform, "_roots", counted)
    results = verify.kernel_suite(12, (1, Fraction(1, 2)))
    assert all(r.passed for r in results)
    assert len(calls) == 2


@pytest.mark.parametrize("which, dz, kx", [("quartic", 2, 12), ("quadratic", 1, 6)])
def test_kernel_suite_sees_a_wrong_factor_coefficient_from_its_x_degree(
    monkeypatch, which, dz, kx
):
    # a wrong x^kx coefficient of z^dz shows only from order kx on, so
    # the quartic's x^12 term is what makes the suite's minimum order 12;
    # the factors are built in t = x^2, where that term sits at t^(kx/2)
    real = closedform._kernel_factors

    def bumped(d, n):
        factors = real(d, n)
        coeffs = list(getattr(factors, which))
        coeffs[dz] = coeffs[dz] + XSeries.from_terms({kx // 2: 1}, n)
        return factors._replace(**{which: tuple(coeffs)})

    monkeypatch.setattr(closedform, "_kernel_factors", bumped)
    assert kx <= verify.min_order("kernel")
    assert any(not r.passed for r in verify.kernel_suite(kx, (1,)))
    assert all(r.passed for r in verify.kernel_suite(kx - 1, (1,)))


def test_the_integer_check_reads_numerators_on_their_lam_scale(monkeypatch):
    # x^5 / 3^5 kept as numerator 1 over lam = 3: den alone is 1
    real = closedform.kernel_sextic

    def sextic(d, order):
        coeffs = list(real(d, order))
        coeffs[3] = coeffs[3] + XSeries([0] * 5 + [1], order, 1, 3)
        return coeffs

    monkeypatch.setattr(closedform, "kernel_sextic", sextic)
    assert [r.detail for r in verify.kernel_suite(12, (1,)) if not r.passed] == [
        "first offending coefficient: z^3 x^5 -> 1/243"
    ]


def test_a_radicand_bumped_in_t_fails_at_its_x_degree(monkeypatch, capsys):
    # the radicals square back in t = x^2 and are read in x, so a wrong
    # t^5 radicand coefficient is reported at x^10
    real = closedform._radicals

    def bumped(d, n):
        triple = real(d, n)
        base = triple.base
        bump = XSeries.from_terms({5: 1}, n)
        return triple._replace(base=closedform.Radical(base.value, base.radicand + bump))

    monkeypatch.setattr(closedform, "_radicals", bumped)
    code = cli.main(["verify", "--suite", "kernel", "--order", "12"])
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
    table[(4, 1, None, 1)] += 1
    return table


def _one_more_one_nose_shape(table):
    table[(8, 3, NoseClass.ONE, 1)] += 1
    return table


@pytest.mark.parametrize(
    "suite, target, plant, detail",
    [
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
            "exhaustive {1: 1, 2: 3, 3: 13, 4: 55} vs fixed point {1: 1, 2: 3, 3: 12, 4: 55}",
        ),
    ],
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
    # every kernel coefficient sits at an even x-degree, so x^5 holds only the plant
    def sextic(d, order):
        coeffs = list(real(d, order))
        coeffs[3] = coeffs[3] + XSeries.from_terms({5: Fraction(1, 3)}, order)
        return coeffs

    return sextic


@pytest.mark.parametrize(
    "module, target, plant, suite, order, fails",
    [
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
                "first offending coefficient: z^3 x^5 -> 1/3" % d
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
    ],
    ids=("directed-formula", "twonose-variant-start", "kernel-integer", "columnconvex-variants"),
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


def test_a_check_passes_exactly_when_its_detail_is_empty():
    results = verify.run_suites(["all"], 12, SAMPLES)
    assert len(results) == 53
    assert all(r.passed and r.detail == "" for r in results)

