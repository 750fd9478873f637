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


def test_kernel_suite_names_every_check():
    results = verify.kernel_suite(order=10, d_samples=(Fraction(1),))
    assert len(results) == 11
    assert all(r.passed for r in results)
    assert all(r.suite == "kernel" for r in results)
    assert len({r.name for r in results}) == len(results)


def test_kernel_suite_rejects_a_zero_sample():
    with pytest.raises(ValueError, match=r"d=0 .* every series root is z=1$"):
        verify.kernel_suite(12, (1, 0))


def test_kernel_suite_rejects_minus_two_naming_the_sample():
    with pytest.raises(ValueError, match=r"d=-2 .*\(d\+2\)\^2"):
        verify.kernel_suite(12, (1, -2))


def test_kernel_suite_builds_the_roots_once_per_sample(monkeypatch):
    # the suite builds the radicals and the roots once per sample, each at
    # the marker d itself, the radicals at t-order 12 // 2 + 2, where the
    # roots read them; the public roots, which builds radicals of its own,
    # is not called
    calls = {"roots": [], "_roots": [], "radicals": []}
    for name, seen in calls.items():
        real = getattr(closedform, name)

        def counted(d, n, *rest, real=real, seen=seen):
            seen.append((d, n))
            return real(d, n, *rest)

        monkeypatch.setattr(closedform, name, counted)
    sqrt_calls = []
    real_sqrt = XSeries.sqrt
    monkeypatch.setattr(XSeries, "sqrt", lambda s: sqrt_calls.append(s.order) or real_sqrt(s))
    results = verify.kernel_suite(12, (1, Fraction(1, 2)))
    assert all(r.passed for r in results)
    assert calls == {
        "roots": [],
        "_roots": [(1, 6), (Fraction(1, 2), 6)],
        "radicals": [(1, 8), (Fraction(1, 2), 8)],
    }
    # three radicals per sample; the integer check at d = 1 reads the same kernel radical
    assert sqrt_calls == [8, 8, 8, 8, 8, 8]


def _bumped(t, e=0, z=None):
    """A plant for a kernel table of ``closedform``: its t^t e^e entry
    plus 1, in the z^z coefficient of a factor if ``z`` is given.  The
    tables are in t = x^2, so the entry is the x^(2t) coefficient."""
    def bump(poly):
        rows = {k: dict(row) for k, row in poly.items()}
        row = rows.setdefault(t, {})
        row[e] = row.get(e, 0) + 1
        return rows

    if z is None:
        return bump
    return lambda factor: (*factor[:z], bump(factor[z]), *factor[z + 1 :])


# (factor, power of z, x-degree) of a coefficient bumped by 1; b is read
# off the quadratic's z^1 coefficient, so a bump there moves the root and
# shows two degrees below its own, and the z^2 coefficient stands in
FACTOR_BUMPS = [("quartic", 2, 12), ("quadratic", 2, 6)]


@pytest.mark.parametrize("which, dz, kx", FACTOR_BUMPS)
def test_kernel_suite_sees_a_wrong_factor_coefficient_from_its_x_degree(
    monkeypatch, which, dz, kx
):
    # a wrong x^kx coefficient of z^dz shows only from order kx on, so
    # the quartic's x^12 term is what makes the suite's minimum order 12
    name = "_" + which.upper()
    monkeypatch.setattr(closedform, name, _bumped(kx // 2, z=dz)(getattr(closedform, name)))
    assert kx <= verify.min_order("kernel")
    assert any(not r.passed for r in verify.kernel_suite(kx, (1,)))
    assert all(r.passed for r in verify.kernel_suite(kx - 1, (1,)))


def _fractional_root(real):
    # t^5 / 3^5 kept as numerator 1 over lam = 3: den alone is 1
    return lambda d, n, *kernel: real(d, n, *kernel) + XSeries([0] * 5 + [1], n, 1, 3)


def test_the_integer_check_reads_numerators_on_their_lam_scale(monkeypatch):
    # the root's t^5 coefficient at d = 1 is 1, and the plant makes it 244/243;
    # the quadratic factor at the root moves by -1/243, its z-derivative at t = 0
    monkeypatch.setattr(
        closedform, "_quadratic_root", _fractional_root(closedform._quadratic_root)
    )
    assert [r.detail for r in verify.kernel_suite(12, (1,)) if not r.passed] == [
        "first offending coefficient: x^10 -> -1/243",
        "first offending coefficient: x^10 -> 244/243",
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
    # the base radicand also enters the nested radicand's base-part identity
    # as -4 c^2 base, c(0) = 2
    monkeypatch.setattr(closedform, "radicals", _bumped_radicand("base")(closedform.radicals))
    for order in ("12", "13"):
        code = cli.main(["verify", "--suite", "kernel", "--order", order])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in lines if line.startswith("FAIL")] == [
            line
            for d in cli.DEFAULT_D_SAMPLES.split(",")
            for line in (
                "FAIL [kernel] base radical squares back (d=%s): "
                "first offending coefficient: x^10 -> -1" % d,
                "FAIL [kernel] nested radicand's base part matches shape and swing (d=%s): "
                "first offending coefficient: x^10 -> -16" % d,
            )
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


def _top_count_bumped(real):
    def counts(max_perimeter):
        found = real(max_perimeter)
        return {**found, max_perimeter: found[max_perimeter] + 1}

    return counts


def _nested_value_bumped(real):
    # roots reads the nested radical N off radicals, at t-order n + 2
    def bumped(d, n):
        triple = real(d, n)
        value = triple.nested.value + XSeries.from_terms({4: 1}, n)
        return triple._replace(nested=triple.nested._replace(value=value))

    return bumped


def _product_bumped(real):
    def bumped(d, n, high):
        found = real(d, n, high)
        return found._replace(quartic_product=found.quartic_product + XSeries.from_terms({5: 1}, n))

    return bumped


def _nested_shift_remainders(d):
    """The remainder lines when N moves by t^5/(2 N(0)), N(0) = 2 + d: the
    root sum s by ds = -t^3/(4(2 + d)) and the product p by ds/(2 + d); at
    t = 0 the divisor is the whole quartic, so the remainder moves by
    ds z - dp."""
    ds = -1 / (8 + 4 * d)
    return (
        ("series-root quadratic divides the quartic, z^1", "x^6 -> %s" % ds),
        ("series-root quadratic divides the quartic, z^0", "x^6 -> %s" % (-ds / (2 + d))),
    )


def _kernel_fails(lines_per_sample):
    """The FAIL lines of a kernel plant at the default samples, given
    each sample's (check, "x^k -> c") pairs."""
    return [
        "FAIL [kernel] %s (d=%s): first offending coefficient: %s" % (name, d, detail)
        for d in SAMPLES
        for name, detail in lines_per_sample(d)
    ]


def _coefficient_bumped(cls, index):
    """A plant for ``layered._CONSTANT`` (index None) or ``_EQUATION``: the
    coefficient of one term of class ``cls`` plus 1."""
    def plant(table):
        if index is None:
            c, *rest = table[cls]
            return {**table, cls: (c + 1, *rest)}
        terms = list(table[cls])
        terms[index] = (terms[index][0] + 1, *terms[index][1:])
        return {**table, cls: tuple(terms)}

    return plant


def _unpack_bumped(real):
    """The packed solve with an unpack that reads one more shape of three
    diagonals from every int of perimeter 8, t^4."""
    def packed(order):
        for n, rows, unpack in real(order):
            def bumped(v, n=n, unpack=unpack):
                counts = unpack(v)
                if n == 4:
                    counts[3] = counts.get(3, 0) + 1
                return counts

            yield n, rows, bumped

    return packed


def _scaling_bumped(real):
    """The solve at a number d multiplying by d + 1 where it means d."""
    return lambda d, v: real(d + 1, v)


def _fixedd_fails(perimeter, cls):
    return [
        "FAIL [fixedd] fixed-d counts match the packed counts by diagonals through 12 (d=%s): "
        "first differing perimeter: %d" % (d, perimeter)
        for d in SAMPLES
    ] + [
        "FAIL [fixedd] fixed-d nose classes match the packed solve's through 12: "
        "first differing perimeter: (%d, '%s')" % (perimeter, cls)
    ]


CLOSED_FORM_PLANTS = [
    # at d + 1, the one-nose constant 2d^2 t^3 z K moves perimeter 6
    (layered, "mul", _scaling_bumped, "fixedd", "12", _fixedd_fails(6, "one")),
    (layered, "_packed", _unpack_bumped, "fixedd", "12", _fixedd_fails(8, "one")),
    # the first one-nose term, 2 t z K T1A, as 3 t z K T1A: the first count
    # it moves is d^3 at perimeter 10, from A's d^2 t^4 z^2, one final cell
    (
        layered,
        "_EQUATION",
        _coefficient_bumped("one", 0),
        "oracle",
        "12",
        [
            "FAIL [oracle] layered and exhaustive censuses agree through perimeter 12: "
            "first differing key (10, 3, one, 1): 5 vs 4",
        ],
    ),
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
        "_quadratic_root",
        _fractional_root,
        "kernel",
        "12",
        [
            "FAIL [kernel] quadratic root annihilates its factor (d=%s): "
            "first offending coefficient: x^10 -> -1/243" % d
            for d in SAMPLES
        ]
        + [
            "FAIL [kernel] quadratic root has integer coefficients (d=%s): "
            "first offending coefficient: x^10 -> %d/243" % (d, 243 * d + 1)
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
        _kernel_fails(
            lambda d: (
                ("kernel radical squares back", "x^10 -> -1"),
                ("kernel radicand is the quadratic factor's discriminant", "x^10 -> 1"),
            )
        ),
    ),
    (
        closedform,
        "radicals",
        _bumped_radicand("nested"),
        "kernel",
        "12",
        _kernel_fails(lambda d: (("nested radical squares back", "x^10 -> -1"),)),
    ),
    # the root of the bumped radicand moves by t^5/2 at t^5, so the quadratic
    # root moves by -t^3/4 and its factor there by 1/4, the root's t^3
    # coefficient d by -1/4
    (
        closedform,
        "_KERNEL_RADICAND",
        _bumped(5),
        "kernel",
        "12",
        _kernel_fails(
            lambda d: (
                ("quadratic root annihilates its factor", "x^6 -> 1/4"),
                ("kernel radicand is the quadratic factor's discriminant", "x^10 -> 1"),
            )
        )
        + [
            "FAIL [kernel] quadratic root has integer coefficients (d=%s): "
            "first offending coefficient: x^6 -> %d/4" % (d, 4 * d - 1)
            for d in (1, 2, 3)
        ],
    ),
    # swing^2 plus t^5 leaves 2(shape^2 + swing^2)(0) - 4 shape(0)^2 = -8 in the
    # base-part identity at every d
    (
        closedform,
        "_SWING_SQUARED",
        _bumped(5),
        "kernel",
        "12",
        _kernel_fails(
            lambda d: (
                ("quartic z^2 coefficient matches shape and swing", "x^10 -> 1"),
                ("nested radicand's rational part matches shape and swing", "x^10 -> -1"),
                ("nested radicand's base part matches shape and swing", "x^10 -> -8"),
            )
        ),
    ),
    # N0 plus t^5 moves N by t^5/(2 N(0))
    (
        closedform,
        "_NESTED_RATIONAL",
        _bumped(5),
        "kernel",
        "12",
        _kernel_fails(
            lambda d: (
                ("nested radicand's rational part matches shape and swing", "x^10 -> 2"),
                *_nested_shift_remainders(d),
            )
        ),
    ),
    # c plus t^5: the base-part identity loses 4 * 2c(0) * base(0) t^5 = 16 t^5,
    # and N moves by t^5/(2 N(0)) as above
    (
        closedform,
        "_NESTED_COEFFICIENT",
        _bumped(5),
        "kernel",
        "12",
        _kernel_fails(
            lambda d: (
                ("nested radicand's base part matches shape and swing", "x^10 -> -16"),
                *_nested_shift_remainders(d),
            )
        ),
    ),
    # N plus t^4: in the radicals value^2 - radicand gains 2 N(0) t^4 = 2(d + 2) t^4,
    # and in roots s moves by ds = -t^2/2 and p by ds/(2 + d)
    (
        closedform,
        "radicals",
        _nested_value_bumped,
        "kernel",
        "12",
        _kernel_fails(
            lambda d: (
                ("nested radical squares back", "x^8 -> %s" % (2 * (d + 2))),
                ("series-root quadratic divides the quartic, z^1", "x^4 -> -1/2"),
                ("series-root quadratic divides the quartic, z^0", "x^4 -> %s" % (1 / (2 + d) / 2)),
            )
        ),
    ),
    # Q4[2] plus t^6 adds t^6 z^2 = t^6 (s z - p) modulo z^2 - s z + p, and
    # s(0) = 2 + d, p(0) = 1
    (
        closedform,
        "_QUARTIC",
        _bumped(6, z=2),
        "kernel",
        "12",
        _kernel_fails(
            lambda d: (
                ("quartic z^2 coefficient matches shape and swing", "x^12 -> 4"),
                ("series-root quadratic divides the quartic, z^1", "x^12 -> %s" % (2 + d)),
                ("series-root quadratic divides the quartic, z^0", "x^12 -> -1"),
            )
        ),
    ),
    # p plus t^5 adds -t^5 to the z^0 remainder and nothing to z^1 at t^5
    (
        closedform,
        "_roots",
        _product_bumped,
        "kernel",
        "12",
        _kernel_fails(
            lambda d: (("series-root quadratic divides the quartic, z^0", "x^10 -> -1"),)
        ),
    ),
    # Q2[1] plus t^3 is b' = b - t^3, and the root, read off b' and the
    # kernel radical, moves to r' = r - t/2; the factor at it is
    # 1 - b' r' + t^2 r'^2 = b t/2 - t^4/4, so t/2 first, the root's t^1
    # coefficient -1/2, and the discriminant K - (b'^2 - 4t^2) = b^2 - b'^2
    # = t^3 (2b - t^3), so 2 t^3
    (
        closedform,
        "_QUADRATIC",
        _bumped(3, z=1),
        "kernel",
        "12",
        _kernel_fails(
            lambda d: (
                ("quadratic root annihilates its factor", "x^2 -> 1/2"),
                ("kernel radicand is the quadratic factor's discriminant", "x^6 -> 2"),
            )
        )
        + [
            "FAIL [kernel] quadratic root has integer coefficients (d=%s): "
            "first offending coefficient: x^2 -> -1/2" % d
            for d in (1, 2, 3)
        ],
    ),
]


@pytest.mark.parametrize(
    "module, target, plant, suite, order, fails",
    CLOSED_FORM_PLANTS,
    ids=(
        "fixedd-equation", "fixedd-stream", "oracle-equation", "directed-formula",
        "twonose-variant-start", "kernel-integer", "columnconvex-variants",
        "columnconvex-integer", "kernel-radicand", "nested-radicand", "kernel-radicand-literal",
        "swing", "nested-rational", "nested-coefficient", "nested-value", "quartic-factor",
        "quartic-root-product", "quadratic-factor",
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


def test_a_check_passes_exactly_when_its_detail_is_empty():
    results = verify.run_suites(["all"], 12, SAMPLES)
    assert len(results) == 59
    assert all(r.passed and r.detail == "" for r in results)



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
    plant fails here."""
    families = {_family(r.name) for r in verify.run_suites(["all"], 12, SAMPLES)}
    failed = set()
    for module, target, plant, suite in _plants():
        with monkeypatch.context() as patch:
            patch.setattr(module, target, plant(getattr(module, target)))
            results = verify.run_suites([suite], 12, SAMPLES)
        failed |= {_family(r.name) for r in results if not r.passed}
    assert sorted(families - failed) == []


def test_a_fault_raised_inside_the_kernel_suite_fails_its_checks_and_exits_one(
    monkeypatch, capsys
):
    """With the shape's constant term 3 + d, shape - N no longer starts at
    t^2, and roots raises; every check of every sample fails naming the
    exception, and the other suites still report."""
    monkeypatch.setattr(closedform, "_SHAPE", _bumped(0)(closedform._SHAPE))
    code = cli.main(["verify", "--suite", "all", "--order", "12"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    raised = ": raised ValuationError: nonzero coefficient of degree 0 blocks a shift down by 2"
    kernel = [line for line in lines if line.startswith(("PASS [kernel]", "FAIL [kernel]"))]
    assert len(kernel) == 43
    assert all(line.startswith("FAIL [kernel] ") and line.endswith(raised) for line in kernel)
    assert all(line.startswith("PASS ") for line in lines[43:-1])
    assert lines[-1] == "59 checks, 43 failed"


def test_a_fault_raised_inside_another_suite_fails_it_and_exits_one(monkeypatch, capsys):
    """A column-convex form whose radicand has no rational square root
    raises before its suite yields a check; the suite reports one FAIL
    line naming the exception, and every other suite still passes."""
    def gf(variant, r, order):
        return XSeries.from_terms({0: 2}, order).sqrt()

    monkeypatch.setattr(closedform, "column_convex_gf", gf)
    code = cli.main(["verify", "--suite", "all", "--order", "12"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line for line in lines if not line.startswith("PASS ")] == [
        "FAIL [columnconvex] every check runs: "
        "raised NonSquareConstantError: constant term 2 is not a positive rational square",
        "54 checks, 1 failed",
    ]
    assert {line.split()[1] for line in lines[:-1]} == {"[%s]" % n for n in verify.SUITE_NAMES}


def test_a_fault_at_one_sample_leaves_the_others_reporting(monkeypatch):
    real = closedform.kernel_residuals

    def residuals(d, n, *high):
        if d == 2:
            raise ZeroDivisionError("planted")
        return real(d, n, *high)

    monkeypatch.setattr(closedform, "kernel_residuals", residuals)
    results = verify.kernel_suite(12, SAMPLES)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [
        "%s (d=2)" % name for name in verify.KERNEL_RESIDUAL_CHECKS
    ] + ["quadratic root has integer coefficients (d=2)"]
    assert {r.detail for r in failed} == {"raised ZeroDivisionError: planted"}
    assert len(results) == 43


@pytest.mark.parametrize("error", [ZeroDivisionError, ValueError, RuntimeError])
def test_each_caught_error_at_one_sample_fails_only_that_sample(monkeypatch, error):
    """The kernel suite catches at each sample what ``_suite`` catches: with
    samples 1, 2 and 3 and any of them raised at d = 2, 33 checks report and
    the 11 of d = 2 fail naming it."""
    real = closedform.kernel_residuals

    def residuals(d, n, *high):
        if d == 2:
            raise error("planted")
        return real(d, n, *high)

    monkeypatch.setattr(closedform, "kernel_residuals", residuals)
    results = verify.kernel_suite(12, (Fraction(1), Fraction(2), Fraction(3)))
    assert len(results) == 33
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [
        "%s (d=2)" % name for name in verify.KERNEL_RESIDUAL_CHECKS
    ] + ["quadratic root has integer coefficients (d=2)"]
    assert {r.detail for r in failed} == {"raised %s: planted" % error.__name__}


def test_samples_below_minus_two_take_the_negative_branch(capsys):
    code = cli.main(["verify", "--suite", "kernel", "--order", "60", "--d-samples=-3,-5/2,-7"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == "32 checks, 0 failed"
    assert all(line.startswith("PASS [kernel] ") for line in lines[:-1])


def _positive_branch(real):
    # roots negates N below d = -2; negated here first, it keeps the branch
    # of positive constant term |2 + d| that sqrt returns
    def positive(d, n):
        triple = real(d, n)
        if d < -2:
            triple = triple._replace(nested=triple.nested._replace(value=-triple.nested.value))
        return triple

    return positive


def test_the_positive_branch_below_minus_two_raises(monkeypatch):
    """Below d = -2 the nested radical's positive branch leaves shape - N
    with constant term 2(2 + d), so no root sum is a series; the suite
    fails every check of the sample with the raise."""
    monkeypatch.setattr(closedform, "radicals", _positive_branch(closedform.radicals))
    with pytest.raises(ValueError, match="degree 0 blocks a shift"):
        closedform.roots(-3, 8)
    results = verify.kernel_suite(12, (Fraction(-3), Fraction(1)))
    assert [r.passed for r in results] == [False] * 10 + [True] * 10 + [False, True]
    assert results[0].detail.startswith("raised ValuationError: ")


def _is_table(value):
    return bool(value) and isinstance(value, dict) and all(
        isinstance(row, dict) for row in value.values()
    )


# every {t-degree: {e-degree: int}} table of closedform, a factor's as a tuple
KERNEL_TABLES = {
    name: value
    for name, value in vars(closedform).items()
    if _is_table(value) or isinstance(value, tuple) and value and all(map(_is_table, value))
}
# (table, power of z or None, t-degree, e-degree) of every table entry
SWEPT_ENTRIES = [
    (name, z, t, e)
    for name, table in KERNEL_TABLES.items()
    for z, poly in (enumerate(table) if isinstance(table, tuple) else [(None, table)])
    for t, row in poly.items()
    for e in row
]


@pytest.mark.parametrize(
    "name, z, t, e",
    SWEPT_ENTRIES,
    ids=["%s%s-t%d-e%d" % (name, "" if z is None else "-z%d" % z, t, e)
         for name, z, t, e in SWEPT_ENTRIES],
)
def test_every_kernel_literal_plus_one_fails_the_kernel_suite(monkeypatch, capsys, name, z, t, e):
    """Each entry of the kernel tables plus 1 fails some check of the
    kernel suite at order 12, as a FAIL line and exit 1, never exit 2."""
    monkeypatch.setattr(closedform, name, _bumped(t, e, z)(getattr(closedform, name)))
    assert cli.main(["verify", "--suite", "kernel", "--order", "12"]) == 1
    assert capsys.readouterr().out.endswith(" failed\n")


# (table, class, index of the term in _EQUATION, or None for _CONSTANT)
LAYERED_COEFFICIENTS = [("_CONSTANT", cls, None) for cls in layered._CONSTANT] + [
    ("_EQUATION", cls, i) for cls, terms in layered._EQUATION.items() for i in range(len(terms))
]


def test_the_sweeps_cover_every_table_and_pass_unbumped(capsys):
    assert sorted(KERNEL_TABLES) == [
        "_BASE_RADICAND", "_KERNEL_RADICAND", "_NESTED_COEFFICIENT", "_NESTED_RATIONAL",
        "_QUADRATIC", "_QUARTIC", "_SHAPE", "_SWING_SQUARED",
    ]
    assert (len(SWEPT_ENTRIES), len(LAYERED_COEFFICIENTS)) == (74, 16)
    assert cli.main(["verify", "--suite", "kernel", "--order", "12"]) == 0
    assert cli.main(["verify", "--suite", "oracle", "--order", "20"]) == 0
    assert capsys.readouterr().out.count(" 0 failed\n") == 2


@pytest.mark.parametrize(
    "name, cls, index",
    LAYERED_COEFFICIENTS,
    ids=["%s-%s-%s" % entry for entry in LAYERED_COEFFICIENTS],
)
def test_every_layered_coefficient_plus_one_fails_the_oracle_suite(
    monkeypatch, capsys, name, cls, index
):
    """Each term coefficient of the layered equation plus 1 fails the
    oracle suite, the layered census against the exhaustive one, at order
    20.  The fixedd suite would pass: both its sides solve ``_EQUATION``."""
    monkeypatch.setattr(layered, name, _coefficient_bumped(cls, index)(getattr(layered, name)))
    assert cli.main(["verify", "--suite", "oracle", "--order", "20"]) == 1
    assert capsys.readouterr().out.endswith(" failed\n")
