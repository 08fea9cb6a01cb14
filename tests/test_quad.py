"""Quadrature engine: the reference battery has independently known values."""

import math
from dataclasses import replace

import numpy as np
import pytest
from paper_kernels import raw_double_integral_kernel

from eulersum.constants import zeta
from eulersum.eulersums import double_integral_kernel
from eulersum.registry import run_suite
from eulersum.quad import (
    MAX_LEVEL,
    QuadratureError,
    QuadratureResult,
    _integrate_rows,
    _level_nodes,
    _opening_nodes,
    _passes,
    integrate,
    integrate2d,
)


def battery():
    """(name, integrand, exact value) with exact values from closed forms
    that do not involve the quadrature (monomials, log moments, zeta)."""
    cases = [("one", lambda t: 1.0, 1.0), ("log", lambda t: np.log(t), -1.0)]
    for k in range(1, 6):
        cases.append((f"t^{k}", lambda t, k=k: t**k, 1.0 / (k + 1)))
    cases.append(
        ("log^2/(1-t)", lambda t: np.log(t) ** 2 / (1.0 - t), 2.0 * zeta(3))
    )
    cases.append(
        ("log^3/(1-u)", lambda u: np.log(u) ** 3 / (1.0 - u), -6.0 * zeta(4))
    )
    return cases


class TestIntegrate:
    def test_constant(self):
        r = integrate(lambda t: 1.0, 1e-15)
        assert r.converged
        assert abs(r.value - 1.0) <= 1e-15
        assert r.evaluations >= 1

    def test_euler_reference_integral(self):
        r = integrate(lambda t: np.log(t) ** 2 / (1.0 - t), 1e-12)
        assert r.converged
        assert abs(r.value - 2.404113806319188) <= 1e-11

    def test_quartic_log_reference_integral(self):
        r = integrate(lambda u: np.log(u) ** 3 / (1.0 - u), 1e-12)
        assert r.converged
        assert abs(r.value - (-6.493939402266829)) <= 1e-11

    @pytest.mark.parametrize("name,f,exact", battery())
    def test_error_estimate_honesty(self, name, f, exact):
        r = integrate(f, 1e-12)
        assert r.converged, name
        assert abs(r.value - exact) <= 10.0 * r.abs_error_estimate, name

    def test_converged_estimate_below_tolerance(self):
        for tol in (1e-6, 1e-10, 1e-12):
            r = integrate(np.log, tol)
            assert r.converged
            assert r.abs_error_estimate <= tol

    def test_refinement_shrinks_estimates(self):
        estimates = [
            integrate(np.log, tol).abs_error_estimate
            for tol in (1e-4, 1e-8, 1e-13)
        ]
        assert estimates[0] > estimates[1] > estimates[2]

    def test_general_interval(self):
        # int_0^pi sin t dt = 2, mapped onto (0, 1).
        r = integrate(lambda t: np.pi * np.sin(np.pi * t), 1e-13)
        assert abs(r.value - 2.0) <= 1e-12

    def test_near_endpoint_pole(self):
        # 1/(t + u) with u tiny: pole just outside the interval; nodes must
        # keep resolving the hump at scale u near the left endpoint.
        u = 1e-12
        lnu = math.log(u)
        exact = (-0.5 * lnu * lnu - zeta(2)) / (1.0 - u)  # leading closed form
        # An absolute tol of 1e-9 |exact|: a relative 1e-9 at this size.
        r = integrate(lambda t: np.log(t) / (t + u - t * u), 1e-9 * abs(exact))
        assert r.converged
        assert abs(r.value - exact) <= 1e-5 * abs(exact)

    def test_vectorized_matches_scalar(self):
        # A scalar function runs through np.vectorize, as documented.
        f_scalar = np.vectorize(lambda t: math.log(t) ** 2 / (1.0 - t), otypes=[float])
        f_vector = lambda t: np.log(t) ** 2 / (1.0 - t)
        a = integrate(f_scalar, 1e-12)
        b = integrate(f_vector, 1e-12)
        assert a.value == b.value
        assert a.evaluations == b.evaluations

    def test_non_finite_interior_value_fails_cleanly(self):
        r = integrate(lambda t: np.where((0.4 < t) & (t < 0.6), np.inf, 1.0), 1e-10)
        assert not r.converged
        assert math.isfinite(r.value)
        assert r.message != ""

    def test_nan_integrand_fails_cleanly(self):
        r = integrate(lambda t: np.full_like(t, np.nan), 1e-10)
        assert not r.converged
        assert math.isfinite(r.value)

    def test_domain_errors(self):
        # A tol that is not a positive real number names the entry point.
        # A bool, an array and inf are not tolerances either.
        for tol in (0.0, -1e-10, math.nan, None, "x", True, np.array([1e-8, 1e-9]), math.inf):
            with pytest.raises(ValueError, match="^integrate requires tol > 0, got "):
                integrate(lambda t: 1.0, tol)
        # A value that does not broadcast to the nodes names the entry point.
        for f in (lambda t: np.ones(3), lambda t: np.ones((t.size, 2))):
            with pytest.raises(ValueError, match="^integrate requires integrand "
                               "values that broadcast to the nodes' shape"):
                integrate(f, 1e-8)
        assert integrate(lambda t: np.full(1, 2.0), 1e-8).value == 2.0

    @pytest.mark.parametrize("f", [3, None, "f", np.arange(1000.0)],
                             ids=["int", "None", "str", "array"])
    @pytest.mark.parametrize("rule", [integrate, integrate2d], ids=lambda rule: rule.__name__)
    def test_non_callable_integrand_is_an_error(self, rule, f):
        # One line that names the rule, not Python's "object is not callable".
        name = rule.__name__
        with pytest.raises(ValueError, match=f"^{name} requires a callable f, got [A-Za-z]+$"):
            rule(f, 1e-8)

    @pytest.mark.parametrize("f", [lambda x: x + 1j * x, lambda x: 1j], ids=["array", "constant"])
    def test_complex_integrand_is_an_error(self, f):
        # A float cast would drop the imaginary part and report the real
        # part's integral as converged.
        with pytest.raises(ValueError, match="^integrate requires a real integrand"):
            integrate(f, 1e-10)

    def test_unreachable_tolerance_reports_non_convergence(self):
        # Below the rounding floor no level converges: the rule runs all
        # MAX_LEVEL levels and counts every node of them.
        r = integrate(np.log, 1e-18)
        assert not r.converged
        assert r.message == "no convergence within 12 refinement levels"
        assert r.evaluations == sum(node_counts()) == 37_926


class TestIntegrate2d:
    def test_unit(self):
        r = integrate2d(lambda t, u: 1.0, 1e-10)
        assert r.converged
        assert abs(r.value - 1.0) <= 1e-10

    def test_separable_product(self):
        r = integrate2d(lambda t, u: t * u, 1e-10)
        assert r.converged
        assert abs(r.value - 0.25) <= 1e-10

    def test_vectorized_inner(self):
        # f sees a row of t values against a column of u values.
        shapes = set()

        def f(t, u):
            shapes.add((t.shape[0], u.shape[1]))
            return t * u

        r = integrate2d(f, 1e-10)
        assert abs(r.value - 0.25) <= 1e-10
        assert shapes == {(1, 1)}

    def test_boundary_log_singularities(self):
        r = integrate2d(lambda t, u: np.log(t) * np.log(u), 1e-9)
        assert r.converged
        assert abs(r.value - 1.0) <= 1e-9  # (int_0^1 log)^2 = 1

    def test_outer_non_convergence_reports_every_outer_level(self):
        # A step in u: every inner integral converges, the outer rule does
        # not within MAX_LEVEL levels.
        calls = []

        def step(t, u):
            calls.append(t.size * u.size)
            return np.where(u < 1.0 / 3.0, 0.0, 1.0) + 0.0 * t

        r = integrate2d(step, 1e-8)
        assert not r.converged
        assert r.message == "no convergence within 12 outer refinement levels"
        assert abs(r.value - 2.0 / 3.0) <= 1e-3
        assert r.evaluations == sum(calls)

    def test_inner_failure_propagates(self):
        def bad(t, u):
            return np.where((0.4 < u) & (u < 0.6), np.nan, t * u)

        r = integrate2d(bad, 1e-9)
        assert not r.converged
        assert "inner" in r.message

    def test_domain_errors(self):
        # tol / 10 would overflow at 10**400, too large for a double.
        for tol in (0.0, math.nan, None, "x", True, np.array([[0.5]]), math.inf, 10**400):
            with pytest.raises(ValueError, match="^integrate2d requires tol > 0, got "):
                integrate2d(lambda t, u: 1.0, tol)
        # A value that does not broadcast to the (rows, nodes) block names
        # the entry point; a row of t or a column of u broadcasts.
        for f in (lambda t, u: np.ones(7), lambda t, u: np.ones((u.size, t.size, 2))):
            with pytest.raises(ValueError, match="^integrate2d requires integrand "
                               "values that broadcast to the nodes' shape"):
                integrate2d(f, 1e-8)
        assert integrate2d(lambda t, u: np.ones_like(t), 1e-8).converged
        assert integrate2d(lambda t, u: np.ones_like(u), 1e-8).converged

    def test_complex_integrand_is_an_error(self):
        with pytest.raises(ValueError, match="^integrate2d requires a real integrand"):
            integrate2d(lambda t, u: t * u + 1j, 1e-8)


def per_node_integrate2d(f, tol):
    """Reference 2-D rule: one relative float_loop call per outer node, in
    the order delta, 1 - delta over each level's table, stopping at the
    first inner failure. Each inner rule counts at least the 75 nodes of
    its opening pass of levels 1-3, as integrate2d's inner rule evaluates
    them in one call. integrate2d must reproduce its values, the counts of
    its converged results, and its messages where the failing level fails
    on one side of the square only (integrate2d names the first failure in
    node order, and counts every point it evaluated)."""
    acc_val = acc_err = 0.0
    evals = 0
    prev = None
    value = 0.0
    for level in range(1, MAX_LEVEL + 1):
        h = 2.0**-level
        deltas, weights = math_level_table(level)
        for delta, w in zip(deltas.tolist(), weights.tolist()):
            for u in (delta, 1.0 - delta):
                if not 0.0 < u < 1.0:
                    continue
                r = float_loop(lambda t: f(t, u), tol / 10.0, relative=True)
                evals += max(r.evaluations, opening_nodes().size)
                if not r.converged:
                    return QuadratureResult(
                        value, math.inf, evals, False,
                        f"inner integral failed at u={u!r}: {r.message}",
                    )
                acc_val += w * r.value
                acc_err += w * r.abs_error_estimate
        value = h * acc_val
        if prev is not None:
            estimate = abs(value - prev) + h * acc_err
            if max(estimate, 2.0**-52 * (1.0 + abs(value))) < tol:
                return QuadratureResult(value, estimate, evals, True)
        prev = value
    return QuadratureResult(value, math.inf, evals, False, "outer levels exhausted")


def assert_same_estimate(block, loop):
    """The outer level difference plus the weighted inner estimates: the two
    rules add the same terms in another order, so they agree to roundoff."""
    assert abs(block.abs_error_estimate - loop.abs_error_estimate) <= 1e-13


class TestIntegrate2dBlocks:
    """The block evaluation against the per-node loop it replaces."""

    @pytest.mark.parametrize("q", [2, 3])
    def test_kernels_match_per_node_loop(self, q):
        kernel = double_integral_kernel(q)
        block = integrate2d(kernel, 1e-8)
        loop = per_node_integrate2d(kernel, 1e-8)
        assert block.converged and loop.converged
        assert block.evaluations == loop.evaluations
        assert abs(block.value - loop.value) <= block.abs_error_estimate
        assert_same_estimate(block, loop)

    @pytest.mark.parametrize("q", [2, 3])
    def test_raw_kernels_match_per_node_loop(self, q):
        # The paper's kernels before u = t v; q = 2 is corner-singular and
        # runs 117,858 evaluations through the blocks.
        kernel = raw_double_integral_kernel(q)
        block = integrate2d(kernel, 1e-8)
        loop = per_node_integrate2d(kernel, 1e-8)
        assert block.converged and loop.converged
        assert block.evaluations == loop.evaluations
        assert abs(block.value - loop.value) <= block.abs_error_estimate
        assert_same_estimate(block, loop)

    def test_scalar_integrand_matches_per_node_loop(self):
        # A scalar function runs through np.vectorize, as documented.
        @np.vectorize
        def f(t, u):
            return math.sqrt(t) * math.log(u) / (1.0 + t * u)

        block = integrate2d(f, 1e-9)
        loop = per_node_integrate2d(f, 1e-9)
        assert block.converged and loop.converged
        assert block.evaluations == loop.evaluations
        assert abs(block.value - loop.value) <= block.abs_error_estimate
        assert_same_estimate(block, loop)

    def test_first_failing_node_in_node_order(self):
        # Fails on both sides of the square from outer level 1 on. In node
        # order (the nodes u = delta from 1/2 toward 0, then their mirrors)
        # the first failure is the first delta below 0.05; the per-node
        # loop, which visits each delta before its mirror, meets a mirror
        # node above 0.8 first.
        def failing(u):
            return (u < 0.05) | (u > 0.8)

        def bad(t, u):
            return np.where(failing(u), np.nan, t * u)

        calls = []

        def counted(t, u):
            calls.append(t.size * u.size)
            return bad(t, u)

        block = integrate2d(counted, 1e-9)
        loop = per_node_integrate2d(bad, 1e-9)
        assert not block.converged and not loop.converged
        deltas = math_level_table(1)[0]
        nodes = np.concatenate((deltas, 1.0 - deltas))
        u = float(nodes[failing(nodes)][0])
        assert u < 0.05
        inner = float_loop(lambda t: bad(t, u), 1e-10, relative=True)
        assert block.message == f"inner integral failed at u={u!r}: {inner.message}"
        assert block.message != loop.message
        # Every row of the opening block runs its inner opening pass: 75 x
        # 75 evaluations made, where the per-node loop stops after four
        # inner rules of 75.
        assert block.evaluations == sum(calls) == 5625
        assert loop.evaluations == 300
        assert block.value == loop.value == 0.0  # nothing before level 1
        assert block.abs_error_estimate == math.inf

    def test_inner_non_convergence_names_node(self):
        # The corner-singular raw kernel below the rounding floor: no inner
        # integral converges, so the first outer node u = 1/2 is named.
        kernel = raw_double_integral_kernel(2)
        calls = []

        def counted(t, u):
            calls.append(t.size * u.size)
            return kernel(t, u)

        block = integrate2d(counted, 1e-18)
        loop = per_node_integrate2d(kernel, 1e-18)
        assert not block.converged
        assert block.message == (
            "inner integral failed at u=0.5: no convergence within 12 refinement levels"
        )
        assert block.message == loop.message
        # All 75 rows of the opening block run every inner level; the
        # per-node loop stops at the failing node after one full inner rule.
        assert block.evaluations == sum(calls) == 75 * 37_926 == 2_844_450
        assert loop.evaluations == 37_926


def math_level_table(level):
    """The level table built node by node with the math module."""
    h = 2.0**-level
    ks = range(0, 1_000_000) if level == 1 else range(1, 2_000_000, 2)
    deltas, weights = [], []
    for k in ks:
        t = k * h
        y = math.pi * math.sinh(t)
        delta = math.exp(-y) if y > 700.0 else 1.0 / (1.0 + math.exp(y))
        if delta < 1e-300:
            break
        w = math.pi * math.cosh(t) * delta * (1.0 - delta)
        deltas.append(delta)
        weights.append(0.5 * w if k == 0 else w)
    return np.array(deltas), np.array(weights)


def mirrored(deltas, weights):
    """A level table on both halves of (0, 1): every delta, then the
    mirrors 1 - delta that stay below 1, with their weights."""
    high = 1.0 - deltas < 1.0
    return (np.concatenate((deltas, 1.0 - deltas[high])),
            np.concatenate((weights, weights[high])))


def node_counts():
    """Number of nodes each level adds, levels 1..MAX_LEVEL."""
    return [_level_nodes(level)[0].size for level in range(1, MAX_LEVEL + 1)]


def opening_nodes():
    """Abscissas of levels 1..3, in level order."""
    return np.concatenate([_level_nodes(level)[0] for level in (1, 2, 3)])


class TestLevelPasses:
    """Levels 1-3 are one integrand call, every later level one call, each
    over both halves of (0, 1), in the 1-D rule and in both rules of the
    2-D rule."""

    @pytest.mark.parametrize("level", range(1, MAX_LEVEL + 1))
    def test_level_table_matches_math_construction(self, level):
        # Same elementary functions, same operation order: the same bits,
        # after the same mirroring onto both halves of (0, 1).
        x, w = _level_nodes(level)
        ref_x, ref_w = mirrored(*math_level_table(level))
        assert np.array_equal(x, ref_x)
        assert np.array_equal(w, ref_w)

    def test_cached_nodes_are_read_only(self):
        # One table per level and one opening array, built once: every
        # call returns the same read-only objects.
        for level in (1, 4):
            x, w = _level_nodes(level)
            assert _level_nodes(level)[0] is x and _level_nodes(level)[1] is w
            for array in (x, w):
                with pytest.raises(ValueError):
                    array[0] = 0.5
        x = _opening_nodes()
        assert _opening_nodes() is x
        with pytest.raises(ValueError):
            x[0] = 0.5

    def test_suite_pass_builds_each_level_once(self):
        # A first suite pass runs levels 1 to 4 and builds each of them
        # once, for both rules: four table builds.
        _level_nodes.cache_clear()
        _opening_nodes.cache_clear()
        run_suite()
        info = _level_nodes.cache_info()
        assert (info.misses, info.currsize) == (4, 4)

    @pytest.mark.parametrize("level", range(1, MAX_LEVEL + 1))
    def test_pass_tables_are_the_levels_nodes(self, level):
        # Levels 1-3 form the first pass, then one level per pass up to
        # MAX_LEVEL; a level's abscissas sit in its pass in level order,
        # and a one-level pass is that level's own array.
        passes = list(_passes())
        assert [list(levels) for _, levels in passes] == (
            [[1, 2, 3]] + [[later] for later in range(4, MAX_LEVEL + 1)]
        )
        nodes = _level_nodes(level)[0]
        if level <= 3:
            x, _ = passes[0]
            assert x is _opening_nodes()
            start = sum(_level_nodes(lower)[0].size for lower in range(1, level))
            assert np.array_equal(x[start : start + nodes.size], nodes)
        else:
            assert passes[level - 3][0] is nodes

    def test_interval_nodes_are_both_halves(self):
        # The low side is each level's delta, all of it, at most 1/2; the
        # high side mirrors a prefix of it, the deltas whose mirror stays
        # below 1, with the same weights.
        dropped = 0
        for level in range(1, MAX_LEVEL + 1):
            low = math_level_table(level)[0].size
            x, w = _level_nodes(level)
            high = x.size - low
            dropped += low - high
            assert (x[:low] <= 0.5).all() and (x[low:] >= 0.5).all(), level
            assert np.array_equal(x[low:], 1.0 - x[:high])
            assert np.array_equal(w[low:], w[:high])
            assert ((0.0 < x) & (x < 1.0)).all(), level
        # Some mirror rounds onto 1, so the high-side guard is exercised.
        assert dropped > 0

    @pytest.mark.parametrize(
        "f,tol",
        [
            (lambda t: np.log(t) ** 2 / (1.0 - t), 1e-12),
            (lambda t: np.log(t) ** 2 / (1.0 - t), 1e-6),
            (lambda t: np.pi * np.sin(np.pi * t), 1e-13),
            # Failures: NaN at a level-2 node (t = 0.3114) and at no
            # level-1 node, inside the first call; NaN at a level-4 node
            # (t = 0.1949) and at none of levels 1-3; no convergence.
            (lambda t: np.where((0.3 < t) & (t < 0.32), np.nan, t), 1e-14),
            (lambda t: np.where((0.19 < t) & (t < 0.2), np.nan, t), 1e-14),
            (np.log, 1e-18),
        ],
    )
    def test_one_integrand_call_per_level(self, f, tol):
        seen = []

        def counting(t):
            seen.append(t.copy())
            return f(t)

        r = integrate(counting, tol)
        assert r.converged == float_loop(f, tol, relative=False).converged
        # Levels 1-3 are one call on the three levels' nodes in level
        # order, every later level one call on its own.
        assert np.array_equal(seen[0], opening_nodes())
        sizes = [t.size for t in seen]
        assert sizes[1:] == node_counts()[3 : len(sizes) + 2]
        assert sum(sizes) == r.evaluations

    def test_2d_kernel_called_once_per_inner_level(self):
        counts = node_counts()
        opening = sum(counts[:3])
        kernels = [
            double_integral_kernel(3),
            # Failures: NaN on both sides of the square from outer level 1
            # on; NaN at an outer level-2 node only.
            lambda t, u: np.where((u < 0.05) | (u > 0.8), np.nan, t * u),
            lambda t, u: np.where((0.3 < u) & (u < 0.32), np.nan, t * u),
        ]
        for kernel in kernels:
            calls = []

            def f(t, u):
                calls.append((t.size, u.size))
                return kernel(t, u)

            r = integrate2d(f, 1e-8)
            assert r.converged == per_node_integrate2d(kernel, 1e-8).converged
            # Outer levels 1-3 are one block of the three levels' nodes,
            # every later outer level one block of its own. Each block's
            # inner rule makes one call on inner levels 1-3 for every row,
            # then one call per later inner level on the rows still
            # running, so the call sizes restart at the inner opening pass
            # exactly once per block.
            runs = []
            for t_size, rows in calls:
                if t_size == opening:
                    runs.append([])
                runs[-1].append((t_size, rows))
            block_rows = [opening] + counts[3:]
            assert block_rows[0] == 75
            assert len(runs) <= len(block_rows)
            for first_rows, run in zip(block_rows, runs):
                assert [t for t, _ in run] == [opening] + counts[3 : len(run) + 2]
                rows = [n for _, n in run]
                assert rows[0] == first_rows
                assert rows == sorted(rows, reverse=True)  # rows only leave
            assert sum(t * n for t, n in calls) == r.evaluations

    def test_no_node_above_MAX_LEVEL(self):
        # Below the rounding floor both rules run to MAX_LEVEL and no
        # further: every node of levels 1..12, each evaluated once.
        every = np.concatenate([_level_nodes(level)[0]
                                for level in range(1, MAX_LEVEL + 1)])
        seen = []

        def f(t):
            seen.append(t.copy())
            return np.log(t)

        r = integrate(f, 1e-18)
        assert not r.converged
        assert len(seen) == MAX_LEVEL - 2
        assert np.array_equal(np.concatenate(seen), every)
        assert r.evaluations == every.size

        seen_t, seen_u = [], []

        def g(t, u):
            seen_t.append(np.ravel(t).copy())
            seen_u.append(np.ravel(u).copy())
            return np.log(t) * np.log(u)

        r = integrate2d(g, 1e-18)
        assert not r.converged
        # The 2-D rule fails in its opening block: one outer block of the
        # outer nodes of levels 1-3, and inner calls on the inner nodes of
        # levels 1..12, in order.
        assert np.array_equal(np.unique(np.concatenate(seen_u)),
                              np.unique(opening_nodes()))
        assert np.array_equal(np.concatenate(seen_t), every)
        assert r.evaluations == opening_nodes().size * every.size

    @pytest.mark.parametrize("passes", [1, 2, 3])
    def test_no_node_above_max_level(self, passes):
        # A rule that stops in its n-th pass reaches level n + 2 and
        # evaluates no node above it: exp(-100 u^2) converges at level 3,
        # 4 or 5 at these tolerances, in 1-D and as the outer rule of
        # 2 t exp(-100 u^2).
        tol = {1: 1e-3, 2: 1e-6, 3: 1e-9}[passes]
        allowed = np.concatenate([_level_nodes(level)[0]
                                  for level in range(1, passes + 3)])
        seen = []

        def f(t):
            seen.append(t.copy())
            return np.exp(-100.0 * t * t)

        r = integrate(f, tol)
        assert r.converged
        assert len(seen) == passes
        assert np.array_equal(np.concatenate(seen), allowed)
        assert r.evaluations == allowed.size

        opening = opening_nodes()
        blocks, seen_u = [], []

        def g(t, u):
            rows = np.ravel(u).copy()
            if np.array_equal(np.ravel(t), opening):
                blocks.append(rows)  # the inner opening pass runs every row
            seen_u.append(rows)
            return 2.0 * t * np.exp(-100.0 * u * u)

        r = integrate2d(g, tol)
        assert r.converged
        # One outer block per pass, on that pass's nodes in level order;
        # later inner levels run a subset of the block's rows.
        assert len(blocks) == passes
        assert np.array_equal(np.concatenate(blocks), allowed)
        assert np.isin(np.concatenate(seen_u), allowed).all()

    def test_level_2_convergence_counts_the_opening_pass(self):
        # At tol 1e-5 the rule stops at level 2 (at 1e-6 it needs level 3),
        # after one call on the nodes of levels 1-3.
        def f(t):
            return np.log(t) ** 2 / (1.0 - t)

        counts = node_counts()
        r = integrate(f, 1e-5)
        ref = float_loop(f, 1e-5, relative=False)
        assert ref.converged and ref.evaluations == counts[0] + counts[1]
        assert r.converged and r.evaluations == sum(counts[:3]) == 75
        assert r.value.hex() == ref.value.hex()
        assert r.abs_error_estimate.hex() == ref.abs_error_estimate.hex()

    def test_2d_outer_level_2_convergence_counts_the_opening_block(self):
        # t u at tol 1e-3: the outer rule stops at level 2, every inner
        # integral at inner level 2, and every inner rule opens on levels
        # 1-3: all 75 rows of the opening block count 75 evaluations each,
        # in one kernel call, where one block per outer level counts the 38
        # rows of levels 1 and 2 only.
        calls = []

        def f(t, u):
            calls.append((t.size, u.size))
            return t * u

        block = integrate2d(f, 1e-3)
        loop = per_node_integrate2d(lambda t, u: t * u, 1e-3)
        assert block.converged and loop.converged
        assert loop.evaluations == 38 * 75
        assert calls == [(75, 75)]
        assert block.evaluations == sum(t * n for t, n in calls) == 75 * 75
        assert block.value == loop.value
        assert_same_estimate(block, loop)


def one_row_integrate(f, tol):
    """The one-row case of the multi-row kernel on (0, 1), under its
    relative test, as a QuadratureResult."""
    evals, value, estimate, failure = _integrate_rows(
        lambda t, u: f(t), tol, np.zeros(1)
    )
    message = ""
    if failure is not None:
        row, message = failure
        prefix = "inner integral failed at u=0.0: "
        assert row == 0 and message.startswith(prefix)
        message = message[len(prefix):]
    return QuadratureResult(
        float(value[0]), float(estimate[0]), evals, not message, message
    )


def float_loop(f, tol, *, relative):
    """The 1-D rule in Python floats level by level, one integrand call per
    level, written independently of the package's level loops: under the
    absolute test reported < tol, integrate(); under the relative test
    reported < tol * max(1, |value|), the inner rule of integrate2d."""
    acc = prev = 0.0
    diff = math.inf
    count = 0
    for level in range(1, MAX_LEVEL + 1):
        x, w = _level_nodes(level)
        values = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
        total = np.einsum("ij,j->i", values.reshape(1, -1), w).item()
        count += x.size
        if not math.isfinite(total):
            return QuadratureResult(prev, math.inf, count, False,
                                    "non-finite integrand value at an interior node")
        acc += total
        value = 2.0**-level * acc
        if level > 1:
            diff = abs(value - prev)
            size = abs(value)
            reported = max(diff, 2.0**-52 * (1.0 + size))
            if reported < (tol * max(1.0, size) if relative else tol):
                return QuadratureResult(value, reported, count, True)
        prev = value
    return QuadratureResult(prev, diff, count, False,
                            f"no convergence within {MAX_LEVEL} refinement levels")


def bits(r):
    return (r.value.hex(), r.abs_error_estimate.hex(), r.evaluations,
            r.converged, r.message)


ONE_ROW_CASES = [
    ("smooth", lambda t: t**5, lambda t: t**5, 1e-13),
    ("sin", lambda t: math.pi * math.sin(math.pi * t),
     lambda t: np.pi * np.sin(np.pi * t), 1e-13),
    ("constant", lambda t: 1.0, lambda t: 1.0, 1e-15),
    ("endpoint-singular", lambda t: math.log(t) ** 2 / (1.0 - t),
     lambda t: np.log(t) ** 2 / (1.0 - t), 1e-12),
    # Converges at level 2, inside the opening pass of levels 1-3.
    ("level-2", lambda t: math.log(t) ** 2 / (1.0 - t),
     lambda t: np.log(t) ** 2 / (1.0 - t), 1e-5),
    ("large", lambda t: 1e6 * math.log(t), lambda t: 1e6 * np.log(t), 1e-9),
    ("non-finite-interior", lambda t: math.inf if 0.4 < t < 0.6 else 1.0,
     lambda t: np.where((0.4 < t) & (t < 0.6), np.inf, 1.0), 1e-10),
    ("non-finite-level-1", lambda t: math.nan, lambda t: np.full(t.shape, np.nan),
     1e-10),
    # NaN at a level-2 node (t = 0.3114) and at no level-1 node.
    ("non-finite-level-2", lambda t: math.nan if 0.3 < t < 0.32 else t,
     lambda t: np.where((0.3 < t) & (t < 0.32), np.nan, t), 1e-14),
    # Finite at levels 1 and 2, NaN from level 3 on.
    ("non-finite-level-3", lambda t: math.nan if 0.2 < t < 0.25 else t,
     lambda t: np.where((0.2 < t) & (t < 0.25), np.nan, t), 1e-14),
    ("non-converging", lambda t: math.log(t), np.log, 1e-18),
]


# (case, native, relative), ids name-native-relative: every case under the
# absolute test of integrate() and the relative test of the inner rule.
FLOAT_LOOP_PARAMS = [
    pytest.param(*case, native, relative, id=f"{case[0]}-{native}-{relative}")
    for relative in (False, True)
    for native in (False, True)
    for case in ONE_ROW_CASES
]


class TestFloatLoop:
    """Each package level loop against the one-row float_loop of the tests:
    integrate() under the absolute test, the one-row case of the multi-row
    kernel under the relative test of the inner rule of integrate2d.

    Each case runs as a numpy integrand (native) and as its math-module
    scalar form through np.vectorize, the documented way to pass a scalar
    function; the math module can round differently from numpy.
    """

    @pytest.mark.parametrize(
        "name,f_scalar,f_vector,tol,native,relative", FLOAT_LOOP_PARAMS
    )
    def test_bit_identical_to_one_row_kernel(
        self, name, f_scalar, f_vector, tol, native, relative
    ):
        f = f_vector if native else np.vectorize(f_scalar, otypes=[float])
        ref = float_loop(f, tol, relative=relative)
        if relative:
            r = one_row_integrate(f, tol)
        else:
            r = integrate(f, tol)
        # Both rules evaluate levels 1..3 in one pass and count every node
        # they evaluated, whether they converge or fail.
        ref = replace(ref, evaluations=max(ref.evaluations, opening_nodes().size))
        assert bits(r) == bits(ref), name
        assert type(r.value) is float and type(r.abs_error_estimate) is float

    def test_2d_first_failure_at_outer_level_2(self):
        # A level-2 outer node lies in (0.3, 0.32) and no level-1 node
        # does: level 1 runs clean, level 2 fails.
        def inside(u):
            return (0.3 < u) & (u < 0.32)

        assert not inside(_level_nodes(1)[0]).any()
        assert inside(_level_nodes(2)[0]).any()

        def bad(t, u):
            return np.where(inside(u), np.nan, t * u)

        calls = []

        def counted(t, u):
            calls.append(t.size * u.size)
            return bad(t, u)

        block = integrate2d(counted, 1e-9)
        loop = per_node_integrate2d(bad, 1e-9)
        assert not block.converged
        assert block.message == loop.message
        # Every row of the opening block runs its inner opening pass; the
        # per-node loop stops at the failing node after 1,575 evaluations.
        assert block.evaluations == sum(calls) == 5625
        assert loop.evaluations == 1575
        assert block.value == loop.value != 0.0  # level 1's value stands


def step(t):
    """A unit step at t = 1/3: no tanh-sinh level resolves it to 1e-6."""
    return np.where(t < 1.0 / 3.0, 0.0, 1.0)


class TestIntegrateRows:
    # Row i integrates ROWS[i][1] in one block at relative tol 1e-6;
    # ROWS[i][0] is the last level the row runs when run alone. Rows 2, 3
    # and 9 fail; the others converge. Row 3 alone runs past level 9, so the
    # block sums its levels 11 and 12 in the order of a one-row run (see
    # _integrate_rows) and every row matches its run alone bit for bit.
    ROWS = [
        (4, lambda t: np.cos(10.0 * t)),
        (2, lambda t: t**-0.5),
        # Finite at levels 1 and 2, NaN from level 3 on.
        (3, lambda t: np.where((0.2 < t) & (t < 0.25), np.nan, t)),
        (MAX_LEVEL, step),
        (3, np.log),
        (6, lambda t: 1.0 / (0.01 + (t - 0.5) ** 2)),
        (9, lambda t: np.abs(t - 1.0 / 3.0)),
        (3, np.sqrt),
        (2, lambda t: t**-0.5),
        # Finite at level 1, NaN from level 2 on: fails inside the opening
        # pass, at the level where rows 1 and 8 stop.
        (2, lambda t: np.where((0.3 < t) & (t < 0.32), np.nan, t)),
    ]

    def test_rows_stopping_apart_match_one_row_runs(self):
        def f(t, u):
            return np.vstack([
                np.broadcast_to(self.ROWS[int(i)][1](t[0]), t[0].shape)
                for i in u[:, 0]
            ])

        evaluations, values, estimates, failure = _integrate_rows(
            f, 1e-6, np.arange(len(self.ROWS), dtype=float)
        )
        # Row 2 is the lowest failed row; row 3 is named only when run alone.
        assert failure == (2, "inner integral failed at u=2.0: "
                           "non-finite integrand value at an interior node")
        last_node = np.cumsum(node_counts()).tolist()
        alone = []
        for i, (last, g) in enumerate(self.ROWS):
            ref = one_row_integrate(g, 1e-6)
            alone.append(ref.evaluations)
            # A row counts at least the 75 nodes of its opening pass.
            loop = float_loop(g, 1e-6, relative=True)
            assert last_node.index(loop.evaluations) + 1 == last, i
            assert ref.evaluations == max(loop.evaluations, 75), i
            assert values[i].hex() == ref.value.hex(), i
            assert estimates[i].hex() == ref.abs_error_estimate.hex(), i
            assert ref.converged == (i not in (2, 3, 9)), i
        assert one_row_integrate(self.ROWS[3][1], 1e-6).message == (
            "no convergence within 12 refinement levels"
        )
        # Row 9 keeps its level-1 value and counts its opening pass.
        x, w = _level_nodes(1)
        level_1 = 0.5 * np.einsum("ij,j->i", self.ROWS[9][1](x)[None, :], w).item()
        assert (values[9], estimates[9], alone[9]) == (level_1, math.inf, 75)
        assert evaluations == sum(alone)

    def test_first_failure_in_node_order_not_failure_time(self):
        # The lower row fails last, without convergence at MAX_LEVEL; the
        # higher row fails first, non-finite at inner level 1, after its
        # opening pass of levels 1-3. The lower row is the one named.
        def f(t, u):
            return np.where(u == 0.0, step(t), np.where(u == 1.0, np.nan, t))

        evaluations, _, estimates, failure = _integrate_rows(
            f, 1e-6, np.array([0.0, 1.0])
        )
        assert failure == (0, "inner integral failed at u=0.0: "
                              "no convergence within 12 refinement levels")
        assert estimates[1] == math.inf
        assert evaluations == sum(node_counts()) + opening_nodes().size

    def test_2d_first_failure_in_node_order_not_failure_time(self):
        # u = 1/2, the first outer node, fails last, without convergence at
        # inner level 12; the level-1 nodes above 0.8 come later in node
        # order and fail first, non-finite at inner level 1.
        def f(t, u):
            return np.where(u == 0.5, step(t), np.where(u > 0.8, np.nan, t * u))

        assert (_level_nodes(1)[0] > 0.8).any()
        r = integrate2d(f, 1e-9)
        assert not r.converged
        assert r.message == (
            "inner integral failed at u=0.5: no convergence within 12 refinement levels"
        )
        assert r.message == per_node_integrate2d(f, 1e-9).message


class TestResultTypes:
    def test_result_is_plain_floats(self):
        r = integrate2d(lambda t, u: t * u, 1e-9)
        assert type(r.value) is float
        assert type(r.abs_error_estimate) is float

    def test_quadrature_error_carries_result(self):
        result = QuadratureResult(0.0, math.inf, 10, False, "died")
        err = QuadratureError("died", result)
        assert err.result is result
