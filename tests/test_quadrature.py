import math

import numpy as np
import pytest

from trophodge import quadrature
from trophodge.expressions import parse_expression
from trophodge.quadrature import (
    DivergenceError,
    gauss_legendre,
    integrate_finite,
    integrate_interval,
    integrate_lower_tail,
    integrate_upper_tail,
)

FS = lambda x: 2 * np.exp(2 * np.asarray(x)) / (1 + np.exp(2 * np.asarray(x))) ** 2


# -- a level-by-level reference: one integrand call per refinement level ----

def reference_refine(level_value, tol):
    """The refinement rule, calling level_value(k) once per level."""
    previous, stall, last_diff = level_value(0), 0, None
    for k in range(1, quadrature.MAX_REFINEMENTS + 1):
        current = level_value(k)
        diff = abs(current - previous)
        if diff <= tol:
            return current
        if last_diff is not None:
            stall = stall + 1 if diff > 0.5 * last_diff else 0
            if stall >= 4:
                raise DivergenceError("stalled")
        last_diff, previous = diff, current
    raise DivergenceError("no stabilization")


def _reference_panels(f, bounds):
    values, _, wi, half = quadrature.panel_samples(f, bounds[:-1], bounds[1:], quadrature.NODES_PER_PANEL)
    assert np.all(np.isfinite(values))
    return float(np.sum((values @ wi) * half))


def _reference_finite(f, a, b):
    base = max(quadrature.MIN_PANELS, int(math.ceil(abs(b - a) * quadrature.PANELS_PER_UNIT)))
    return reference_refine(lambda k: _reference_panels(f, np.linspace(a, b, base * 2**k + 1)),
                            quadrature.TOL_FINITE)


def _reference_lower_tail(f, c):
    def h(u):
        return np.asarray(f(c + np.log(u)), dtype=float) / u

    def level_value(k):
        depth, splits = quadrature.TAIL_LEVELS + 2 * k, 1 + k // 2
        bounds = [0.0]
        for j in range(depth, 0, -1):
            lo, hi = 2.0 ** -j, 2.0 ** -(j - 1)
            step = (hi - lo) / splits
            bounds.extend(lo + i * step for i in range(splits))
        return _reference_panels(h, np.asarray(bounds + [1.0]))

    return reference_refine(level_value, quadrature.TOL_INFINITE)


class _Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def test_gauss_legendre_exactness():
    nodes, weights = gauss_legendre(16)
    # degree-31 polynomial integrated exactly on [-1, 1]
    assert np.dot(weights, nodes**30) == pytest.approx(2.0 / 31.0, rel=1e-14)


def test_finite_polynomial():
    assert integrate_finite(lambda x: x**3 - x, -2.0, 0.0) == pytest.approx(-2.0, abs=1e-12)


def test_finite_oscillatory():
    value = integrate_finite(lambda x: np.sin(7 * np.asarray(x)), 0.0, math.pi)
    assert value == pytest.approx(2.0 / 7.0, abs=1e-11)


def test_lower_tail_fubini_study_mass():
    fs = lambda x: 2 * np.exp(2 * np.asarray(x)) / (1 + np.exp(2 * np.asarray(x))) ** 2
    # antiderivative -1/(1+e^(2x)): mass over (-inf, 0] is 1/2
    assert integrate_lower_tail(fs, 0.0) == pytest.approx(0.5, abs=1e-10)
    # tail mass below -L is 1/(1+e^(2L))
    assert integrate_lower_tail(fs, -8.0) == pytest.approx(1.0 / (1.0 + math.exp(16.0)), rel=1e-8)


def test_lower_tail_second_moment_oracle():
    fs = lambda x: 2 * np.exp(2 * np.asarray(x)) / (1 + np.exp(2 * np.asarray(x))) ** 2
    moment = integrate_lower_tail(lambda x: np.asarray(x) ** 2 * fs(x), 0.0)
    assert moment == pytest.approx(math.pi**2 / 24.0, abs=1e-9)


def test_upper_tail_exponential():
    assert integrate_upper_tail(lambda x: np.exp(-np.asarray(x)), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-10
    )


def test_interval_doubly_infinite():
    gaussish = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    assert integrate_interval(gaussish, -math.inf, math.inf) == pytest.approx(
        math.sqrt(math.pi), rel=1e-9
    )


def test_divergence_of_constant_on_tail():
    with pytest.raises(DivergenceError):
        integrate_lower_tail(lambda x: np.ones_like(np.asarray(x, dtype=float)), 0.0)


def test_divergence_of_nonintegrable_pole():
    with pytest.raises(DivergenceError):
        integrate_finite(lambda x: 1.0 / np.abs(np.asarray(x, dtype=float)), -1.0, 0.0)


def test_zero_width_interval():
    assert integrate_finite(lambda x: np.asarray(x) ** 2, 1.0, 1.0) == 0.0



def test_fused_levels_match_the_level_by_level_reference_bitwise():
    finite = [(lambda x: x**3 - x, -2.0, 0.0), (lambda x: np.sin(7 * np.asarray(x)), 0.0, math.pi),
              (lambda x: np.exp(np.asarray(x)) * np.cos(40 * np.asarray(x)), -1.5, 2.0)]
    for f, a, b in finite:
        assert integrate_finite(f, a, b) == _reference_finite(f, a, b)
    tails = [(FS, 0.0), (FS, -8.0), (lambda x: np.asarray(x) ** 2 * FS(x), 0.0),
             (lambda x: np.exp(0.8 * np.asarray(x)), 0.0)]  # slow decay: levels up to 9, 5 splits
    for f, c in tails:
        assert integrate_lower_tail(f, c) == _reference_lower_tail(f, c)


def test_one_integrand_call_when_level_one_converges():
    for integrate, f, args in ((integrate_finite, lambda x: x**3 - x, (-2.0, 0.0)),
                               (integrate_lower_tail, FS, (0.0,))):
        counted = _Counted(f)
        integrate(counted, *args)
        assert counted.calls == 1


def test_each_deeper_level_is_one_more_call():
    power = lambda x: np.asarray(x) ** 1.5  # the endpoint singularity needs level 5
    fused, per_level = _Counted(power), _Counted(power)
    assert integrate_finite(fused, 0.0, 1.0) == _reference_finite(per_level, 0.0, 1.0)
    assert per_level.calls > 3 and fused.calls == per_level.calls - 1


def test_non_finite_value_at_level_one_only_diverges():
    level0 = quadrature._finite_grid(0.0, 1.0, 2)[0]
    level1 = quadrature._finite_grid(0.0, 1.0, 4)[0]
    spike = next(x for x in level1 if x not in level0)
    f = lambda x: np.where(np.asarray(x) == spike, np.nan, 1.0)
    with pytest.raises(DivergenceError, match="not finite on the quadrature grid"):
        integrate_finite(f, 0.0, 1.0)


def test_constant_on_tail_divergence_message():
    with pytest.raises(DivergenceError) as info:
        integrate_lower_tail(lambda x: np.ones_like(np.asarray(x, dtype=float)), 0.0)
    assert str(info.value) == "4 successive refinements failed to contract (last change 1.386e+00)"


def test_level_cap_leaves_a_length_2_chart_every_refinement(monkeypatch):
    # each level's value halves the last change, so only the depth or the cap stops it
    monkeypatch.setattr(quadrature, "_level_sums",
                        lambda block, grids: np.array([[1.0 / nodes.size for nodes, _ in grids]] * len(block)))
    try:
        with pytest.raises(DivergenceError, match=f"within {quadrature.MAX_REFINEMENTS} refinements"):
            integrate_finite(np.sin, -2.0, 0.0)
        with pytest.raises(DivergenceError, match="a level of 81920 panels .* exceeds the cap"):
            integrate_finite(np.sin, -2.5, 0.0)
    finally:
        quadrature._finite_grid.cache_clear()  # drop the 16 MiB of deep levels


def _outcomes(values):
    return [(type(v), str(v)) if isinstance(v, DivergenceError) else v for v in values]


def _one_at_a_time(integrate, f, *args):
    try:
        return integrate(f, *args)
    except DivergenceError as exc:
        return exc


@pytest.mark.parametrize("integrate, args, sources, slow", [
    # level 1 settles the trees but the pole 1/x; |x|^1.5 needs level 5
    (integrate_finite, (-1.0, 0.0), ["x^3-x", "exp(x)", "1/x", "3"], lambda x: np.abs(x) ** 1.5),
    # level 1 settles the trees but the constant, which diverges; exp(0.8 x) needs level 9
    (integrate_lower_tail, (0.0,), ["2*exp(2*x)/(1+exp(2*x))^2", "x^2*2*exp(2*x)/(1+exp(2*x))^2", "1"],
     lambda x: np.exp(0.8 * x)),
])
def test_batch_equals_one_at_a_time_bitwise(integrate, args, sources, slow):
    trees = [parse_expression(s) for s in sources]
    integrands = [*trees, trees[0].diff(), slow]  # a derivative sharing subtrees, and a plain callable
    batch = integrate(integrands, *args)
    assert _outcomes(batch) == _outcomes([_one_at_a_time(integrate, f, *args) for f in integrands])
    assert sum(isinstance(v, DivergenceError) for v in batch) == 1


def test_deeper_levels_walk_only_the_integrands_still_refining():
    fast, slow = _Counted(lambda x: x**3 - x), _Counted(lambda x: np.abs(x) ** 1.5)
    alone = _Counted(slow.f)
    integrate_finite([fast, slow], -1.0, 0.0)
    integrate_finite(alone, -1.0, 0.0)
    assert fast.calls == 1 and slow.calls == alone.calls > 3


def test_cached_grids_are_read_only():
    for nodes, half in (quadrature._finite_grid(-1.0, 0.0, 2), quadrature._tail_grid(quadrature.TAIL_LEVELS, 1)):
        for array in (nodes, half):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


# -- families: a tree with (F, 1) column literals is F integrands --------------

def _column(*values):
    return np.array(values, dtype=float)[:, None]


def _family_and_rows(c0, c1, source):
    """c0 + c1 * tree(source) with column literals, and the same tree for each row with float literals."""
    from trophodge.expressions import Add, Mul, Num

    tree = parse_expression(source)
    family = Add(Num(_column(*c0)), Mul(Num(_column(*c1)), tree))
    return family, [Add(Num(a), Mul(Num(b), tree)) for a, b in zip(c0, c1)]


def test_a_divergent_row_gets_its_own_error_and_the_others_keep_their_values():
    # on a leg: row 1 is eventually the constant 1, row 3 is infinite everywhere
    family, rows = _family_and_rows([0.0, 1.0, 0.0, math.inf], [1.0, 1.0, -3.0, 1.0], "2*exp(2*x)/(1+exp(2*x))^2")
    values = integrate_lower_tail(family, 0.0)
    assert len(values) == 4
    assert [values[0], values[2]] == [integrate_lower_tail(rows[0], 0.0), integrate_lower_tail(rows[2], 0.0)]
    with pytest.raises(DivergenceError) as alone:
        integrate_lower_tail(rows[1], 0.0)
    assert isinstance(values[1], DivergenceError) and str(values[1]) == str(alone.value)
    assert isinstance(values[3], DivergenceError) and str(values[3]) == "integrand is not finite on the quadrature grid"
    # among other integrands, in one call
    batch = integrate_lower_tail([rows[0], family, FS], 0.0)
    assert batch[0] == values[0] and batch[2] == integrate_lower_tail(FS, 0.0)
    assert _outcomes(batch[1]) == _outcomes(values)


def test_rows_refine_each_on_their_own():
    # row 0 settles at level 1, row 1 (|x|^1.5 scaled by 0) too, row 2 needs level 5
    from trophodge.expressions import Add, Mul, Num, Opaque

    power = Opaque(lambda x: np.abs(x) ** 1.5)
    cube = parse_expression("x^3-x")
    family = Add(Mul(Num(_column(1.0, 2.0, 0.0)), cube), Mul(Num(_column(0.0, 0.0, 1.0)), power))
    single = [Add(Mul(Num(a), cube), Mul(Num(b), power)) for a, b in ((1.0, 0.0), (2.0, 0.0), (0.0, 1.0))]
    assert integrate_finite(family, -1.0, 0.0) == [integrate_finite(f, -1.0, 0.0) for f in single]


@pytest.mark.parametrize("cells", [1, 96, 200])
def test_rows_walked_in_groups_give_the_same_bits(monkeypatch, cells):
    # the first walk reads levels 0 and 1 on [-1, 0], 96 nodes: 1 and 96 cells allow one row per walk, 200 two
    family, rows = _family_and_rows([0.5, -1.0, 2.0, 0.25, 3.0], [1.0, 2.0, -1.0, 0.5, 0.0], "exp(x)*x^2")
    other, _ = _family_and_rows([1.0, 1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0, 4.0], "x")
    together = integrate_finite([family, other, FS], -1.0, 0.0)
    walks = []
    real_walk = quadrature._walk

    def counting(roots, x, select=None):
        roots = list(roots)
        walks.append((len(roots) * (1 if select is None else len(select)), x.size))
        return real_walk(roots, x, select)

    monkeypatch.setattr(quadrature, "WALK_CELLS", cells)
    monkeypatch.setattr(quadrature, "_walk", counting)
    assert integrate_finite([family, other, FS], -1.0, 0.0) == together
    assert together[0] == [integrate_finite(f, -1.0, 0.0) for f in rows]
    assert all(height == 1 or height * nodes <= cells for height, nodes in walks)
    assert max(height for height, _ in walks) == max(1, cells // 96)
