import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense_laplacian, make_fixture_forms, random_form

from ratecalc import (
    ConfigError,
    FiniteDirichletForm,
    MathDomainError,
    SingularityError,
    SolverConfig,
    Tabulated,
    brute_force_oracle,
    build_birth_death,
    certify_inequality,
    dominates,
    empirical_rate,
    entropy,
    optimal_value,
    optconst,
    spectral_gap,
)

CFG = SolverConfig(seed=3)


class TestOptimalSp:
    def test_single_state_is_one(self):
        form = FiniteDirichletForm(mu=np.array([1.0]), edges=[])
        for s in (0.01, 1.0, 100.0):
            assert optimal_value(form, "SP", s, CFG) == 1.0

    def test_large_s_forces_constant_optimum(self, two_point_uniform):
        assert optimal_value(two_point_uniform, "SP", 10.0, CFG) == pytest.approx(1.0, abs=1e-6)

    def test_matches_oracle_small_s(self, fixture_forms):
        form = fixture_forms["path3_skewed"]
        for s in (0.01, 0.1, 1.0):
            sol = optimal_value(form, "SP", s, CFG)
            ora = brute_force_oracle(form, "SP", s, 1e-3)
            assert sol == pytest.approx(ora, rel=0.01)

    def test_always_at_least_one(self, monkeypatch):
        rng = np.random.default_rng(21)
        from conftest import random_form

        monkeypatch.setattr(optconst, "_MAX_ITERS", 120)
        quick = SolverConfig(restarts=5, seed=1)
        for _ in range(25):
            form = random_form(rng, n_max=4)
            s = float(rng.uniform(1e-3, 10.0))
            assert optimal_value(form, "SP", s, quick) >= 1.0


class TestOptimalSl:
    def test_large_s_is_zero(self, two_point_uniform):
        assert optimal_value(two_point_uniform, "SL", 100.0, CFG) == pytest.approx(0.0, abs=1e-6)

    def test_nonincreasing_in_s(self, fixture_forms):
        form = fixture_forms["tri_skewed"]
        vals = [optimal_value(form, "SL", s, CFG) for s in (0.01, 0.1, 1.0)]
        assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9

    def test_matches_oracle(self, fixture_forms):
        form = fixture_forms["path3_uniform"]
        for s in (0.01, 0.1):
            sol = optimal_value(form, "SL", s, CFG)
            ora = brute_force_oracle(form, "SL", s, 1e-3)
            assert sol == pytest.approx(ora, rel=0.01, abs=1e-9)


class TestOptimalWl:
    def test_zero_above_log_inverse_min_mass(self, fixture_forms):
        for name in ("two_uniform", "path3_uniform"):
            form = fixture_forms[name]
            s = math.log(1.0 / float(np.min(form.mu))) + 0.05
            assert brute_force_oracle(form, "WL", s, 1e-3) == pytest.approx(0.0, abs=1e-9)
            assert optimal_value(form, "WL", s, CFG) == pytest.approx(0.0, abs=1e-9)

    def test_matches_oracle_small_s(self, two_point_uniform):
        sol = optimal_value(two_point_uniform, "WL", 0.01, CFG)
        ora = brute_force_oracle(two_point_uniform, "WL", 0.01, 1e-3)
        assert sol == pytest.approx(ora, rel=0.01)

    def test_nonincreasing_in_s(self, fixture_forms):
        form = fixture_forms["tri_uniform"]
        vals = [optimal_value(form, "WL", s, CFG) for s in (0.001, 0.01, 0.1)]
        assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9


class TestOptimalWp:
    def test_zero_for_s_at_least_one(self, two_point_uniform):
        assert optimal_value(two_point_uniform, "WP", 1.0, CFG) == 0.0

    def test_oracle_quarter_on_two_point(self, two_point_uniform):
        # Var/E = 1/4 for every nonconstant f on this form, even at s = 0.
        assert brute_force_oracle(two_point_uniform, "WP", 0.0, 1e-3) == pytest.approx(0.25, rel=1e-4)

    def test_small_s_recovers_poincare_constant(self, fixture_forms):
        for form in fixture_forms.values():
            wp = optimal_value(form, "WP", 1e-8, CFG)
            assert wp == pytest.approx(spectral_gap(form).poincare_constant, rel=0.02)


def _reference_direction_rows(n, resolution, signed):
    """The oracle's directions as (m, n) rows, gathered from flat indices."""
    if n == 1:
        yield np.ones((1, 1))
        return
    spans = [math.pi / 2] * (n - 1) if not signed else [math.pi] * (n - 2) + [2 * math.pi]
    axes = [np.linspace(0.0, span, int(round(span / resolution)) + 1) for span in spans]
    cos = [np.cos(a) for a in axes]
    sin = [np.sin(a) for a in axes]
    shape = tuple(a.size for a in axes)
    total = math.prod(shape)
    for start in range(0, total, 200_000):
        idx = np.unravel_index(np.arange(start, min(start + 200_000, total)), shape)
        f = np.empty((idx[0].size, n))
        sin_prod = np.ones(idx[0].size)
        for i in range(n - 1):
            f[:, i] = sin_prod * cos[i][idx[i]]
            sin_prod = sin_prod * sin[i][idx[i]]
        f[:, n - 1] = sin_prod
        yield f


def reference_oracle(form, kind, s, resolution):
    """Row-wise angular scan: energy_many, row moments and row maxima per direction."""
    mu = form.mu
    wmax = float(np.max(form.edges[2], initial=0.0))
    e_floor = 1e-14 * max(wmax, 1e-30)
    best = -math.inf
    for F in _reference_direction_rows(form.n, resolution, kind == "WP"):
        E = form.energy_many(F)
        F2 = F * F
        m2 = F2 @ mu
        if kind == "SP":
            m1 = np.abs(F) @ mu
            vals = (m2 - s * E) / np.maximum(m1 * m1, 1e-300)
        elif kind == "SL":
            terms = F2 * np.log(np.maximum(F2, 1e-300))
            ent = terms @ mu - m2 * np.log(np.maximum(m2, 1e-300))
            vals = np.maximum(ent, 0.0) / np.maximum(m2, 1e-300)
            vals = vals - s * E / np.maximum(m2, 1e-300)
        elif kind == "WL":
            terms = F2 * np.log(np.maximum(F2, 1e-300))
            ent = np.maximum(terms @ mu - m2 * np.log(np.maximum(m2, 1e-300)), 0.0)
            sup2 = np.max(F, axis=1) ** 2
            ok = E > e_floor * np.max(F2, axis=1)
            vals = np.where(ok, (ent - s * sup2) / np.maximum(E, 1e-300), -np.inf)
        else:
            m = F @ mu
            var = F2 @ mu - m * m
            sup2 = np.max(np.abs(F), axis=1) ** 2
            ok = E > e_floor * np.max(F2, axis=1)
            vals = np.where(ok, (var - s * sup2) / np.maximum(E, 1e-300), -np.inf)
        best = max(best, float(vals.max()))
    return max(best, 1.0 if kind == "SP" else 0.0)


def _streamed_direction_blocks(n, resolution, signed, block=1 << 14):
    """The oracle's directions in the streamed layout it had before tiling, as (n, m) column blocks.

    Runs of consecutive flat indices, each a range of outer indices (all
    axes but the last) times a slice of the last axis, at most ``block``
    directions; the outer factors are gathered once per outer index and
    broadcast along the slice.
    """
    if n == 1:
        yield np.ones((1, 1))
        return
    axes = [np.linspace(0.0, span, size) for span, size in optconst._direction_axes(n, resolution, signed)]
    cos = [np.cos(a) for a in axes]
    sin = [np.sin(a) for a in axes]
    outer = tuple(a.size for a in axes[:-1])
    last = axes[-1].size
    rows = max(1, block // last)
    width = min(last, block)
    n_outer = math.prod(outer)
    for o in range(0, n_outer, rows):
        idx = np.unravel_index(np.arange(o, min(o + rows, n_outer)), (1, *outer))[1:]
        sin_prod = np.ones(min(rows, n_outer - o))
        heads = []
        for i in range(n - 2):
            heads.append(sin_prod * cos[i][idx[i]])
            sin_prod = sin_prod * sin[i][idx[i]]
        for a in range(0, last, width):
            b = min(a + width, last)
            F = np.empty((n, sin_prod.size, b - a))
            for i, head in enumerate(heads):
                F[i] = head[:, None]
            np.multiply.outer(sin_prod, cos[-1][a:b], out=F[n - 2])
            np.multiply.outer(sin_prod, sin[-1][a:b], out=F[n - 1])
            yield F.reshape(n, -1)


def streamed_oracle(form, kind, s, resolution):
    """The full column-wise scan of every direction, block by block, as the oracle ran before tiling."""
    mu = form.mu
    edges = list(zip(*form.edges))
    best = -math.inf
    wmax = float(np.max(form.edges[2], initial=0.0))
    e_floor = 1e-14 * max(wmax, 1e-30)
    for F in _streamed_direction_blocks(form.n, resolution, kind == "WP"):
        E = np.zeros(F.shape[1])
        for i, j, w in edges:
            E += w * (F[i] - F[j]) ** 2
        F2 = F * F
        m2 = mu @ F2
        if kind == "SP":
            m1 = mu @ np.abs(F)
            vals = (m2 - s * E) / np.maximum(m1 * m1, 1e-300)
        elif kind == "SL":
            terms = F2 * np.log(np.maximum(F2, 1e-300))
            ent = mu @ terms - m2 * np.log(np.maximum(m2, 1e-300))
            vals = np.maximum(ent, 0.0) / np.maximum(m2, 1e-300)
            vals = vals - s * E / np.maximum(m2, 1e-300)
        else:
            sup2 = np.max(F2, axis=0)
            if kind == "WL":
                terms = F2 * np.log(np.maximum(F2, 1e-300))
                top = np.maximum(mu @ terms - m2 * np.log(np.maximum(m2, 1e-300)), 0.0)
            else:
                m = mu @ F
                top = m2 - m * m
            ok = E > e_floor * sup2
            vals = np.where(ok, (top - s * sup2) / np.maximum(E, 1e-300), -np.inf)
        best = max(best, float(vals.max()))
    return max(best, 1.0 if kind == "SP" else 0.0)


def _meshgrid_directions(n, resolution, signed):
    """Every direction of the oracle grid as (m, n) rows, from a meshgrid of its angles."""
    spans = [math.pi / 2] * (n - 1) if not signed else [math.pi] * (n - 2) + [2 * math.pi]
    axes = [np.linspace(0.0, sp, int(round(sp / resolution)) + 1) for sp in spans]
    phis = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    grid = np.empty((phis.shape[0], n))
    sin_prod = np.ones(phis.shape[0])
    for i in range(n - 1):
        grid[:, i] = sin_prod * np.cos(phis[:, i])
        sin_prod = sin_prod * np.sin(phis[:, i])
    grid[:, n - 1] = sin_prod
    return grid


def _tile_blocks(tiles):
    """Every tile, in order, gathered as the scan gathers them: (tile ids, (n, m) block)."""
    for a in range(0, tiles.count, tiles.per_block):
        ids = np.arange(a, min(a + tiles.per_block, tiles.count))
        yield ids, tiles.directions(ids)


def _tile_order(tiles):
    """The grid's flat indices in the order the tiles list them: by tile, then in C order inside it."""
    sizes = [table.size for table in tiles.cos]
    j = np.unravel_index(np.arange(math.prod(sizes)), sizes)
    tile = np.ravel_multi_index([jk // tiles.side for jk in j], tiles.shape)
    return np.lexsort(j[::-1] + (tile,))


def _four_state_path():
    return FiniteDirichletForm(mu=np.full(4, 0.25), edges=[(i, i + 1, 1.0) for i in range(3)])


def _exact_gap(form):
    """The exact gap of a form's stored mu and weights on two or three states.

    The nonzero eigenvalues of M^-1 L are then trace on two states, and the
    roots of x^2 - trace x + minors on three (minors the sum of the
    principal 2x2 minors); trace and minors are taken in rationals."""
    n = form.n
    m = [Fraction(x) for x in form.mu.tolist()]
    L = [[Fraction(0)] * n for _ in range(n)]
    for i, j, w in zip(*(a.tolist() for a in form.edges)):
        L[i][j] = L[j][i] = -Fraction(w)
        L[i][i] += Fraction(w)
        L[j][j] += Fraction(w)
    trace = sum(L[i][i] / m[i] for i in range(n))
    if n == 2:
        return float(trace)
    assert n == 3
    minors = sum((L[i][i] * L[j][j] - L[i][j] ** 2) / (m[i] * m[j]) for i in range(n) for j in range(i + 1, n))
    return float(2 * minors / (trace + Fraction(math.sqrt(trace * trace - 4 * minors))))


class TestOracle:
    def test_rejects_large_forms(self):
        rng = np.random.default_rng(30)
        from conftest import random_form

        form = random_form(rng, n_max=8)
        while form.n <= 4:
            form = random_form(rng, n_max=8)
        with pytest.raises(ConfigError):
            brute_force_oracle(form, "SP", 0.1, 1e-2)

    def test_rejects_coarse_resolution(self, two_point_uniform):
        with pytest.raises(ConfigError):
            brute_force_oracle(two_point_uniform, "SP", 0.1, 0.5)

    def test_single_state_sp(self):
        form = FiniteDirichletForm(mu=np.array([1.0]), edges=[])
        assert brute_force_oracle(form, "SP", 0.1, 1e-2) == 1.0

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, -1.0, -1e-300, True, np.bool_(False), "0.1"])
    @pytest.mark.parametrize("kind", ["SP", "WL", "WP"])
    def test_rejects_s_outside_domain_up_front(self, fixture_forms, monkeypatch, kind, s):
        # nan and inf used to return the floor, and s = -1 gave 4319 for WL.
        def unreachable(*args):
            raise AssertionError("the scan was set up")

        monkeypatch.setattr(optconst, "_direction_axes", unreachable)
        monkeypatch.setattr(optconst, "_AngleTiles", unreachable)
        monkeypatch.setattr(optconst, "_tile_bounds", unreachable)
        monkeypatch.setattr(optconst, "_oracle_values", unreachable)
        with pytest.raises(MathDomainError):
            brute_force_oracle(fixture_forms["tri_skewed"], kind, s, 1e-2)

    def test_zero_s_admitted(self, fixture_forms):
        form = fixture_forms["tri_skewed"]
        assert brute_force_oracle(form, "WL", 0, 1e-2) == brute_force_oracle(form, "WL", 0.0, 1e-2) > 0

    @pytest.mark.parametrize("block", [None, 997, 50])
    def test_streamed_directions_match_meshgrid(self, monkeypatch, block):
        # The tile blocks hold every grid direction exactly once, with the meshgrid's bits.
        if block is not None:
            monkeypatch.setattr(optconst, "_ORACLE_BLOCK", block)
        for n, res in ((2, 1e-2), (3, 1e-2), (4, 5e-2)):
            for signed in (False, True):
                grid = _meshgrid_directions(n, res, signed)
                tiles = optconst._AngleTiles(n, res, signed)
                streamed = np.concatenate([b.T for _, b in _tile_blocks(tiles)])
                assert np.array_equal(streamed, grid[_tile_order(tiles)]), (n, signed)

    def test_memory_bounded_by_block(self, fixture_forms):
        # The signed 3-state grid at 2e-3 has 1572 * 3143 directions:
        # 4.9M x 3 floats, about 118 MB if it were held at once.
        grid_bytes = 1572 * 3143 * 3 * 8
        tracemalloc.start()
        try:
            brute_force_oracle(fixture_forms["tri_skewed"], "WP", 0.1, 2e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes / 2

    @pytest.mark.parametrize("block", [None, 997, 50])
    def test_blocks_hold_at_most_one_block_of_directions(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(optconst, "_ORACLE_BLOCK", block)
        for n, signed in ((2, False), (2, True), (3, False), (3, True), (4, False)):
            total = 0
            tiles = optconst._AngleTiles(n, 1e-2, signed)
            assert 0 < tiles.side ** (n - 1) <= max(1, optconst._ORACLE_BLOCK // 16)
            for _, b in _tile_blocks(tiles):
                assert b.shape[0] == n and 0 < b.shape[1] <= optconst._ORACLE_BLOCK
                total += b.shape[1]
            assert total == (158 if not signed else 315) ** (n - 2) * (158 if not signed else 629)

    def test_memory_bounded_by_block_along_the_last_axis(self, monkeypatch, two_point_uniform):
        # At 1e-5 the single axis of a 2-state SP scan has 157 081 points,
        # 125 times the block: the cos/sin tables are the only arrays that
        # span the axis, and the kernel works on one block at a time.
        block = 1256
        monkeypatch.setattr(optconst, "_ORACLE_BLOCK", block)
        points = int(round(math.pi / 2 / 1e-5)) + 1
        tables = 3 * points * 8
        block_bytes = 2 * block * 8
        tracemalloc.start()
        try:
            value = brute_force_oracle(two_point_uniform, "SP", 0.1, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == reference_oracle(two_point_uniform, "SP", 0.1, 1e-5)
        assert peak < tables + 16 * block_bytes

    def test_direction_budget_refused_up_front(self):
        # n = 4 at 1e-3 is 1572^3 = 3.9e9 directions (31 GB per column).
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="exceeds the limit"):
                brute_force_oracle(_four_state_path(), "SP", 0.1, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_direction_budget_boundary(self, monkeypatch, fixture_forms):
        form = fixture_forms["path3_skewed"]
        count = 315 * 629  # signed 3-state grid at 1e-2
        monkeypatch.setattr(optconst, "_ORACLE_MAX_DIRECTIONS", count)
        assert brute_force_oracle(form, "WP", 0.1, 1e-2) == reference_oracle(form, "WP", 0.1, 1e-2)
        monkeypatch.setattr(optconst, "_ORACLE_MAX_DIRECTIONS", count - 1)
        with pytest.raises(ConfigError):
            brute_force_oracle(form, "WP", 0.1, 1e-2)

    def test_four_state_coarse_scan_matches_reference(self):
        form = _four_state_path()
        for kind in ("SP", "WL"):
            got = brute_force_oracle(form, kind, 0.1, 1e-2)
            assert got == pytest.approx(reference_oracle(form, kind, 0.1, 1e-2), rel=1e-12, abs=0.0), kind

    def test_matches_row_wise_reference(self, fixture_forms):
        for name, form in fixture_forms.items():
            for kind in ("SP", "SL", "WL", "WP"):
                for s in (0.01, 0.1, 1.0):
                    got = brute_force_oracle(form, kind, s, 5e-3)
                    want = reference_oracle(form, kind, s, 5e-3)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (name, kind, s)

    def test_resolution_self_consistency(self, fixture_forms):
        form = fixture_forms["path3_skewed"]
        for kind in ("SP", "SL", "WL", "WP"):
            a = brute_force_oracle(form, kind, 0.05, 2e-3)
            b = brute_force_oracle(form, kind, 0.05, 1e-3)
            assert a == pytest.approx(b, rel=5e-3, abs=1e-9)


def _forms_of_sizes(seed, sizes):
    """One conftest.random_form per requested state count, drawn in order from one generator."""
    from conftest import random_form

    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        form = random_form(rng, n_max=4)
        while form.n != n:
            form = random_form(rng, n_max=4)
        out.append(form)
    return out


def _oracle_gap(form, kind):
    """The spectral gap the oracle's WP bound uses; None where it has none."""
    if kind != "WP":
        return None
    try:
        return spectral_gap(form).gap
    except SingularityError:
        return None


def _tile_maxima(tiles, form, kind, s):
    """The largest value _oracle_values computes on each tile's directions, in the scan's blocks."""
    edges = list(zip(*form.edges))
    e_floor = 1e-14 * max(float(np.max(form.edges[2], initial=0.0)), 1e-30)
    out = np.empty(tiles.count)
    for ids, F in _tile_blocks(tiles):
        first = np.unravel_index(ids, tiles.shape)
        sizes = np.ones(ids.size, dtype=int)
        for i, table in enumerate(tiles.cos):
            sizes *= np.minimum(tiles.side, table.size - first[i] * tiles.side)
        vals = optconst._oracle_values(kind, F, s, form.mu, edges, e_floor)
        out[ids] = np.maximum.reduceat(vals, np.concatenate([[0], np.cumsum(sizes)[:-1]]))
    return out


def _bound_shortfalls(form, kind, s, resolution):
    """Tiles whose bound is below the largest value computed on their directions, as (tile, bound, max)."""
    signed = kind == "WP"
    tiles = optconst._AngleTiles(form.n, resolution, signed)
    lo, hi = tiles.enclosures(np.arange(tiles.count))
    bounds = optconst._tile_bounds(kind, form, s, lo, hi, _oracle_gap(form, kind))
    maxima = _tile_maxima(tiles, form, kind, s)
    bad = np.flatnonzero(~(bounds >= maxima))
    return [(int(t), float(bounds[t]), float(maxima[t])) for t in bad[:3]]


TRADE_OFFS = (0.0, 1e-3, 0.01, 0.1, 1.0, 10.0)


class TestTiledOracle:
    @pytest.mark.parametrize("name", sorted(make_fixture_forms()))
    def test_matches_streamed_scan_on_fixtures(self, fixture_forms, name):
        form = fixture_forms[name]
        for kind in ("SP", "SL", "WL", "WP"):
            for s in (1e-3, 0.1, 1.0):
                got = brute_force_oracle(form, kind, s, 1e-3)
                assert repr(got) == repr(streamed_oracle(form, kind, s, 1e-3)), (kind, s)

    @pytest.mark.parametrize("name", ["tri_uniform", "path3_uniform"])
    @pytest.mark.parametrize("kind", ["WL", "WP"])
    def test_matches_streamed_scan_at_zero(self, fixture_forms, name, kind):
        form = fixture_forms[name]
        assert repr(brute_force_oracle(form, kind, 0.0, 1e-3)) == repr(streamed_oracle(form, kind, 0.0, 1e-3))

    def test_matches_streamed_scan_on_random_forms(self):
        for form in _forms_of_sizes(41, (2, 2, 3, 3, 4)):
            for kind in ("SP", "SL", "WL", "WP"):
                for s in (0.0, 0.01, 1.0) if form.n < 4 else (0.1,):
                    got = brute_force_oracle(form, kind, s, 1e-2)
                    assert repr(got) == repr(streamed_oracle(form, kind, s, 1e-2)), (form.n, kind, s)

    @pytest.mark.parametrize("n, resolution", [(2, 1e-3), (3, 1e-2), (4, 5e-2)])
    def test_bound_holds_for_computed_values(self, n, resolution):
        for form in _forms_of_sizes(7 + n, (n, n)):
            for kind in ("SP", "SL", "WL", "WP"):
                for s in TRADE_OFFS:
                    assert _bound_shortfalls(form, kind, s, resolution) == [], (kind, s)

    @pytest.mark.parametrize("n, resolution", [(2, 1e-2), (3, 5e-2), (4, 1e-1)])
    def test_bound_holds_on_tiles_of_a_few_directions(self, monkeypatch, n, resolution):
        # Tiles of 1-4 directions leave the interval arithmetic nothing to
        # widen: only the slack separates a bound from the values it bounds.
        monkeypatch.setattr(optconst, "_ORACLE_BLOCK", 64)
        for form in _forms_of_sizes(17 + n, (n,)):
            for kind in ("SP", "SL", "WL", "WP"):
                for s in TRADE_OFFS:
                    assert _bound_shortfalls(form, kind, s, resolution) == [], (kind, s)

    @pytest.mark.parametrize("block", [None, 16])
    def test_bound_holds_next_to_the_constant_direction(self, two_point_uniform, monkeypatch, block):
        # On two states every nonconstant f has Var/E = 1/gap exactly, and at
        # 2*pi/6281 a grid angle lies 1.25e-4 from pi/4, where the computed
        # Var/E exceeds 1/gap by ~1e-8 relative: the Poincare cut must not
        # reach that direction's tile, even when the tile is that one direction.
        if block is not None:
            monkeypatch.setattr(optconst, "_ORACLE_BLOCK", block)
        resolution = 2 * math.pi / 6281
        assert streamed_oracle(two_point_uniform, "WP", 0.0, resolution) > 0.25 * (1 + 1e-9)
        assert _bound_shortfalls(two_point_uniform, "WP", 0.0, resolution) == []
        got = brute_force_oracle(two_point_uniform, "WP", 0.0, resolution)
        assert repr(got) == repr(streamed_oracle(two_point_uniform, "WP", 0.0, resolution))

    def test_poincare_cut_needs_a_gap_eigh_resolves(self, monkeypatch):
        # A mass of 1e-8 puts the generator's norm near 1e8 times its gap,
        # where eigh's error could exceed the cut's 1e-9 margin.
        form = FiniteDirichletForm(mu=np.array([1e-8, 0.5, 0.5 - 1e-8]), edges=[(0, 1, 1.0), (1, 2, 1.0)])
        gaps = []
        real = optconst._tile_bounds

        def recording(kind, form, s, lo, hi, gap):
            gaps.append(gap)
            return real(kind, form, s, lo, hi, gap)

        monkeypatch.setattr(optconst, "_tile_bounds", recording)
        got = brute_force_oracle(form, "WP", 0.1, 1e-2)
        assert gaps and all(g is None for g in gaps)
        assert repr(got) == repr(streamed_oracle(form, "WP", 0.1, 1e-2))
        gaps.clear()
        brute_force_oracle(_four_state_path(), "WP", 0.1, 1e-2)
        assert gaps and all(g == spectral_gap(_four_state_path()).gap for g in gaps)

    @pytest.mark.parametrize("name", list(make_fixture_forms()))
    def test_poincare_cut_kept_where_the_gap_error_is_small(self, fixture_forms, name, monkeypatch):
        # The oracle and SP's floor share one bound on the computed gap's
        # error; it is a true bound here, and so far inside the cut's slack
        # that every tile is bounded with the gap.
        form = fixture_forms[name]
        sg = spectral_gap(form)
        assert abs(sg.gap - _exact_gap(form)) <= optconst._gap_error(sg) * sg.gap
        assert optconst._gap_error(sg) <= 1e-13 < optconst._CUT_SLACK
        gaps = []
        real = optconst._tile_bounds

        def recording(kind, form, s, lo, hi, gap):
            gaps.append(gap)
            return real(kind, form, s, lo, hi, gap)

        monkeypatch.setattr(optconst, "_tile_bounds", recording)
        brute_force_oracle(form, "WP", 0.1, 1e-2)
        assert gaps and all(g == sg.gap for g in gaps)

    def test_prunes_most_of_a_wp_scan(self, fixture_forms, monkeypatch):
        counted = []
        real = optconst._oracle_values

        def counting(kind, F, *args):
            counted.append(F.shape[1])
            return real(kind, F, *args)

        monkeypatch.setattr(optconst, "_oracle_values", counting)
        form = fixture_forms["tri_skewed"]
        got = brute_force_oracle(form, "WP", 0.01, 1e-3)
        assert sum(counted) < 0.05 * 3143 * 6284
        monkeypatch.setattr(optconst, "_oracle_values", real)
        assert repr(got) == repr(streamed_oracle(form, "WP", 0.01, 1e-3))

    def test_unpruned_scan_evaluates_each_direction_once(self, fixture_forms, monkeypatch):
        # Every nonconstant direction of tri_uniform has Var/E = 1/9, so at
        # s = 0 no tile's bound falls below the running maximum.
        counted = []
        real = optconst._oracle_values

        def counting(kind, F, *args):
            counted.append(F.shape[1])
            return real(kind, F, *args)

        monkeypatch.setattr(optconst, "_oracle_values", counting)
        brute_force_oracle(fixture_forms["tri_uniform"], "WP", 0.0, 5e-3)
        assert sum(counted) == 629 * 1258

    def test_wl_above_threshold_is_the_floor(self, fixture_forms, monkeypatch):
        counted = []
        real = optconst._oracle_values

        def counting(kind, F, *args):
            counted.append(F.shape[1])
            return real(kind, F, *args)

        monkeypatch.setattr(optconst, "_oracle_values", counting)
        for name in ("path3_uniform", "path3_skewed", "tri_uniform", "tri_skewed"):
            assert brute_force_oracle(fixture_forms[name], "WL", 1.0, 1e-3) == 0.0, name
        assert sum(counted) < 0.01 * 4 * 1572**2

    def test_four_state_wp_scan_memory(self):
        # 315 * 315 * 629 = 6.2e7 directions, 1.5 GB per coordinate if held at once.
        tracemalloc.start()
        try:
            got = brute_force_oracle(_four_state_path(), "WP", 0.1, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got > 0.0
        assert peak < 16_000_000


class TestTradeOffTypes:
    @pytest.mark.parametrize("s", [np.float32(0.1), np.float64(0.1), np.int64(1), 1])
    def test_oracle_takes_any_real_scalar(self, fixture_forms, s):
        form = fixture_forms["path3_skewed"]
        for kind in ("SP", "WP"):
            assert brute_force_oracle(form, kind, s, 1e-2) == brute_force_oracle(form, kind, float(s), 1e-2)

    @pytest.mark.parametrize("s", [np.float32(0.1), np.int64(1)])
    def test_solver_takes_any_real_scalar(self, two_point_uniform, s, monkeypatch):
        monkeypatch.setattr(optconst, "_MAX_ITERS", 50)
        cfg = SolverConfig(restarts=2, seed=1)
        for kind in optconst.KINDS:
            assert optimal_value(two_point_uniform, kind, s, cfg) == optimal_value(two_point_uniform, kind, float(s), cfg)

    @pytest.mark.parametrize("s", [True, False, np.bool_(True), "1", None, 1 + 0j])
    def test_non_reals_and_bools_refused(self, two_point_uniform, s):
        with pytest.raises(MathDomainError):
            brute_force_oracle(two_point_uniform, "WP", s, 1e-2)
        for kind in optconst.KINDS:
            with pytest.raises(MathDomainError):
                optimal_value(two_point_uniform, kind, s)


class TestEmpiricalRate:
    def test_values_envelope_and_floor(self, fixture_forms):
        form = fixture_forms["two_skewed"]
        emp = empirical_rate(form, "SP", np.geomspace(1e-3, 1.0, 8), CFG)
        vals = np.array(emp.values)
        assert np.all(vals >= 1.0)
        assert np.all(np.diff(vals) <= 1e-12)
        assert emp.sidecar_dict()["envelope_applied"] is True

    def test_envelope_close_to_raw(self, fixture_forms):
        form = fixture_forms["path3_uniform"]
        emp = empirical_rate(form, "SL", np.geomspace(1e-3, 0.5, 8), CFG)
        raw = np.array(emp.stats["raw_values"])
        env = np.array(emp.values)
        scale = np.maximum(np.abs(raw), 1e-9)
        assert np.max((env - raw) / scale) < 0.02

    def test_more_restarts_never_lower(self, fixture_forms):
        form = fixture_forms["tri_skewed"]
        grid = np.geomspace(1e-3, 0.5, 5)
        lo = empirical_rate(form, "SL", grid, SolverConfig(restarts=10, seed=5))
        hi = empirical_rate(form, "SL", grid, SolverConfig(restarts=20, seed=5))
        assert all(h >= l - 1e-12 for h, l in zip(hi.values, lo.values))

    def test_deterministic(self, fixture_forms):
        form = fixture_forms["path3_skewed"]
        grid = np.geomspace(1e-3, 0.5, 5)
        a = empirical_rate(form, "WL", grid, SolverConfig(seed=11))
        b = empirical_rate(form, "WL", grid, SolverConfig(seed=11))
        assert a.values == b.values

    def test_to_tabulated(self, fixture_forms):
        emp = empirical_rate(fixture_forms["two_uniform"], "SP", np.geomspace(1e-3, 1.0, 6), CFG)
        tab = emp.to_tabulated()
        assert tab.eval(1e-3) == emp.values[0]


class TestDominates:
    def test_equal_reference(self):
        emp = empirical_rate(
            FiniteDirichletForm(mu=np.array([0.5, 0.5]), edges=[(0, 1, 1.0)]),
            "SP",
            np.geomspace(1e-2, 1.0, 6),
            CFG,
        )
        ref = emp.to_tabulated()
        rep = dominates(emp, ref)
        assert rep.passed and rep.fitted_constant == pytest.approx(1.0, rel=1e-12)

    def test_double_reference_halves_constant(self):
        from ratecalc import EmpiricalRateFunction

        tab = Tabulated(points=((0.01, 4.0), (1.0, 2.0)))
        emp = EmpiricalRateFunction(
            kind="SP",
            s_grid=(0.01, 1.0),
            values=(8.0, 4.0),
            restarts=1,
            seed=0,
        )
        rep = dominates(emp, tab)
        assert rep.fitted_constant == pytest.approx(2.0, rel=1e-12)
        assert rep.passed


class TestCertification:
    def test_solver_outputs_certified(self, fixture_forms):
        for name in ("two_uniform", "path3_skewed"):
            form = fixture_forms[name]
            for kind in ("SP", "SL", "WL", "WP"):
                for s in (0.05, 0.5):
                    beta = optimal_value(form, kind, s, CFG)
                    ok, worst = certify_inequality(form, kind, s, beta, n_samples=500, seed=9)
                    assert ok, f"{name} {kind} s={s}: margin {worst}"

    def test_too_small_beta_rejected(self, two_point_uniform):
        ok, worst = certify_inequality(two_point_uniform, "SP", 0.01, 0.5, n_samples=500, seed=9)
        assert not ok


# ---------------------------------------------------------------------------
# Batched ascent against a one-start-at-a-time reference
# ---------------------------------------------------------------------------


def _ref_ent_log_term(f, m2):
    f2 = f * f
    logs = np.log(np.maximum(f2, 1e-300)) - math.log(max(m2, 1e-300))
    return np.where(f2 > 1e-300, f * logs, 0.0)


class _ScalarObjective:
    """One test function at a time: the serial solver's projection, value
    and gradient, with BLAS products, kept as a reference."""

    def __init__(self, kind, form, s):
        self.kind, self.form, self.s = kind, form, float(s)
        self.mu, self.lap = form.mu, dense_laplacian(form.n, zip(*form.edges))
        wmax = float(np.max(form.edges[2], initial=0.0))
        self.e_floor = 1e-14 * max(wmax, 1e-30)

    def project(self, f):
        if self.kind in ("SP", "SL"):
            f = np.maximum(f, 0.0)
            nrm = math.sqrt(float(self.mu @ (f * f)))
            return None if nrm < 1e-150 else f / nrm
        f = np.clip(f, 0.0 if self.kind == "WL" else -1.0, 1.0)
        return None if float(np.max(np.abs(f))) < 1e-12 else f

    def value(self, f):
        mu, s = self.mu, self.s
        if self.kind == "SP":
            m1 = float(mu @ np.abs(f))
            if m1 <= 0.0:
                return -math.inf
            return (float(mu @ (f * f)) - s * self.form.energy(f)) / (m1 * m1)
        if self.kind == "SL":
            m2 = float(mu @ (f * f))
            if m2 <= 0.0:
                return -math.inf
            return (entropy(mu, f * f) - s * self.form.energy(f)) / m2
        e = self.form.energy(f)
        if e <= self.e_floor * float(np.max(np.abs(f))) ** 2:
            return -math.inf
        if self.kind == "WL":
            top = entropy(mu, f * f) - s * float(np.max(f)) ** 2
        else:
            m = float(mu @ f)
            top = float(mu @ ((f - m) ** 2)) - s * float(np.max(np.abs(f))) ** 2
        return top / e

    def gradient(self, f):
        mu, s = self.mu, self.s
        lf = self.lap @ f
        if self.kind == "SP":
            m1 = float(mu @ np.abs(f))
            num = float(mu @ (f * f)) - s * self.form.energy(f)
            den = m1 * m1
            gnum = 2.0 * mu * f - 2.0 * s * lf
            gden = 2.0 * m1 * mu * np.sign(f)
            return (gnum * den - num * gden) / max(den * den, 1e-300)
        if self.kind == "SL":
            m2 = float(mu @ (f * f))
            num = entropy(mu, f * f) - s * self.form.energy(f)
            gnum = 2.0 * mu * _ref_ent_log_term(f, m2) - 2.0 * s * lf
            return (gnum * m2 - num * 2.0 * mu * f) / max(m2 * m2, 1e-300)
        e = self.form.energy(f)
        if self.kind == "WL":
            m2 = float(mu @ (f * f))
            num = entropy(mu, f * f) - s * float(np.max(f)) ** 2
            gnum = 2.0 * mu * _ref_ent_log_term(f, m2)
            am = int(np.argmax(f))
        else:
            m = float(mu @ f)
            num = float(mu @ ((f - m) ** 2)) - s * float(np.max(np.abs(f))) ** 2
            gnum = 2.0 * mu * (f - m)
            am = int(np.argmax(np.abs(f)))
        gnum[am] -= 2.0 * s * f[am]
        return (gnum * e - num * 2.0 * lf) / max(e * e, 1e-300)


def _ref_ascend(obj, f0):
    f = obj.project(np.asarray(f0, dtype=float))
    if f is None:
        return None
    val = obj.value(f)
    if not math.isfinite(val):
        return None
    step, stall, iters = optconst._STEP_INIT, 0, 0
    for iters in range(1, optconst._MAX_ITERS + 1):
        g = obj.gradient(f)
        gnorm2 = float(g @ g)
        if not math.isfinite(gnorm2) or gnorm2 < 1e-300:
            break
        alpha, accepted = step, False
        for _ in range(60):
            cand = obj.project(f + alpha * g)
            if cand is not None:
                cval = obj.value(cand)
                if cval > val + optconst._ARMIJO * alpha * gnorm2:
                    accepted = True
                    break
            alpha *= 0.5
            if alpha < optconst._STEP_MIN:
                break
        if not accepted:
            break
        gain = cval - val
        f, val = cand, cval
        step = min(alpha * 2.0, 1e6)
        if gain <= optconst._REL_TOL * (1.0 + abs(val)):
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
    return val, f, iters


def _starts(form, kind, s, cfg):
    obj = optconst._Objective(kind, form)
    structured = np.array(obj.structured_starts())
    m = structured.shape[0] + cfg.restarts
    return obj, optconst._start_block(obj, structured, np.full(m, float(s)), np.arange(m), cfg)


def _at(s, F0):
    """The trade-off s for every row of F0."""
    return np.full(F0.shape[0], float(s))


def _closed_form_floor(form, kind, s):
    """Whether a closed-form bound puts the supremum of ``kind`` at s at its floor, so the
    solver runs no ascent there: SP at s*gap >= 1 + the gap's error bound, WL at s >= 1/e
    and WP at s >= 1."""
    return s >= _floor_edge(form, kind)


def _floor_edge(form, kind):
    """The s from which on ``kind`` takes its closed-form floor on ``form``."""
    if kind == "SP":
        if form.n < 2:
            return math.inf
        sg = spectral_gap(form)
        return (1.0 + 4.0 * form.n**2 * np.finfo(float).eps * sg.largest / sg.gap) / sg.gap
    return {"SL": math.inf, "WL": 1.0 / math.e, "WP": 1.0}[kind]


def _assert_at_most_floor(value, kind):
    """An ascent where the bound holds finds nothing above the floor, up to rounding."""
    floor = optconst._inequality(kind).floor
    assert value <= floor + 8 * np.finfo(float).eps * max(1.0, floor), (kind, value)


def _ref_optimal_value(form, kind, s, cfg):
    """(value, iterations) of the serial solver: one start at a time.  At
    a closed-form floor: the floor and no iterations, once the ascent
    there is seen to find nothing above it."""
    _, starts = _starts(form, kind, s, cfg)
    obj = _ScalarObjective(kind, form, s)
    best, iters = -math.inf, 0
    for f0 in starts:
        res = _ref_ascend(obj, f0)
        if res is not None:
            iters += res[2]
            best = max(best, res[0])
    if _closed_form_floor(form, kind, s):
        _assert_at_most_floor(best, kind)
        return optconst._inequality(kind).floor, 0
    return max(best, optconst._inequality(kind).floor), iters


def _assert_agrees_with_reference(form, grid, cfg, rel):
    iters_ref = iters_new = 0
    for kind in ("SP", "SL", "WL", "WP"):
        for s in grid:
            ref, it_ref = _ref_optimal_value(form, kind, s, cfg)
            val, _, it_new = optimal_value(form, kind, s, cfg, return_vector=True)
            assert val == pytest.approx(ref, rel=rel, abs=1e-12), (kind, s)
            iters_ref += it_ref
            iters_new += it_new
    assert iters_new == pytest.approx(iters_ref, rel=0.01)


class TestBatchedAscent:
    def test_agrees_with_serial_reference_on_fixtures(self, fixture_forms):
        for form in fixture_forms.values():
            _assert_agrees_with_reference(form, (0.01, 0.1, 1.0), CFG, 1e-9)

    def test_agrees_with_serial_reference_on_chain(self):
        # The verify grid of the n = 41 chain.  WP at the smallest s runs
        # its restarts to max_iters, where rounding parts the two paths
        # (1e-5 relative at s = 4e-3); elsewhere they agree to ~1e-14.
        chain = build_birth_death(4.0, 1.0, 2.0, 41)
        grid = [float(s) for s in np.geomspace(1e-3, 1.0, 6)]
        _assert_agrees_with_reference(chain, grid, SolverConfig(seed=7), 1e-4)

    @staticmethod
    def _assert_rows_batch_invariant(form, kind, s, cfg):
        obj, F0 = _starts(form, kind, s, cfg)
        vals, F, iters, ok = optconst._ascend_block(obj, F0, _at(s, F0))
        assert ok.all()
        rev = optconst._ascend_block(obj, F0[::-1], _at(s, F0))
        for i in range(F0.shape[0]):
            v1, f1, it1, ok1 = optconst._ascend_block(obj, F0[i : i + 1], _at(s, F0[i : i + 1]))
            assert (v1[0], it1[0], ok1[0]) == (vals[i], iters[i], ok[i]), (kind, i)
            assert np.array_equal(f1[0], F[i]), (kind, i)
            j = F0.shape[0] - 1 - i
            assert (rev[0][j], rev[2][j]) == (vals[i], iters[i]) and np.array_equal(rev[1][j], F[i])
        return iters

    @pytest.mark.parametrize("kind", ["SP", "SL", "WL", "WP"])
    def test_rows_batch_invariant_on_chain(self, kind):
        chain = build_birth_death(4.0, 1.0, 2.0, 41)
        self._assert_rows_batch_invariant(chain, kind, 0.25, SolverConfig(seed=7))

    def test_rows_batch_invariant_on_three_states(self, fixture_forms):
        for kind in ("SP", "SL", "WL", "WP"):
            iters = self._assert_rows_batch_invariant(fixture_forms["tri_skewed"], kind, 0.1, CFG)
            # Rows stop at different iterations, so the block shrinks.
            assert len(set(iters.tolist())) > 1, kind

    def test_best_row_first_of_ties(self, fixture_forms):
        # Several rows of WP on two_skewed at s = 0.1 reach the same value
        # from different vectors; the solver keeps the first of them.
        form = fixture_forms["two_skewed"]
        obj, F0 = _starts(form, "WP", 0.1, CFG)
        vals, F, _, _ = optconst._ascend_block(obj, F0, _at(0.1, F0))
        ties = np.flatnonzero(vals == vals.max())
        assert ties.size > 1 and not all(np.array_equal(F[ties[0]], F[j]) for j in ties[1:])
        value, f, _ = optimal_value(form, "WP", 0.1, CFG, return_vector=True)
        assert value == vals[ties[0]] and np.array_equal(f, F[ties[0]])

    def test_inadmissible_rows_ignored(self, fixture_forms):
        form = fixture_forms["path3_skewed"]
        obj, F0 = _starts(form, "SP", 0.1, CFG)
        block = np.vstack([-np.ones((1, form.n)), F0])
        vals, F, iters, ok = optconst._ascend_block(obj, block, _at(0.1, block))
        assert not ok[0] and vals[0] == -math.inf and iters[0] == 0
        alone = optconst._ascend_block(obj, F0, _at(0.1, F0))
        assert np.array_equal(vals[1:], alone[0]) and np.array_equal(iters[1:], alone[2])


# ---------------------------------------------------------------------------
# Halving rounds against the one-halving-per-round line search
# ---------------------------------------------------------------------------


def _ascend_block_one_halving_per_round(obj, F0, s):
    """The block ascent whose line search tests one halving per round, kept as a reference."""
    s = np.asarray(s, dtype=float)
    with np.errstate(all="ignore"):
        F, ok = obj.project(np.asarray(F0, dtype=float))
        LF = obj.form.apply(F)
        val = obj.evaluate(F, LF, s)[0]
        ok &= np.isfinite(val)
        val[~ok] = -math.inf
        m = F.shape[0]
        step = np.full(m, optconst._STEP_INIT)
        stall = np.zeros(m, dtype=int)
        iters = np.zeros(m, dtype=int)
        act = np.flatnonzero(ok)
        while act.size:
            iters[act] += 1
            G = obj.grad(F[act], LF[act], s[act], obj.evaluate(F[act], LF[act], s[act])[1])
            g2 = np.einsum("ij,ij->i", G, G)
            live = np.isfinite(g2) & (g2 >= 1e-300)
            act, G, g2 = act[live], G[live], g2[live]
            base, base_val, base_s = F[act], val[act], s[act]
            alpha = step[act]
            new_val = np.empty(act.size)
            accepted = np.zeros(act.size, dtype=bool)
            search = np.arange(act.size)
            for _ in range(60):
                if not search.size:
                    break
                a = alpha[search]
                P, pok = obj.project(base[search] + a[:, None] * G[search])
                LP = obj.form.apply(P)
                pval = obj.evaluate(P, LP, base_s[search])[0]
                good = pok & (pval > base_val[search] + optconst._ARMIJO * a * g2[search])
                hit = search[good]
                F[act[hit]], LF[act[hit]] = P[good], LP[good]
                new_val[hit] = pval[good]
                accepted[hit] = True
                search = search[~good]
                alpha[search] *= 0.5
                search = search[alpha[search] >= optconst._STEP_MIN]
            act, alpha, new_val = act[accepted], alpha[accepted], new_val[accepted]
            gain = new_val - val[act]
            val[act] = new_val
            step[act] = np.minimum(alpha * 2.0, 1e6)
            stall[act] = np.where(gain <= optconst._REL_TOL * (1.0 + np.abs(new_val)), stall[act] + 1, 0)
            act = act[(stall[act] < 3) & (iters[act] < optconst._MAX_ITERS)]
    return val, F, iters, ok


def _grid_block(form, kind, grid, cfg):
    """The objective and the (s, start) rows of a grid solve, with each row's s."""
    obj = optconst._Objective(kind, form)
    structured = np.array(obj.structured_starts())
    per_s = structured.shape[0] + cfg.restarts
    si, start = np.divmod(np.arange(len(grid) * per_s), per_s)
    s = np.asarray(grid, dtype=float)[si]
    return obj, optconst._start_block(obj, structured, s, start, cfg), s


def _assert_line_searches_agree(form, kind, grid, cfg):
    obj, F0, s = _grid_block(form, kind, grid, cfg)
    new = optconst._ascend_block(obj, F0, s)
    ref = _ascend_block_one_halving_per_round(obj, F0, s)
    for got, want, what in zip(new, ref, ("values", "F", "iterations", "ok")):
        assert got.dtype == want.dtype and np.array_equal(got, want), (kind, what)
    return new[2]


class TestHalvingRounds:
    def test_rounds_hold_sixty_candidates(self):
        assert sum(optconst._HALVING_ROUNDS) == 60

    def test_matches_reference_on_chain(self):
        # The verify grid of the n = 41 chain, every kind, one block per kind.
        chain = build_birth_death(4.0, 1.0, 2.0, 41)
        grid = np.geomspace(1e-3, 1.0, 6)
        for kind in optconst.KINDS:
            _assert_line_searches_agree(chain, kind, grid, SolverConfig(seed=7))

    def test_matches_reference_on_fixtures(self, fixture_forms):
        for form in fixture_forms.values():
            for kind in optconst.KINDS:
                _assert_line_searches_agree(form, kind, (0.01, 0.1, 1.0), CFG)

    def test_matches_reference_on_random_forms(self):
        rng = np.random.default_rng(17)
        for i in range(4):
            form = random_form(rng, n_max=8)
            for kind in optconst.KINDS:
                _assert_line_searches_agree(form, kind, (1e-3, 0.05, 0.5), SolverConfig(restarts=6, seed=i))

    @pytest.mark.parametrize("step_init", [1.0, 1e-10, 3e-17])
    def test_rows_that_never_pass_stop_where_the_reference_stops(self, fixture_forms, monkeypatch, step_init):
        # No candidate passes Armijo: from a step of 1 every row tests all 60
        # halvings; from smaller steps the row reaches _STEP_MIN inside a round.
        monkeypatch.setattr(optconst, "_ARMIJO", math.inf)
        monkeypatch.setattr(optconst, "_STEP_INIT", step_init)
        for name in ("two_skewed", "tri_skewed"):
            for kind in optconst.KINDS:
                iters = _assert_line_searches_agree(fixture_forms[name], kind, (0.01, 0.1, 1.0), CFG)
                assert set(iters.tolist()) <= {0, 1}, (name, kind)

    @pytest.mark.parametrize("step_min", [0.05, 1e-4])
    def test_step_floor_stops_rows_where_the_reference_stops(self, monkeypatch, step_min):
        # A floor the halvings reach inside a round: candidates below it would
        # pass Armijo on some rows, and neither line search may test them.
        monkeypatch.setattr(optconst, "_STEP_MIN", step_min)
        chain = build_birth_death(4.0, 1.0, 2.0, 11)
        for kind in optconst.KINDS:
            _assert_line_searches_agree(chain, kind, (1e-3, 0.03, 1.0), SolverConfig(restarts=6, seed=7))

    def test_late_passes_match_reference(self, fixture_forms, monkeypatch):
        # Armijo near 1 accepts only once the step is small enough for the
        # linear model, so accepted candidates fall in every round.
        monkeypatch.setattr(optconst, "_ARMIJO", 0.999)
        for kind in optconst.KINDS:
            _assert_line_searches_agree(fixture_forms["tri_skewed"], kind, (0.01, 0.1, 1.0), CFG)

    def test_stacks_split_at_one_block(self, fixture_forms, monkeypatch):
        # With a block of 2 cells a stack holds at most one row's candidates
        # per round, so a round runs as several stacks.
        monkeypatch.setattr(optconst, "_BLOCK_CELLS", 2)
        form = fixture_forms["path3_skewed"]
        for kind in optconst.KINDS:
            _assert_line_searches_agree(form, kind, (0.01, 0.1), SolverConfig(restarts=4, seed=5))


# ---------------------------------------------------------------------------
# Grid solve against the per-s loop
# ---------------------------------------------------------------------------


def _per_s_solve(form, kind, s, cfg):
    """One s on its own: its starts ascend as one block, and the first best
    admissible row is kept, clamped to the floor; (value, vector, iterations).
    At a closed-form floor: the floor, the constant vector (SP) or the zero
    vector, and no iterations, once the ascent there is seen to find nothing
    above the floor."""
    obj, F0 = _starts(form, kind, s, cfg)
    vals, F, iters, ok = optconst._ascend_block(obj, F0, _at(s, F0))
    floor = optconst._inequality(kind).floor
    if _closed_form_floor(form, kind, s):
        _assert_at_most_floor(vals.max(), kind)
        return floor, obj.project(np.ones((1, form.n)))[0][0] if kind == "SP" else np.zeros(form.n), 0
    if not ok.any():
        return floor, np.zeros(form.n), int(iters.sum())
    best = int(np.argmax(vals))
    return max(float(vals[best]), floor), F[best].copy(), int(iters.sum())


def _assert_grid_matches_per_s_loop(monkeypatch, form, kind, grid, cfg):
    """empirical_rate, and the best vectors of its grid solve, equal the per-s loop's bit for bit."""
    solves = []
    real = optconst._solve_grid

    def recording(*args):
        solves.append(real(*args))
        return solves[-1]

    monkeypatch.setattr(optconst, "_solve_grid", recording)
    emp = empirical_rate(form, kind, grid, cfg)
    monkeypatch.setattr(optconst, "_solve_grid", real)
    ref = [_per_s_solve(form, kind, float(s), cfg) for s in grid]
    values, vectors, iters = solves[0]
    raw = [r[0] for r in ref]
    assert emp.stats["raw_values"] == raw and values.tolist() == raw, kind
    assert np.array_equal(emp.values, np.maximum.accumulate(raw[::-1])[::-1]), kind
    assert all(np.array_equal(v, r[1]) for v, r in zip(vectors, ref)), kind
    assert iters.tolist() == [r[2] for r in ref], kind
    assert emp.stats["iterations_total"] == sum(r[2] for r in ref), kind


class TestGridSolve:
    def test_matches_per_s_loop_on_chain(self, monkeypatch):
        # The verify grid of the n = 41 chain: 6 s x 31 starts fit in one block.
        chain = build_birth_death(4.0, 1.0, 2.0, 41)
        grid = [float(s) for s in np.geomspace(1e-3, 1.0, 6)]
        assert 6 * 31 * chain.n <= optconst._BLOCK_CELLS
        for kind in ("SP", "SL", "WL", "WP"):
            _assert_grid_matches_per_s_loop(monkeypatch, chain, kind, grid, SolverConfig(seed=7))

    def test_matches_per_s_loop_on_fixtures(self, fixture_forms, monkeypatch):
        # WP rows are signed.
        for form in fixture_forms.values():
            for kind in ("SP", "SL", "WL", "WP"):
                _assert_grid_matches_per_s_loop(monkeypatch, form, kind, (0.01, 0.1, 1.0), CFG)

    @pytest.mark.parametrize("rows", ["1", "7", "per_s-1", "per_s+1"])
    def test_blocks_split_inside_one_s(self, fixture_forms, monkeypatch, rows):
        cfg = SolverConfig(restarts=6, seed=3)
        for name in ("two_skewed", "tri_skewed"):
            form = fixture_forms[name]
            per_s = len(optconst._Objective("SP", form).structured_starts()) + cfg.restarts
            block = {"1": 1, "7": 7, "per_s-1": per_s - 1, "per_s+1": per_s + 1}[rows]
            monkeypatch.setattr(optconst, "_BLOCK_CELLS", block * form.n)
            for kind in ("SP", "SL", "WL", "WP"):
                _assert_grid_matches_per_s_loop(monkeypatch, form, kind, (0.01, 0.1, 1.0), cfg)

    def test_point_alone_equals_point_in_longer_grid(self, fixture_forms):
        form = fixture_forms["path3_skewed"]
        grid = np.geomspace(1e-3, 1.0, 9)
        for kind in ("SP", "SL", "WL", "WP"):
            values, vectors, iters = optconst._solve_grid(form, kind, grid, CFG)
            short = empirical_rate(form, kind, grid[3:6], CFG)
            assert short.stats["raw_values"] == values[3:6].tolist()
            for i, s in enumerate(grid):
                value, f, it = optimal_value(form, kind, float(s), CFG, return_vector=True)
                assert (value, it) == (values[i], iters[i]) and np.array_equal(f, vectors[i]), (kind, i)

    @pytest.mark.parametrize("grid", [[math.nan], [0.1, math.nan], [0.1, 0.2, math.inf], [math.nan, 0.1]])
    def test_non_finite_s_raises_math_domain_error(self, fixture_forms, grid):
        with pytest.raises(MathDomainError):
            empirical_rate(fixture_forms["tri_skewed"], "SP", grid, CFG)

    @pytest.mark.parametrize("grid", [[0.2, 0.1], [0.1, 0.1], [math.inf, 0.1], [], [0.0, 0.1]])
    def test_unordered_grid_raises_config_error(self, fixture_forms, grid):
        with pytest.raises(ConfigError):
            empirical_rate(fixture_forms["tri_skewed"], "SP", grid, CFG)

    @pytest.mark.parametrize("kind", ["SP", "WL", "WP"])
    def test_closed_form_floors(self, fixture_forms, kind):
        # Just below its threshold a kind ascends; from the threshold on it
        # takes the floor, with no iterations, and the ascent there (run by
        # the per-s reference) finds nothing above the floor.
        for form in [*fixture_forms.values(), build_birth_death(4.0, 1.0, 2.0, 41)]:
            edge = _floor_edge(form, kind)
            grid = np.array([edge * (1.0 - 1e-3), edge, edge * 1.5])
            values, vectors, iters = optconst._solve_grid(form, kind, grid, SolverConfig(restarts=4, seed=1))
            floor = optconst._inequality(kind).floor
            assert iters[0] > 0 and iters[1:].tolist() == [0, 0], (kind, form.n)
            assert values[1:].tolist() == [floor, floor]
            want = np.full(form.n, 1.0) if kind == "SP" else np.zeros(form.n)
            np.testing.assert_allclose(vectors[1:], [want, want], rtol=1e-12)
            for s in grid[1:]:
                assert _per_s_solve(form, kind, float(s), SolverConfig(restarts=4, seed=1))[0] == floor

    @pytest.mark.parametrize("weak", [1e-4, 1e-7, 1e-9, 3e-10])
    @pytest.mark.parametrize("mu", [(0.2, 0.3, 0.5), (0.001, 0.998, 0.001), (1 / 3, 1 / 3, 1 / 3)])
    def test_sp_floor_margin_covers_the_gap_error(self, weak, mu):
        # A path of three states whose second edge nearly cuts it: gap/largest
        # falls to 1.4e-10, next to spectral_gap's singular cut of 1e-10, and
        # the computed gap errs by up to 2.3e-7 of itself.  SP's floor starts
        # no lower than 1/gap for the exact gap of the stored mu and weights,
        # the smaller root of x^2 - trace x + minors, where trace and minors
        # (the sum of the principal 2x2 minors) of M^-1 L are taken in rationals.
        form = FiniteDirichletForm(mu=mu, edges=((0, 1, 1.0), (1, 2, weak)))
        sg = spectral_gap(form)
        exact = _exact_gap(form)
        assert 1.0 / exact <= optconst._sp_floor_from(sg)
        assert abs(sg.gap - exact) <= optconst._gap_error(sg) * sg.gap

    def test_spectral_gap_once_per_kind(self, fixture_forms, monkeypatch):
        calls = []
        real = optconst.spectral_gap

        def counting(form):
            calls.append(form)
            return real(form)

        monkeypatch.setattr(optconst, "spectral_gap", counting)
        for kind in ("SP", "SL", "WL", "WP"):
            calls.clear()
            empirical_rate(fixture_forms["tri_skewed"], kind, np.geomspace(1e-3, 1.0, 6), CFG)
            assert len(calls) == 1, kind

    def test_one_eigh_per_form(self, monkeypatch):
        # The form keeps its gap: the structured starts of all four kinds
        # and the WP oracle read the one eigh of the first call.
        calls = []
        real = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        form = make_fixture_forms()["tri_skewed"]
        for kind in ("SP", "SL", "WL", "WP"):
            empirical_rate(form, kind, np.geomspace(1e-3, 1.0, 6), CFG)
        brute_force_oracle(form, "WP", 0.1, resolution=1e-2)
        assert calls == [(3, 3)]
        assert spectral_gap(form) is spectral_gap(form)

    def test_memory_bounded_by_block(self, monkeypatch):
        # 400 s x 31 starts x 41 states is 7.8 blocks of cells; the ascent
        # holds one block at a time, so only the per-s results grow.
        chain = build_birth_death(4.0, 1.0, 2.0, 41)
        monkeypatch.setattr(optconst, "_MAX_ITERS", 2)
        cfg = SolverConfig(seed=7)
        peaks = {}
        for count in (6, 400):
            grid = np.geomspace(1e-3, 1.0, count)
            tracemalloc.start()
            try:
                optconst._solve_grid(chain, "SL", grid, cfg)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # One block's ascent holds ~14 block-sized arrays at its peak; the
        # 400-point grid would hold ~110 if it ascended as one block.
        assert 400 * 31 * chain.n > 7 * optconst._BLOCK_CELLS
        assert peaks[400] - peaks[6] < 24 * 8 * optconst._BLOCK_CELLS + 400 * 8 * (chain.n + 4)


class TestSolverConfig:
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_no_restarts(self, restarts):
        with pytest.raises(ConfigError):
            SolverConfig(restarts=restarts)

def _ref_certify_worst(form, kind, s, beta, n_samples, seed, inflation=1e-9):
    """Worst margin of certify_inequality, one sample at a time."""
    rng = np.random.default_rng((int(seed) & 0xFFFFFFFF, optconst._KIND_ID[kind], n_samples))
    mu, b = form.mu, beta * (1.0 + inflation)
    worst = math.inf
    for _ in range(n_samples):
        f = rng.standard_normal(form.n)
        e = form.energy(f)
        if kind == "SP":
            lhs, rhs = float(mu @ (f * f)), s * e + b * float(mu @ np.abs(f)) ** 2
        elif kind == "SL":
            lhs, rhs = entropy(mu, f * f), s * e + b * float(mu @ (f * f))
        elif kind == "WL":
            lhs, rhs = entropy(mu, f * f), b * e + s * float(np.max(np.abs(f))) ** 2
        else:
            m = float(mu @ f)
            lhs, rhs = float(mu @ ((f - m) ** 2)), b * e + s * float(np.max(np.abs(f))) ** 2
        worst = min(worst, (rhs - lhs) / max(1.0, abs(lhs)))
    return worst


class TestCertifyInequality:
    def test_matches_sample_loop(self, fixture_forms):
        for form in fixture_forms.values():
            for kind in ("SP", "SL", "WL", "WP"):
                for s, beta in ((0.05, 0.3), (0.5, 2.0)):
                    ok, worst = certify_inequality(form, kind, s, beta, n_samples=300, seed=4)
                    ref = _ref_certify_worst(form, kind, s, beta, 300, 4)
                    assert worst == pytest.approx(ref, rel=1e-12, abs=1e-12), (kind, s)
                    assert ok == (ref >= -1e-12)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, two_point_uniform, beta):
        with pytest.raises(MathDomainError):
            certify_inequality(two_point_uniform, "SP", 0.01, beta)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_no_samples(self, two_point_uniform, n_samples):
        with pytest.raises(ConfigError):
            certify_inequality(two_point_uniform, "SP", 0.5, 10.0, n_samples=n_samples)

    def test_non_finite_margin_fails(self, two_point_uniform):
        # Where s*b overflows to inf and beta*c to -inf, the margin is NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            ok, worst = certify_inequality(two_point_uniform, "SP", 1e308, -1e308, n_samples=50)
        assert not ok and math.isnan(worst)


# ---------------------------------------------------------------------------
# One (a, b, c) definition per kind against the per-kind value and gradient
# ---------------------------------------------------------------------------


def _ladder_evaluate(obj, F, LF, s):
    """The batched value written out kind by kind, kept as a reference."""
    mu, rowdot = obj.mu, optconst._rowdot
    E = np.maximum(np.einsum("ij,ij->i", F, LF), 0.0)
    F2 = F * F
    if obj.kind == "SP":
        m1 = rowdot(np.abs(F), mu)
        return np.where(m1 > 0.0, (rowdot(F2, mu) - s * E) / (m1 * m1), -math.inf)
    if obj.kind == "SL":
        m2 = rowdot(F2, mu)
        return np.where(m2 > 0.0, (optconst._entropy_rows(F2, m2, mu) - s * E) / m2, -math.inf)
    sup2 = np.max(np.abs(F), axis=1) ** 2
    if obj.kind == "WL":
        top = optconst._entropy_rows(F2, rowdot(F2, mu), mu) - s * np.max(F, axis=1) ** 2
    else:
        m = rowdot(F, mu)
        top = rowdot((F - m[:, None]) ** 2, mu) - s * sup2
    return np.where(E > obj.e_floor * sup2, top / E, -math.inf)


def _ladder_grad(obj, F, LF, s):
    """The batched gradient written out kind by kind, kept as a reference."""
    mu, rowdot = obj.mu, optconst._rowdot
    E = np.maximum(np.einsum("ij,ij->i", F, LF), 0.0)
    F2 = F * F
    if obj.kind == "SP":
        m1 = rowdot(np.abs(F), mu)[:, None]
        num = (rowdot(F2, mu) - s * E)[:, None]
        den = m1 * m1
        gnum = 2.0 * mu * F - 2.0 * s[:, None] * LF
        gden = 2.0 * m1 * mu * np.sign(F)
        return (gnum * den - num * gden) / np.maximum(den * den, 1e-300)
    if obj.kind == "SL":
        m2 = rowdot(F2, mu)
        num = (optconst._entropy_rows(F2, m2, mu) - s * E)[:, None]
        gnum = 2.0 * mu * optconst._ent_log_term(F, F2, m2) - 2.0 * s[:, None] * LF
        m2 = m2[:, None]
        return (gnum * m2 - num * (2.0 * mu * F)) / np.maximum(m2 * m2, 1e-300)
    rows = np.arange(F.shape[0])
    if obj.kind == "WL":
        m2 = rowdot(F2, mu)
        num = optconst._entropy_rows(F2, m2, mu) - s * np.max(F, axis=1) ** 2
        gnum = 2.0 * mu * optconst._ent_log_term(F, F2, m2)
        am = np.argmax(F, axis=1)
    else:
        m = rowdot(F, mu)
        num = rowdot((F - m[:, None]) ** 2, mu) - s * np.max(np.abs(F), axis=1) ** 2
        gnum = 2.0 * mu * (F - m[:, None])
        am = np.argmax(np.abs(F), axis=1)
    gnum[rows, am] -= 2.0 * s * F[rows, am]
    E = E[:, None]
    return (gnum * E - num[:, None] * (2.0 * LF)) / np.maximum(E * E, 1e-300)


def _domain_block(obj, rng):
    """Rows of the kind's domain, and a per-row s.

    Random rows with exact zeros, projected, have in the box ties of the
    largest |f| at 1 (and -1 for WP, where the largest f and the largest
    |f| then sit at different states).  The zero row, a constant row and a
    nearly constant one (0 < E <= e_floor |f|_inf^2 for WL and WP) close
    the block; the last two are inadmissible exactly where c is the energy.
    """
    n = obj.form.n
    special = [np.linspace(-1.0, 1.0, n), np.zeros(n), np.full(n, 0.5), 0.5 + 1e-10 * np.arange(n)]
    raw = rng.uniform(-3.0, 3.0, (60, n))
    raw[rng.random(raw.shape) < 0.2] = 0.0
    F, _ = obj.project(np.vstack([raw, *special]))
    return F, rng.uniform(1e-3, 2.0, F.shape[0])


class TestInequalityDefinition:
    @pytest.mark.parametrize("kind", ["SP", "SL", "WL", "WP"])
    def test_value_and_gradient_match_the_per_kind_reference(self, fixture_forms, kind):
        rng = np.random.default_rng(11)
        forms = [*fixture_forms.values(), build_birth_death(4.0, 1.0, 2.0, 41)]
        for form in forms:
            obj = optconst._Objective(kind, form)
            F, s = _domain_block(obj, rng)
            LF = obj.form.apply(F)
            with np.errstate(all="ignore"):
                pairs = [
                    (obj.evaluate(F, LF, s)[0], _ladder_evaluate(obj, F, LF, s)),
                    (obj.grad(F, LF, s, obj.evaluate(F, LF, s)[1]), _ladder_grad(obj, F, LF, s)),
                ]
            for got, want in pairs:
                assert got.tobytes() == want.tobytes(), (kind, form.n)

    @pytest.mark.parametrize("kind", ["SP", "SL", "WL", "WP"])
    def test_block_holds_inadmissible_rows_and_wp_sign_ties(self, fixture_forms, kind):
        form = fixture_forms["path3_skewed"]
        obj = optconst._Objective(kind, form)
        F, s = _domain_block(obj, np.random.default_rng(11))
        LF = obj.form.apply(F)
        with np.errstate(all="ignore"):
            vals = obj.evaluate(F, LF, s)[0]
        # The zero row, then the constant and nearly constant rows.
        sphere = kind in ("SP", "SL")
        assert np.isneginf(vals[-3:]).tolist() == [True, not sphere, not sphere]
        assert (F[:60] == 0.0).any(axis=1).sum() > 5
        tied = (np.abs(F) == np.abs(F).max(axis=1, keepdims=True)).sum(axis=1) > 1
        assert sphere or (tied & np.isfinite(vals)).sum() > 5
        if kind == "WP":
            assert (np.argmax(F, axis=1) != np.argmax(np.abs(F), axis=1)).sum() > 10

    @pytest.mark.parametrize("kind", ["SP", "SL", "WL", "WP"])
    def test_value_is_the_equality_point_of_the_inequality(self, fixture_forms, kind):
        # At beta = value(f), certify's margin on f, s*b + beta*c - a with
        # E = energy_many(f), vanishes against its largest term (and 1, as
        # certify's margins are scaled by max(1, |a|)).
        rng = np.random.default_rng(5)
        for form in [*fixture_forms.values(), build_birth_death(4.0, 1.0, 2.0, 41)]:
            obj = optconst._Objective(kind, form)
            F, s = _domain_block(obj, rng)
            with np.errstate(all="ignore"):
                vals = obj.evaluate(F, obj.form.apply(F), s)[0]
            ok = np.isfinite(vals)
            F, s, vals = F[ok], s[ok], vals[ok]
            ineq = optconst._INEQUALITIES[kind]
            a, b, c = ineq.terms(F, form.energy_many(F), form.mu)
            scale = np.maximum.reduce([np.ones_like(a), np.abs(a), s * b, np.abs(vals) * c])
            assert np.all(np.abs(s * b + vals * c - a) <= 1e-12 * scale), (kind, form.n)

    @pytest.mark.parametrize("kind", ["SP", "SL"])
    def test_sphere_kinds_ignore_the_energy_floor(self, kind):
        # A heavy edge next to a tiny mass: on the projected row (1, 0), c
        # (SP: mu(|f|)^2 = 1e-12, SL: mu(f^2) = 1) lies below e_floor*b = 1e10,
        # yet the row is admissible, as c > 0 is the rule where c is no energy.
        form = FiniteDirichletForm(mu=np.array([1e-12, 1 - 1e-12]), edges=[(0, 1, 1e6)])
        obj = optconst._Objective(kind, form)
        F, ok = obj.project(np.array([[1.0, 0.0]]))
        LF, s = obj.form.apply(F), np.array([1e-3])
        a, b, c = obj._terms(F, LF)
        assert ok[0] and 0.0 < c[0] < obj.e_floor * b[0]
        value = obj.evaluate(F, LF, s)[0]
        assert np.isfinite(value[0]) and value[0] == ((a - s * b) / c)[0]
