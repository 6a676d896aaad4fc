"""Equal-area segmentation, Latin-square assignment, rotation, lookup."""

import json
import math
from dataclasses import fields
from bisect import bisect_left

import numpy as np
import pytest

from noma_harq.cellplan import (
    CELL_RADIUS,
    CellPlan,
    build_plan,
    locate_segment,
    ring_radii,
)

ALPHAS3 = (0.29, 0.35, 0.36)


class TestRingRadii:
    def test_single_ring(self):
        assert ring_radii(1, 1500.0) == (1500.0,)

    def test_four_rings(self):
        radii = ring_radii(4, 1500.0)
        assert radii[0] == pytest.approx(750.0)
        assert radii[1] == pytest.approx(1060.6602, abs=1e-3)
        assert radii[2] == pytest.approx(1299.0381, abs=1e-3)
        assert radii[3] == pytest.approx(1500.0)

    @pytest.mark.parametrize("n_hat", range(1, 9))
    def test_equal_annulus_areas(self, n_hat):
        r_outer = 1500.0
        radii = (0.0,) + ring_radii(n_hat, r_outer)
        areas = [math.pi * (b**2 - a**2) for a, b in zip(radii, radii[1:])]
        target = math.pi * r_outer**2 / n_hat
        assert all(a == pytest.approx(target, rel=1e-12) for a in areas)
        assert radii[-1] == pytest.approx(r_outer)
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_radii(0, 100.0)
        with pytest.raises(ValueError):
            ring_radii(3, -1.0)


class TestBuildPlan:
    def test_size_is_ratio_count(self):
        plan = build_plan(1500.0, (0.1, 0.2, 0.3, 0.4))
        assert plan.n_hat == len(plan.alphas) == 4
        assert [f.name for f in fields(CellPlan)] == ["r_outer", "alphas", "rotation"]
        with pytest.raises(ValueError, match="positive integer"):
            build_plan(1500.0, ())

    def test_plan_checked_where_made(self):
        # a CellPlan built directly is checked as build_plan's is
        with pytest.raises(ValueError, match="r_outer must be positive"):
            CellPlan(r_outer=-1.0, alphas=(0.5, 0.5))
        with pytest.raises(ValueError, match="positive integer"):
            CellPlan(r_outer=1500.0, alphas=())
        for bad in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="ratios must be positive"):
                CellPlan(r_outer=1500.0, alphas=(0.5, bad))

    def test_single_segment(self):
        plan = build_plan(1500.0, (1.0,))
        assert plan.assignment.tolist() == [[0]]
        assert plan.alphas == (1.0,)

    def test_ratios_sorted_ascending(self):
        plan = build_plan(1500.0, (0.36, 0.29, 0.35))
        assert plan.alphas == (0.29, 0.35, 0.36)

    @pytest.mark.parametrize("n_hat", range(1, 9))
    def test_latin_square_exhaustive(self, n_hat):
        plan = build_plan(1000.0, tuple((i + 1.0) for i in range(n_hat)))
        grid = plan.assignment
        want = set(range(n_hat))
        for ring in range(n_hat):
            assert set(grid[ring, :]) == want
        for sector in range(n_hat):
            assert set(grid[:, sector]) == want

    def test_ring_and_sector_ratio_sums(self):
        plan = build_plan(1500.0, ALPHAS3)
        grid = plan.assignment
        for ring in range(3):
            assert sum(plan.alphas[i] for i in grid[ring, :]) == pytest.approx(1.0)
        for sector in range(3):
            assert sum(plan.alphas[i] for i in grid[:, sector]) == pytest.approx(1.0)


class TestRotation:
    def test_full_cycle_is_identity(self):
        plan = build_plan(1500.0, (0.1, 0.15, 0.2, 0.25, 0.3))
        cycled = plan.rotated(5)
        assert np.array_equal(plan.assignment, cycled.assignment)

    def test_rotation_is_bijection_each_step(self):
        plan = build_plan(1000.0, (0.1, 0.2, 0.3, 0.4))
        for step in range(1, 4):
            grid = plan.rotated(step).assignment
            for ring in range(4):
                assert set(grid[ring, :]) == set(range(4))

    def test_segment_sees_every_ratio_once_per_cycle(self):
        n_hat = 4
        plan = build_plan(1000.0, (0.1, 0.2, 0.3, 0.4))
        for ring in range(n_hat):
            for sector in range(n_hat):
                seen = {plan.rotated(t).assignment[ring, sector]
                        for t in range(n_hat)}
                assert seen == set(range(n_hat))

    def test_average_power_share_uniform_over_cycle(self):
        n_hat = 3
        plan = build_plan(1000.0, ALPHAS3)
        mean_ratio = sum(ALPHAS3) / n_hat
        for ring in range(n_hat):
            for sector in range(n_hat):
                avg = np.mean([plan.alphas[plan.rotated(t).assignment[ring, sector]]
                               for t in range(n_hat)])
                assert avg == pytest.approx(mean_ratio, rel=1e-12)

    def test_original_plan_unchanged(self):
        plan = build_plan(1000.0, ALPHAS3)
        plan.rotated(2)
        assert plan.rotation == 0


def locate_one(distance, angle, plan):
    """(ring, sector) of one position."""
    rings, sectors = locate_segment([distance], [angle], plan)
    return int(rings[0]), int(sectors[0])


class TestLocateSegment:
    PLAN4 = build_plan(CELL_RADIUS, (0.1, 0.2, 0.3, 0.4))

    def test_boundary_outer_radius_inclusive(self):
        ring, _ = locate_one(CELL_RADIUS, 1.0, self.PLAN4)
        assert ring == 3

    def test_near_center(self):
        assert locate_one(1e-9, 0.0, self.PLAN4) == (0, 0)

    def test_derived_position(self):
        # 750 < 1000 <= 1060.66 -> ring 1; angle pi -> sector 2
        assert locate_one(1000.0, math.pi, self.PLAN4) == (1, 2)
        assert self.PLAN4.assignment[1, 2] == (1 + 2) % 4

    def test_out_of_cell(self):
        with pytest.raises(ValueError):
            locate_segment([1000.0, 1500.1], [0.0, 0.0], self.PLAN4)

    def test_position_validation(self):
        for distance, angle in [(0.0, 0.0), (-5.0, 0.0), (math.nan, 0.0),
                                (math.inf, 0.0), (10.0, math.nan),
                                (10.0, math.inf)]:
            with pytest.raises(ValueError):
                locate_segment([distance], [angle], self.PLAN4)

    def test_ring_boundaries_half_open(self):
        radii = self.PLAN4.ring_boundaries
        eps = 1e-9
        for i, r in enumerate(radii[:-1]):
            rings, _ = locate_segment([r - eps, r, r + eps], [0.0] * 3, self.PLAN4)
            assert rings.tolist() == [i, i, i + 1]

    def test_every_position_maps_to_exactly_one_segment(self):
        # the array lookup agrees with the scalar rule: bisect_left over the
        # ring radii, and the truncated angle fraction capped at n_hat - 1
        rng = np.random.default_rng(31)
        plan = build_plan(CELL_RADIUS, (0.1, 0.15, 0.2, 0.25, 0.3))
        distances = np.maximum(CELL_RADIUS * np.sqrt(rng.random(2000)), 1e-12)
        angles = 2 * math.pi * rng.random(2000)
        rings, sectors = locate_segment(distances, angles, plan)
        for d, a, ring, sector in zip(distances, angles, rings, sectors):
            assert ring == bisect_left(plan.ring_boundaries, float(d))
            assert sector == min(int(float(a) * 5 / (2 * math.pi)), 4)
        assert rings.min() >= 0 and rings.max() < 5
        assert sectors.min() >= 0 and sectors.max() < 5

    def test_angle_normalized(self):
        angles = [math.pi, 3 * math.pi, -math.pi, 1.0 - 4 * math.pi]
        _, sectors = locate_segment([1000.0] * 4, angles, self.PLAN4)
        assert sectors.tolist() == [2, 2, 2, locate_one(1000.0, 1.0, self.PLAN4)[1]]


class TestExport:
    def test_json_schema(self):
        plan = build_plan(1500.0, ALPHAS3, rotation=2)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert set(payload) == {"n_hat", "r_outer", "ring_radii", "assignment",
                                "rotation"}
        assert payload["n_hat"] == 3
        assert payload["rotation"] == 2
        assert len(payload["ring_radii"]) == 3
        grid = np.array(payload["assignment"])
        assert grid.shape == (3, 3)
        assert np.array_equal(grid, plan.assignment)
