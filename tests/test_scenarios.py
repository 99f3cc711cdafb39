import pytest

import moldsched as ms

BUS_TABLE = {
    5: (20, 70_260, 66),
    10: (40, 140_520, 74),
    20: (80, 281_040, 85),
    40: (160, 562_080, 96),
    80: (320, 1_124_160, 109),
    160: (640, 2_248_320, 124),
    250: (1000, 3_513_000, 135),
}


class TestBus:
    def test_published_rows(self):
        for pairs, (_, edges, iters) in BUS_TABLE.items():
            scenario = ms.gen_bus(pairs)
            assert len(scenario.objects) == 2 * pairs
            assert scenario.total_edges() == edges
            assert scenario.iterations == iters
            assert scenario.machine.grid == (500, 4 * pairs, 8)
            assert scenario.machine.grid_points == 500 * 4 * pairs * 8

    def test_off_table_uses_nearest_row(self):
        assert ms.gen_bus(1).iterations == 66
        assert ms.gen_bus(1).total_edges() == 2 * 7026
        assert ms.gen_bus(100).iterations == 109  # nearest published row is 80

    def test_rejects_zero_pairs(self):
        with pytest.raises(ms.InvalidScenarioError):
            ms.gen_bus(0)


class TestSrr:
    def test_default_composition(self):
        scenario = ms.gen_srr()
        assert len(scenario.objects) == 1488
        total = scenario.total_edges()
        assert abs(total - 1_281_975) / 1_281_975 <= 0.01
        assert scenario.iterations == 43
        assert scenario.machine.grid == (1000, 1000, 4)
        # three size classes in 16:4:1 edge ratio
        sizes = sorted({o.edges for o in scenario.objects}, reverse=True)
        assert len(sizes) == 3
        assert sizes[0] == pytest.approx(16 * sizes[2], rel=0.01)
        assert sizes[1] == pytest.approx(4 * sizes[2], rel=0.01)

    def test_uniform_large_class(self):
        scenario = ms.gen_srr((1488, 0, 0))
        assert {o.edges for o in scenario.objects} == {862}

    def test_uniform_small_class(self):
        scenario = ms.gen_srr((0, 0, 1488))
        assert len(scenario.objects) == 1488
        total = scenario.total_edges()
        assert abs(total - 1_281_975) / 1_281_975 <= 0.01

    def test_bad_counts_rejected(self):
        with pytest.raises(ms.InvalidScenarioError):
            ms.gen_srr((1, 2, 3))
        with pytest.raises(ms.InvalidScenarioError):
            ms.gen_srr((1488, 0))


class TestInterposer:
    def test_composition(self, interposer):
        assert len(interposer.objects) == 129
        assert abs(interposer.total_edges() - 449_610) <= 128
        workloads = [o.edges**2 for o in interposer.objects]
        total = sum(workloads)
        assert 0.52 <= workloads[0] / total <= 0.54
        others = [w / total for w in workloads[1:]]
        assert 0.0029 <= min(others)
        assert max(others) <= 0.0044
        assert interposer.iterations == 76
        assert interposer.machine.grid == (400, 400, 8)

    def test_total_is_exact(self, interposer):
        # the first rounding of the scaled roots lands on the published total
        assert interposer.total_edges() == 449_610

    def test_deterministic(self):
        a = ms.gen_interposer()
        b = ms.gen_interposer()
        assert a == b


class TestRandom:
    def test_single_object(self):
        scenario = ms.gen_random(1, (5, 5), seed=0)
        assert [o.edges for o in scenario.objects] == [5]

    def test_same_seed_same_scenario(self):
        a = ms.gen_random(10, (1, 100), seed=42)
        b = ms.gen_random(10, (1, 100), seed=42)
        assert a == b

    def test_different_seed_differs(self):
        a = ms.gen_random(10, (1, 100), seed=42)
        b = ms.gen_random(10, (1, 100), seed=43)
        assert a != b

    def test_zero_objects_rejected(self):
        with pytest.raises(ms.InvalidScenarioError):
            ms.gen_random(0, (1, 10), seed=1)

    def test_bad_range_rejected(self):
        with pytest.raises(ms.InvalidScenarioError):
            ms.gen_random(3, (10, 1), seed=1)
