import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pandora_hedge import distkit, verify
from pandora_hedge.distkit import (
    DiscreteDist,
    backup_price,
    expected_excess,
    expected_shortfall,
    mean,
    min_of_independent,
    min_with_constant_expectation,
    reservation_price,
    running_sum,
)

from helpers import added, brute_min_atoms

TWO_POINT = DiscreteDist(((F(0), F(1, 2)), (F(10), F(1, 2))))
POINT5 = DiscreteDist.point_mass(F(5))


def dists(max_atoms=4, n_values=21):
    """Hypothesis strategy: exact dists on the half-integer grid [0, 10]."""

    def build(picks):
        values = sorted({F(k, 2) for k in picks})
        weights = list(range(1, len(values) + 1))
        total = sum(weights)
        return DiscreteDist(tuple((v, F(w, total)) for v, w in zip(values, weights)))

    return st.lists(
        st.integers(min_value=0, max_value=n_values - 1), min_size=1, max_size=max_atoms
    ).map(build)


def rationals(lo=-4, hi=14):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=16)


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDist(())

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDist(((-1, F(1, 2)), (1, F(1, 2))))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscreteDist(((3, F(1, 2)), (1, F(1, 2))))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDist(((0, 0.6), (1, 0.3)))

    def test_exact_sum_must_be_exact(self):
        with pytest.raises(ValueError):
            DiscreteDist(((0, F(1, 3)), (1, F(1, 3))))

    def test_float_tolerance(self):
        DiscreteDist(tuple((float(k), 0.1) for k in range(10)))  # 10 * 0.1 != 1 exactly

    def test_from_pairs_merges(self):
        d = DiscreteDist.from_pairs([(3, F(1, 4)), (1, F(1, 2)), (3, F(1, 4))])
        assert d.atoms == ((1, F(1, 2)), (3, F(1, 2)))


class TestMoments:
    def test_mean_point_mass(self):
        assert mean(POINT5) == 5

    def test_mean_symmetric(self):
        assert mean(TWO_POINT) == 5

    def test_mean_weighted(self):
        assert mean(DiscreteDist(((1, F(1, 4)), (3, F(3, 4))))) == F(5, 2)

    def test_shortfall_interior(self):
        assert expected_shortfall(TWO_POINT, 4) == 2  # 0.5*4

    def test_shortfall_at_min_support(self):
        assert expected_shortfall(TWO_POINT, 0) == 0

    def test_shortfall_above_support(self):
        assert expected_shortfall(TWO_POINT, 12) == 7  # u - mean

    def test_excess_interior(self):
        assert expected_excess(TWO_POINT, 6) == 2  # 0.5*4

    def test_excess_above_support(self):
        assert expected_excess(TWO_POINT, 10) == 0

    def test_excess_negative_u(self):
        assert expected_excess(TWO_POINT, -1) == 6  # mean - u

    def test_capped_mean(self):
        assert min_with_constant_expectation(TWO_POINT, 5) == F(5, 2)
        assert min_with_constant_expectation(TWO_POINT, 10) == 5
        assert min_with_constant_expectation(TWO_POINT, -2) == -2


class TestRunningSum:
    def test_adds_floats_left_to_right(self):
        # builtin sum rounds this total to 1.0 from Python 3.12 on
        assert running_sum([0.1] * 10) == added([0.1] * 10) == 0.9999999999999999

    def test_package_calls_no_builtin_sum(self):
        """Every total adds through ``running_sum``: no module of the package
        calls the builtin ``sum``."""
        calls = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(distkit.__file__).parent.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
        ]
        assert calls == []

    def test_verify_neither_samples_nor_keeps_a_tolerance_of_its_own(self):
        """``verify`` imports no ``random``, and its one float literal is
        ``TOL``'s."""
        tree = ast.parse(Path(verify.__file__).read_text())
        nodes = list(ast.walk(tree))
        imported = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
        assert "random" not in imported
        floats = [node for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, float)]
        (tol,) = [node.value for node in tree.body if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TOL"]
        assert floats == [tol] and tol.value == verify.TOL

    def test_verify_divides_through_div_alone(self):
        """An int quotient must stay exact at zero tolerance: ``verify``
        divides only through ``distkit._div``, never by true division."""
        tree = ast.parse(Path(verify.__file__).read_text())
        divisions = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
        assert divisions == []


class TestPriceSolvers:
    def test_reservation_two_point(self):
        assert reservation_price(TWO_POINT, 2) == 4

    def test_reservation_zero_cost_is_min_support(self):
        assert reservation_price(POINT5, 0) == 5
        assert reservation_price(TWO_POINT, 0) == 0

    def test_reservation_beyond_support(self):
        assert reservation_price(TWO_POINT, 7) == 12

    def test_backup_two_point(self):
        assert backup_price(TWO_POINT, 2) == 6

    def test_backup_point_mass(self):
        assert backup_price(POINT5, 1) == 4

    def test_backup_negative(self):
        assert backup_price(TWO_POINT, 6) == -1

    def test_backup_zero_cost_is_max_support(self):
        assert backup_price(TWO_POINT, 0) == 10

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            reservation_price(TWO_POINT, -1)
        with pytest.raises(ValueError):
            backup_price(TWO_POINT, -1)

    @given(dists(), rationals(lo=0, hi=12))
    def test_reservation_inverts_shortfall(self, d, c):
        u = reservation_price(d, c)
        assert expected_shortfall(d, u) <= c
        # supremum: any strictly larger u overshoots (strictly increasing
        # beyond the minimum support)
        bump = u + F(1, 1000)
        assert expected_shortfall(d, bump) > c or bump <= d.min_support

    @given(dists(), rationals(lo=0, hi=12))
    def test_backup_inverts_excess(self, d, c):
        u = backup_price(d, c)
        assert expected_excess(d, u) <= c
        assert expected_excess(d, u - F(1, 1000)) > c or u - F(1, 1000) >= d.max_support

    @given(dists(), rationals(lo=0, hi=6), rationals(lo=0, hi=6))
    def test_solver_monotonicity(self, d, c1, c2):
        lo, hi = min(c1, c2), max(c1, c2)
        assert reservation_price(d, lo) <= reservation_price(d, hi)
        assert backup_price(d, lo) >= backup_price(d, hi)

    @given(dists(), rationals(lo=0, hi=12))
    def test_cost_below_reservation(self, d, c):
        assert c <= reservation_price(d, c)


class TestParity:
    @given(dists(), rationals())
    def test_put_call_parity(self, d, u):
        assert expected_shortfall(d, u) - expected_excess(d, u) == u - mean(d)


class TestMinOfIndependent:
    def test_point_masses(self):
        d = min_of_independent([DiscreteDist.point_mass(3), DiscreteDist.point_mass(5)])
        assert d.atoms == ((3, 1),)

    def test_two_iid_two_points(self):
        d = min_of_independent([TWO_POINT, TWO_POINT])
        assert d.atoms == ((F(0), F(3, 4)), (F(10), F(1, 4)))

    def test_singleton_identity(self):
        assert min_of_independent([TWO_POINT]) == TWO_POINT

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_of_independent([])

    @given(st.lists(dists(max_atoms=4), min_size=1, max_size=4))
    def test_matches_brute_force(self, ds):
        got = dict(min_of_independent(ds).atoms)
        assert got == brute_min_atoms(ds)
