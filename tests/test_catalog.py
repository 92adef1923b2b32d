"""Canned problem catalog: determinism, shapes, data-file loading, validation."""

import numpy as np
import pytest

from kldescent.catalog import describe_problems, make_problem, problem_ids
from kldescent.errors import InvalidInputError


def test_problem_ids_sorted_and_described():
    ids = problem_ids()
    assert ids == sorted(ids)
    assert set(ids) == {"l0-ls", "l1-l2-dc", "lasso", "power4-1d", "quad-l1"}
    described = dict(describe_problems())
    assert set(described) == set(ids)
    assert all(described[i] for i in ids)


def test_unknown_problem_id():
    with pytest.raises(InvalidInputError, match="unknown problem id"):
        make_problem("ridge", {})


def test_lasso_shape_and_determinism():
    a = make_problem("lasso", {"seed": 3})
    b = make_problem("lasso", {"seed": 3})
    c = make_problem("lasso", {"seed": 4})
    assert a.problem.dimension == 100
    assert a.x0.shape == (100,)
    x = np.linspace(-1, 1, 100)
    assert a.problem.objective(x) == b.problem.objective(x)
    assert a.problem.objective(x) != c.problem.objective(x)
    assert a.params["lam"] == b.params["lam"]


def test_seed_is_mandatory_for_randomized_problems():
    with pytest.raises(InvalidInputError, match="seed"):
        make_problem("lasso", {})
    # the deterministic scalar problem needs none
    inst = make_problem("power4-1d", {})
    assert inst.x0[0] == 1.0


def test_explicit_data_files(tmp_path):
    A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    a_csv = tmp_path / "A.csv"
    b_csv = tmp_path / "b.csv"
    np.savetxt(a_csv, A, delimiter=",")
    np.savetxt(b_csv, b, delimiter=",")
    inst = make_problem("lasso", {"A_csv": str(a_csv), "b_csv": str(b_csv),
                                  "lam": 0.3})
    assert inst.problem.dimension == 2
    x = np.array([0.5, -0.5])
    r = A @ x - b
    assert inst.problem.f.value(x) == pytest.approx(0.5 * float(r @ r))

    with pytest.raises(InvalidInputError, match="together"):
        make_problem("lasso", {"A_csv": str(a_csv)})
    with pytest.raises(InvalidInputError):
        make_problem("lasso", {"A_csv": str(tmp_path / "nope.csv"),
                               "b_csv": str(b_csv)})


def test_dimension_mismatch_in_data_files(tmp_path):
    a_csv = tmp_path / "A.csv"
    b_csv = tmp_path / "b.csv"
    np.savetxt(a_csv, np.eye(3), delimiter=",")
    np.savetxt(b_csv, np.ones(2), delimiter=",")
    with pytest.raises(InvalidInputError, match="rows"):
        make_problem("lasso", {"A_csv": str(a_csv), "b_csv": str(b_csv)})


def test_dc_problem_has_concave_term():
    inst = make_problem("l1-l2-dc", {"seed": 0})
    assert inst.problem.h is not None
    x = np.ones(inst.problem.dimension)
    # value = f + g - h must subtract the l2 norm
    lam = inst.params["lam"]
    expected_h = lam * float(np.linalg.norm(x))
    assert inst.problem.h.value(x) == pytest.approx(expected_h)


def test_quad_l1_is_strongly_convex():
    inst = make_problem("quad-l1", {"seed": 1, "mu": 2.0})
    # smallest curvature of f is at least mu: check via the ridge block
    n = inst.problem.dimension
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = rng.standard_normal(n)
        x = rng.standard_normal(n)
        # quadratic: f(x+d) + f(x-d) - 2 f(x) = d^T A^T A d >= mu ||d||^2
        curv = (inst.problem.f.value(x + d) + inst.problem.f.value(x - d)
                - 2.0 * inst.problem.f.value(x))
        assert curv >= 2.0 * float(d @ d) - 1e-8


def test_lam_validation():
    with pytest.raises(InvalidInputError, match="positive"):
        make_problem("lasso", {"seed": 0, "lam": -1.0})
    with pytest.raises(InvalidInputError, match="positive"):
        make_problem("quad-l1", {"seed": 0, "mu": -1.0})


@pytest.mark.parametrize("problem_id, params, message", [
    ("lasso", {"seed": 0, "rows": "abc"}, "params.rows must be an integer, got 'abc'"),
    ("lasso", {"seed": 0, "rows": 2.5}, "params.rows must be an integer, got 2.5"),
    ("lasso", {"seed": 0, "cols": 40.0}, "params.cols must be an integer, got 40.0"),
    ("lasso", {"seed": 1.5}, "params.seed must be an integer, got 1.5"),
    ("l0-ls", {"seed": True}, "params.seed must be an integer, got True"),
    ("lasso", {"seed": 0, "lam": "x"}, "params.lam must be a real number, got 'x'"),
    ("l1-l2-dc", {"seed": 0, "lam": False},
     "params.lam must be a real number, got False"),
    ("lasso", {"seed": 0, "lam_factor": None},
     "params.lam_factor must be a real number, got None"),
    ("quad-l1", {"seed": 0, "mu": "1"}, "params.mu must be a real number, got '1'"),
    ("power4-1d", {"x0": True}, "params.x0 must be a real number, got True"),
    ("power4-1d", {"x0": [1.0]}, "params.x0 must be a real number, got [1.0]"),
    ("lasso", {"A_csv": [1], "b_csv": "b.csv"}, "params.A_csv must be a string, got [1]"),
    ("quad-l1", {"A_csv": 2.5, "b_csv": "b.csv"}, "params.A_csv must be a string, got 2.5"),
    # integers beyond the float range
    ("power4-1d", {"x0": 10**400}, f"params.x0 must be finite, got {10**400}"),
    ("lasso", {"seed": 0, "lam": -10**400}, f"params.lam must be finite, got {-10**400}"),
    ("lasso", {"seed": 0, "lam_factor": 10**309},
     f"params.lam_factor must be finite, got {10**309}"),
    ("quad-l1", {"seed": 0, "mu": 10**400}, f"params.mu must be finite, got {10**400}"),
])
def test_numeric_params_are_type_checked(problem_id, params, message):
    with pytest.raises(InvalidInputError) as exc:
        make_problem(problem_id, params)
    assert str(exc.value) == message


def test_numeric_params_accept_numpy_scalars():
    plain = make_problem("lasso", {"seed": 2, "rows": 8, "cols": 12, "lam": 0.5})
    numpy = make_problem("lasso", {"seed": np.int64(2), "rows": np.int32(8),
                                   "cols": np.int64(12), "lam": np.float64(0.5)})
    assert plain.problem.f.value(np.ones(12)) == numpy.problem.f.value(np.ones(12))
    assert make_problem("power4-1d", {"x0": 2}).x0[0] == 2.0


@pytest.mark.parametrize("problem_id, params, message", [
    ("lasso", {"seed": 0, "lamda": 5.0}, "unknown params field(s) for lasso: lamda"),
    ("lasso", {"seed": 0, "mu": 1.0}, "unknown params field(s) for lasso: mu"),
    ("l1-l2-dc", {"seed": 0, "x0": 1.0, "zeta": 2},
     "unknown params field(s) for l1-l2-dc: x0, zeta"),
    ("power4-1d", {"rows": 3}, "unknown params field(s) for power4-1d: rows"),
    ("quad-l1", {"seed": 0, "x0": 1.0}, "unknown params field(s) for quad-l1: x0"),
])
def test_unknown_params_fields_rejected(problem_id, params, message):
    with pytest.raises(InvalidInputError) as exc:
        make_problem(problem_id, params)
    assert str(exc.value) == message


def test_every_problem_takes_a_seed():
    for problem_id in problem_ids():
        assert make_problem(problem_id, {"seed": 0}).problem_id == problem_id
