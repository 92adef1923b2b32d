"""Canned problem catalog: determinism, shapes, data-file loading, validation,
and the memory a build takes."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from kldescent import catalog, oracles
from kldescent.catalog import describe_problems, make_problem, problem_ids
from kldescent.errors import InvalidInputError

# 10**400 as an error message shows it: its first 20 characters and its length
HUGE_SHOWN = "10000000000000000000... (401 characters)"


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

    def objective(problem):
        return problem.f.value(x) + problem.g.value(x)

    assert objective(a.problem) == objective(b.problem)
    assert objective(a.problem) != objective(c.problem)
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


def reference_data(seed, rows, cols):
    """The seeded ``(A, b)`` of the least-squares problems, drawn as plainly
    as possible: fresh arrays, no buffer filled in place."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols)) / np.sqrt(rows)
    x_true = np.zeros(cols)
    support = rng.choice(cols, size=max(1, cols // 10), replace=False)
    x_true[support] = rng.standard_normal(support.size)
    return A, A @ x_true + 0.01 * rng.standard_normal(rows)


def least_squares_data(problem_id, params):
    """The ``(A, b)`` that a build hands to ``make_least_squares``."""
    with mock.patch.object(catalog, "make_least_squares",
                           wraps=catalog.make_least_squares) as spy:
        make_problem(problem_id, params)
    return spy.call_args.args


@pytest.mark.parametrize("problem_id, params, mu", [
    ("lasso", {"seed": 4, "rows": 7, "cols": 5}, None),
    ("quad-l1", {"seed": 4, "rows": 40, "cols": 25, "mu": 2.5}, 2.5),
    ("quad-l1", {"seed": 2}, 1.0),
    ("lasso", {"seed": 4, "rows": 250, "cols": 400}, None),
    ("quad-l1", {"seed": 4, "rows": 150, "cols": 300, "mu": 2.5}, 2.5),
], ids=["lasso", "quad-l1-40x25-mu2.5", "quad-l1-default", "lasso-250x400",
        "quad-l1-150x300-mu2.5"])
def test_built_data_are_the_reference_bits(empty_memo, problem_id, params, mu):
    A, b = reference_data(params["seed"], params.get("rows", 30), params.get("cols", 30))
    if mu is not None:  # the ridge block, stacked as plainly as possible
        n = A.shape[1]
        A, b = np.vstack([A, np.sqrt(mu) * np.eye(n)]), np.concatenate([b, np.zeros(n)])
    built_A, built_b = least_squares_data(problem_id, params)
    assert built_A.tobytes() == A.tobytes() and built_A.shape == A.shape
    if A.size < oracles._SUPPORT_MIN_SIZE:
        assert built_A.flags.c_contiguous
        assert built_b.tobytes() == b.tobytes()
    else:  # drawn into column-major storage, so b = A x_true + noise moves in its last bits
        assert built_A.flags.f_contiguous
        assert np.max(np.abs(built_b - b)) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.parametrize("problem_id", ["lasso", "l0-ls", "l1-l2-dc", "quad-l1"])
def test_default_sizes_stay_row_major(empty_memo, problem_id):
    built_A, _ = least_squares_data(problem_id, {"seed": 0})
    assert built_A.size < oracles._SUPPORT_MIN_SIZE and built_A.flags.c_contiguous


def test_quad_l1_stacks_its_ridge_under_loaded_data(tmp_path):
    A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    np.savetxt(tmp_path / "A.csv", A, delimiter=",")
    np.savetxt(tmp_path / "b.csv", [1.0, 2.0, 3.0], delimiter=",")
    built_A, built_b = least_squares_data("quad-l1", {"A_csv": str(tmp_path / "A.csv"),
                                                      "b_csv": str(tmp_path / "b.csv"),
                                                      "mu": 2.5})
    s = np.sqrt(2.5)
    assert built_A.tolist() == [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [s, 0.0], [0.0, s]]
    assert built_b.tolist() == [1.0, 2.0, 3.0, 0.0, 0.0]


@pytest.mark.parametrize("problem_id, params, entries", [
    ("lasso", {"seed": 0, "rows": 300, "cols": 900}, 300 * 900),
    ("quad-l1", {"seed": 0, "rows": 300, "cols": 500, "mu": 2.5}, (300 + 500) * 500),
], ids=["lasso", "quad-l1"])
def test_a_build_makes_no_temporary_the_size_of_its_matrix(empty_memo, problem_id, params,
                                                           entries):
    make_problem(problem_id, {"seed": 0})  # anything a first build sets up once
    tracemalloc.start()
    try:
        inst = make_problem(problem_id, params)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.problem.dimension == params["cols"]
    nbytes = 8 * entries  # the float64 matrix the instance holds
    assert nbytes <= kept < 2 * nbytes  # numpy's arrays are traced, and held once
    assert peak - kept < nbytes / 16


def test_built_data_are_read_only_and_each_start_point_is_fresh(empty_memo):
    first = make_problem("lasso", {"seed": 0})
    second = make_problem("l0-ls", {"seed": 0, "rows": 50, "cols": 100})
    assert second.problem.f is first.problem.f  # one dataset, shared
    data = catalog._memo[1]
    for shared in (data.A, data.b):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1.0
    first.x0[0] = 5.0
    assert second.x0[0] == 0.0 and make_problem("lasso", {"seed": 0}).x0[0] == 0.0
    assert first.x0.flags.writeable and second.x0.flags.writeable


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
    # integers beyond the float range, shown as their first 20 characters and length
    ("power4-1d", {"x0": 10**400}, "params.x0 must be finite, got " + HUGE_SHOWN),
    ("lasso", {"seed": 0, "lam": -10**400},
     "params.lam must be finite, got -1000000000000000000... (402 characters)"),
    ("lasso", {"seed": 0, "lam_factor": 10**309},
     "params.lam_factor must be finite, got 10000000000000000000... (310 characters)"),
    ("quad-l1", {"seed": 0, "mu": 10**400}, "params.mu must be finite, got " + HUGE_SHOWN),
    # integers beyond int64, and values outside their field's domain
    ("lasso", {"seed": 0, "rows": 10**30}, f"params.rows must fit in int64, got {10**30}"),
    ("l0-ls", {"seed": 0, "cols": 10**400}, "params.cols must fit in int64, got " + HUGE_SHOWN),
    ("power4-1d", {"seed": 10**400}, "params.seed must fit in int64, got " + HUGE_SHOWN),
    ("lasso", {"seed": -1}, "params.seed must be a nonnegative integer, got -1"),
    ("lasso", {"seed": 0, "rows": 0}, "params.rows must be a positive integer, got 0"),
    ("lasso", {"seed": 0, "lam": -1.0}, "params.lam must be positive, got -1.0"),
    ("lasso", {"seed": 0, "lam_factor": 0.0}, "params.lam_factor must be positive, got 0.0"),
    ("lasso", {"seed": 0, "lam": float("inf")}, "params.lam must be finite, got inf"),
    ("quad-l1", {"seed": 0, "mu": float("nan")}, "params.mu must be positive, got nan"),
    ("power4-1d", {"x0": float("inf")}, "params.x0 must be finite, got inf"),
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
