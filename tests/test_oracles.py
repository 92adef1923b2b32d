"""Oracle correctness against independent references.

The references here are deliberately naive: a dense 1-D grid search for the
prox maps and central finite differences for the gradients.  Expected values
are frozen from these references, not from the implementations under test.
"""

import contextlib
import json
import sys
import threading
import weakref
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from kldescent import catalog, oracles
from kldescent.catalog import make_problem
from kldescent.cli import main
from kldescent.errors import InvalidInputError
from kldescent.npg import NpgConfig, npg_solve
from kldescent.oracles import (
    CompositeProblem,
    box_oracle,
    l0_oracle,
    l1_oracle,
    l2_norm_oracle,
    make_least_squares,
    make_power4_1d,
    power_iteration_sq_norm,
    prox_box,
    prox_l0,
    prox_l1,
    subgrad_l2_norm,
    zero_oracle,
)
from kldescent.pgenls import PgenlsConfig, pgenls_solve

# ---------------------------------------------------------------------------
# independent references


def grid_prox_scalar(v, gamma, penalty, radius=3.0, res=1e-4):
    """Brute-force minimizer of gamma/2 (x-v)^2 + penalty(x) on a grid."""
    n = int(round(radius / res))
    xs = (np.arange(-n, n + 1)) * res  # includes exact 0.0
    vals = 0.5 * gamma * (xs - v) ** 2 + penalty(xs)
    return xs[int(np.argmin(vals))]


def directional_fd(value, x, d, h=1e-6):
    return (value(x + h * d) - value(x - h * d)) / (2.0 * h)


# ---------------------------------------------------------------------------
# prox maps vs the grid


def test_prox_l1_matches_grid_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        v = float(rng.uniform(-2, 2))
        lam = float(rng.uniform(0.05, 1.5))
        gamma = float(rng.uniform(0.5, 4.0))
        ref = grid_prox_scalar(v, gamma, lambda x: lam * np.abs(x))
        got = prox_l1(np.array([v]), lam, gamma)[0]
        assert abs(got - ref) <= 1e-4, (v, lam, gamma)


def test_prox_l0_matches_grid_oracle():
    rng = np.random.default_rng(4321)
    for _ in range(100):
        v = float(rng.uniform(-2, 2))
        lam = float(rng.uniform(0.05, 1.5))
        gamma = float(rng.uniform(0.5, 4.0))
        ref = grid_prox_scalar(v, gamma, lambda x: lam * (x != 0.0))
        got = prox_l0(np.array([v]), lam, gamma)[0]
        assert abs(got - ref) <= 1e-4, (v, lam, gamma)


def test_prox_l1_closed_form_points():
    # frozen by hand: shrink by lam/gamma, clip to zero inside the band
    out = prox_l1(np.array([3.0, -3.0, 0.4, -0.4, 0.0]), lam=1.0, gamma=2.0)
    assert np.allclose(out, [2.5, -2.5, 0.0, 0.0, 0.0], atol=0)


def test_prox_l0_threshold_and_tie():
    # threshold sqrt(2*lam/gamma) = 1 at lam=0.5, gamma=1
    out = prox_l0(np.array([2.0, 0.5, -0.5, 1.0]), lam=0.5, gamma=1.0)
    # the |v| == threshold tie goes to 0 (strict survival test)
    assert np.allclose(out, [2.0, 0.0, 0.0, 0.0], atol=0)


def test_prox_box_clamps():
    out = prox_box(np.array([-2.0, 0.3, 9.0]), lo=-1.0, hi=1.0, gamma=0.7)
    assert np.allclose(out, [-1.0, 0.3, 1.0], atol=0)


def test_prox_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        prox_l1(np.array([1.0]), lam=-1.0, gamma=1.0)
    with pytest.raises(InvalidInputError):
        prox_l0(np.array([1.0]), lam=1.0, gamma=0.0)


# ---------------------------------------------------------------------------
# gradients vs finite differences


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_least_squares_gradient_fd(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((12, 7))
    b = rng.standard_normal(12)
    f = make_least_squares(A, b)
    x = rng.standard_normal(7)
    g = f.gradient(x)
    for _ in range(5):
        d = rng.standard_normal(7)
        d /= np.linalg.norm(d)
        fd = directional_fd(f.value, x, d)
        assert abs(fd - float(g @ d)) <= 1e-6 * (1.0 + abs(float(g @ d)))


def test_power4_gradient_fd():
    f = make_power4_1d()
    for v in (-1.5, -0.3, 0.2, 2.0):
        x = np.array([v])
        fd = directional_fd(f.value, x, np.array([1.0]))
        g = float(f.gradient(x)[0])
        assert abs(fd - g) <= 1e-6 * (1.0 + abs(g))
        assert g == pytest.approx(v**3)


def test_least_squares_values_and_hint():
    A = np.array([[3.0, 0.0], [0.0, 1.0]])
    b = np.array([0.0, 0.0])
    f = make_least_squares(A, b)
    x = np.array([1.0, 2.0])
    assert f.value(x) == pytest.approx(0.5 * (9.0 + 4.0))
    # hint is ||A||^2 = 9; independent reference: dense SVD
    ref = float(np.linalg.norm(A, 2) ** 2)
    assert f.lipschitz_hint == pytest.approx(ref, rel=1e-5)


def least_squares_case():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((12, 7))
    b = rng.standard_normal(12)
    return A, b, rng.standard_normal(7)


def test_least_squares_gradient_after_value_reuses_the_residual(counted):
    A, b, x = least_squares_case()
    f, calls = counted(make_least_squares(A, b))
    f.value(x)
    g = f.gradient(x)
    assert calls["residual"] == 1  # the gradient made no product with A
    assert g.tobytes() == (A.T @ (A @ x - b)).tobytes()


def test_least_squares_cache_misses_give_the_fresh_gradient(counted):
    A, b, x = least_squares_case()
    f, calls = counted(make_least_squares(A, b))

    def assert_fresh_gradient(point):
        before = calls["residual"]
        assert f.gradient(point).tobytes() == (A.T @ (A @ point - b)).tobytes()
        assert calls["residual"] == before + 1

    assert_fresh_gradient(x)  # no value call before
    f.value(x)
    assert_fresh_gradient(x + 1.0)
    f.value(x)
    x[3] += 0.5  # the cached point changed in place
    assert_fresh_gradient(x)
    zero = np.zeros(7)
    f.value(-zero)  # equal in value, not in bits
    assert_fresh_gradient(zero)


def test_least_squares_cache_under_racing_threads():
    # each thread alternates value and gradient at its own points on one
    # shared oracle; a switch between another thread's value and this
    # thread's gradient must only miss the cache
    A, b, _ = least_squares_case()
    f = make_least_squares(A, b)
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            x = rng.standard_normal(7)
            f.value(x)
            if f.gradient(x).tobytes() != (A.T @ (A @ x - b)).tobytes():
                wrong.append(seed)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_least_squares_dimension_errors_unchanged():
    A, b, x = least_squares_case()
    f = make_least_squares(A, b)
    f.value(x)
    for call in (f.value, f.gradient):
        with pytest.raises(InvalidInputError, match=r"^expected dimension 7, got 6$"):
            call(np.zeros(6))


def test_quadratic_is_declared_by_the_builder():
    A, b, _ = least_squares_case()
    assert make_least_squares(A, b).quadratic is True
    assert make_power4_1d().quadratic is False
    assert oracles.SmoothOracle(value=abs, gradient=abs).quadratic is False


@contextlib.contextmanager
def hint_spy():
    """Spy on the core a least-squares hint read calls: the Lipschitz value
    of a matrix the build has already checked.  The catalog's data memo
    starts empty and is put back on exit, so a first read inside computes."""
    with (mock.patch.object(catalog, "_memo", None),
          mock.patch.object(oracles, "_sq_norm", wraps=oracles._sq_norm) as spy):
        yield spy


def test_lipschitz_hint_is_computed_on_first_read():
    with hint_spy() as spy:
        inst = make_problem("lasso", {"seed": 0})
        assert spy.call_count == 0
        npg_solve(inst.problem, inst.x0, NpgConfig(max_outer=50))
        pgenls_solve(inst.problem, inst.x0, PgenlsConfig(max_outer=50))
        assert spy.call_count == 0
        hint = inst.problem.f.lipschitz_hint
        assert spy.call_count == 1
        A = spy.call_args.args[0]
        assert inst.problem.f.lipschitz_hint == hint
        assert spy.call_count == 1
    assert hint.hex() == power_iteration_sq_norm(A).hex()


def test_oracle_copies_share_the_hint():
    A, b, _ = least_squares_case()
    with hint_spy() as spy:
        f = make_least_squares(A, b)
        copy = replace(f, value=f.value)
        assert copy.lipschitz_hint == f.lipschitz_hint
        assert spy.call_count == 1


# ---------------------------------------------------------------------------
# the catalog's memo of generated least-squares data

SMALL = {"seed": 0, "rows": 20, "cols": 40}


@contextlib.contextmanager
def build_spies():
    """Spies on the work a build of generated data does in proportion to its
    matrix: the draw (``draws``), the finiteness scan (``scans``), the hint
    (``hints``) and ``max |A^T b|`` (``counts["max_atb"]``, one per data
    record, which computes it with the data).  The data memo starts empty."""
    counts = {"max_atb": 0}
    init = catalog._LeastSquares.__init__

    def counted_init(data, A, b):  # keeps no reference to the matrix
        init(data, A, b)
        counts["max_atb"] += 1

    with (hint_spy() as hints,
          mock.patch.object(catalog, "_matrix", wraps=catalog._matrix) as draws,
          mock.patch.object(oracles, "_checked_matrix", wraps=oracles._checked_matrix) as scans,
          mock.patch.object(catalog._LeastSquares, "__init__", counted_init)):
        yield SimpleNamespace(hints=hints, draws=draws, scans=scans, counts=counts)


def test_problems_on_one_generated_matrix_share_its_hint():
    with build_spies() as spy:
        insts = [make_problem(pid, params) for pid, params in (
            ("lasso", SMALL), ("l0-ls", dict(SMALL, lam=0.2)), ("l1-l2-dc", SMALL),
            ("lasso", dict(SMALL, lam_factor=0.3)))]
        hints = [inst.problem.f.lipschitz_hint for inst in insts]
        assert spy.draws.call_count == spy.scans.call_count == spy.hints.call_count == 1
        assert spy.counts["max_atb"] == 1
        A, b = catalog._memo[1].A, catalog._memo[1].b
        assert spy.hints.call_args.args[0] is A
    assert all(inst.problem.f is insts[0].problem.f for inst in insts)
    assert {h.hex() for h in hints} == {power_iteration_sq_norm(A).hex()}
    top = float(np.max(np.abs(A.T @ b)))
    assert [inst.params["lam"] for inst in insts] == [0.1 * top, 0.2, 0.1 * top, 0.3 * top]


@pytest.mark.parametrize("first, second", [
    (("lasso", SMALL), ("lasso", dict(SMALL, seed=1))),
    (("lasso", SMALL), ("lasso", dict(SMALL, rows=21))),
    (("lasso", SMALL), ("lasso", dict(SMALL, cols=41))),
    (("quad-l1", dict(SMALL, mu=1.0)), ("quad-l1", dict(SMALL, mu=2.0))),
    (("lasso", SMALL), ("quad-l1", SMALL)),
    (("quad-l1", SMALL), ("lasso", SMALL)),
], ids=["seed", "rows", "cols", "mu", "to-quad-l1", "from-quad-l1"])
def test_a_change_of_any_data_field_recomputes_the_hint(first, second):
    with build_spies() as spy:
        insts = [make_problem(problem_id, params) for problem_id, params in (first, second)]
        hints = [inst.problem.f.lipschitz_hint for inst in insts]
        assert spy.draws.call_count == spy.hints.call_count == 2
        matrices = [call.args[0] for call in spy.hints.call_args_list]
    assert insts[0].problem.f is not insts[1].problem.f
    for hint, A in zip(hints, matrices):
        assert hint.hex() == power_iteration_sq_norm(A).hex()


def test_loaded_and_hand_built_matrices_never_share_a_hint(tmp_path):
    A, b, _ = least_squares_case()
    np.savetxt(tmp_path / "A.csv", A, delimiter=",")
    np.savetxt(tmp_path / "b.csv", b, delimiter=",")
    files = {"A_csv": str(tmp_path / "A.csv"), "b_csv": str(tmp_path / "b.csv")}
    with build_spies() as spy:
        generated = make_problem("lasso", SMALL).problem.f
        entry = catalog._memo
        oracles_built = [make_problem(problem_id, files).problem.f
                         for problem_id in ("lasso", "lasso", "quad-l1", "quad-l1")]
        oracles_built += [make_least_squares(A, b) for _ in range(2)]
        for f in oracles_built:
            f.lipschitz_hint
        assert spy.hints.call_count == 6
        assert len({id(f) for f in oracles_built}) == 6
        assert catalog._memo is entry  # untouched by the loaded and hand-built data
        assert make_problem("lasso", SMALL).problem.f is generated
        assert spy.draws.call_count == 3  # the generated data, and the two loaded quad-l1


def test_a_new_key_replaces_the_single_entry():
    draw = catalog._matrix
    with build_spies() as spy:
        inst = make_problem("lasso", SMALL)
        old = weakref.ref(catalog._memo[1].A)
        old_bits = old().tobytes()
        del inst
        spy.scans.reset_mock()  # the spy's record of its last call holds the matrix
        freed_before_the_draw = []
        spy.draws.side_effect = lambda *args: (freed_before_the_draw.append(old() is None),
                                               draw(*args))[1]
        make_problem("lasso", dict(SMALL, seed=1))
        assert freed_before_the_draw == [True]
        assert catalog._memo[0] == (1, 20, 40, None)
        again = make_problem("lasso", SMALL)  # a miss: drawn again, to the same bits
        assert spy.draws.call_count == 3
        assert catalog._memo[1].A.tobytes() == old_bits
        assert again.problem.f is catalog._memo[1].f


def test_data_memo_under_racing_threads():
    # threads build three generated datasets in turn, so the memo's entry is
    # replaced under them; a build must get the data of its own key, never
    # the entry another thread just stored
    params = [dict(SMALL, seed=seed) for seed in range(3)]
    x = np.linspace(-1.0, 1.0, SMALL["cols"])

    def facts(inst):
        return inst.params["lam"], inst.problem.f.value(x)

    with mock.patch.object(catalog, "_memo", None):
        expected = [facts(make_problem("lasso", p)) for p in params]
        assert len(set(expected)) == len(params)
        wrong = []

        def work(offset):
            for i in range(300):
                k = (i + offset) % len(params)
                if facts(make_problem("lasso", params[k])) != expected[k]:
                    wrong.append(k)

        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_a_sweep_over_one_generated_matrix_computes_its_hint_once(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "problem": "lasso", "params": {"seed": 0, "rows": 600, "cols": 1200},
        "algorithm": "pgenls", "output_dir": str(tmp_path / "sweep")}))
    with build_spies() as spy:
        assert main(["sweep", str(config), "--param", "m", "--values", "0,3,5"]) == 0
        assert spy.draws.call_count == spy.hints.call_count == 1
    assert min(spy.hints.call_args.args[0].shape) > oracles._DENSE_MAX_DIM  # the Lanczos path


@pytest.mark.parametrize("A, message", [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "^A contains non-finite entries$"),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), "^A contains non-finite entries$"),
    (np.array([[1.0, 2.0], [-np.inf, 1.0]]), "^A contains non-finite entries$"),
    (np.array([[np.inf, 2.0], [-np.inf, 1.0]]), "^A contains non-finite entries$"),
    (np.full((2, 3, 4), np.nan), r"^A must be a matrix, got shape \(2, 3, 4\)$"),
], ids=["nan", "inf", "-inf", "inf-and--inf", "3-d"])
def test_least_squares_rejects_a_bad_matrix_at_the_build(A, message):
    with hint_spy() as spy, pytest.raises(InvalidInputError, match=message):
        make_least_squares(A, np.ones(2))
    assert spy.call_count == 0


def test_a_finite_matrix_whose_sum_overflows_passes_the_check(recwarn):
    A = oracles._checked_matrix([[1e308, 1e308]])
    assert A.tolist() == [[1e308, 1e308]]
    assert make_least_squares(A, np.ones(1)).value(np.zeros(2)) == 0.5
    assert len(recwarn) == 0  # the overflowed sum warns of nothing


def test_first_hint_read_does_not_check_the_matrix_again():
    A = np.random.default_rng(3).standard_normal((6, 4))
    with mock.patch.object(oracles, "_checked_matrix",
                           wraps=oracles._checked_matrix) as check:
        f = make_least_squares(A, np.ones(6))
        assert check.call_count == 1
        hint = f.lipschitz_hint
        assert check.call_count == 1
        assert hint.hex() == power_iteration_sq_norm(A).hex()
        assert check.call_count == 2  # the public function keeps its check


def test_hand_built_oracle_has_no_hint():
    assert oracles.SmoothOracle(value=abs, gradient=abs).lipschitz_hint is None
    assert make_power4_1d().lipschitz_hint is None


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((20, 13))
    est = power_iteration_sq_norm(A)
    ref = float(np.linalg.norm(A, 2) ** 2)
    assert est == pytest.approx(ref, rel=1e-4)


def catalog_matrix(problem_id, seed):
    """The matrix a catalog instance hands to ``make_least_squares``, with
    its reference value from a dense SVD."""
    with hint_spy() as spy:
        make_problem(problem_id, {"seed": seed}).problem.f.lipschitz_hint
    A = spy.call_args.args[0]
    return A, float(np.linalg.norm(A, 2) ** 2)


def with_spectrum(rows, cols, top):
    """``U diag(s) V^T`` with orthonormal factors from QR, where ``s`` is
    ``top`` followed by values spread over [0.1, 1.9]: ``||A||_2^2`` is
    ``max(top)^2`` up to rounding, with no SVD.  The smaller side is above
    the dense threshold, so these take the Lanczos path."""
    k = min(rows, cols)
    assert k > oracles._DENSE_MAX_DIM
    rng = np.random.default_rng(rows + cols)
    s = np.concatenate([top, rng.uniform(0.1, 1.9, k - len(top))])
    U = np.linalg.qr(rng.standard_normal((rows, k)))[0]
    V = np.linalg.qr(rng.standard_normal((cols, k)))[0]
    return (U * s) @ V.T, float(np.max(top)) ** 2


def rank_one(rows, cols):
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(rows), rng.standard_normal(cols)
    return np.outer(u, v), float(u @ u) * float(v @ v)


HINT_CASES = {
    **{f"{pid}-seed{seed}": (lambda pid=pid, seed=seed: catalog_matrix(pid, seed))
       for pid in ("lasso", "l0-ls", "l1-l2-dc", "quad-l1") for seed in range(5)},
    # a clustered top, as in the spectrum of a Gaussian matrix
    "krylov-wide": lambda: with_spectrum(600, 900, np.linspace(2.0, 1.98, 8)),
    "krylov-tall": lambda: with_spectrum(900, 600, np.linspace(2.0, 1.98, 8)),
    "krylov-restart": lambda: with_spectrum(600, 900, np.linspace(2.0, 1.98, 8)),
    "krylov-repeated-top": lambda: with_spectrum(600, 900, [2.0, 2.0, 2.0]),
    # the Krylov space is invariant after two steps: the exact value
    "krylov-rank-one": lambda: rank_one(600, 900),
    "zero": lambda: (np.zeros((700, 900)), 0.0),
    "non-finite": lambda: (np.full((700, 900), np.nan), None),
    "not-2d": lambda: (np.ones((2, 3, 4)), None),
}
# cases run with a Lanczos basis that fills long before convergence
RESTARTED = {"krylov-restart": 16}


@pytest.mark.parametrize("case", HINT_CASES)
def test_lipschitz_hint_is_upper_bound(case, monkeypatch):
    if case in RESTARTED:
        monkeypatch.setattr(oracles, "_LANCZOS_BASIS", RESTARTED[case])
    A, ref = HINT_CASES[case]()
    if ref is None:
        with pytest.raises(InvalidInputError):
            power_iteration_sq_norm(A)
        return
    hint = power_iteration_sq_norm(A)
    assert ref * (1.0 - 1e-12) <= hint <= ref * (1.0 + 2.0 * oracles._REL_TOL), (hint, ref)
    assert power_iteration_sq_norm(A) == hint


@pytest.mark.parametrize("basis", [128, 3], ids=["one-cycle", "restarted"])
def test_lanczos_stops_at_the_product_cap(basis, monkeypatch):
    A, _ = with_spectrum(600, 900, np.linspace(2.0, 1.98, 8))
    lanczos = oracles._lanczos_top_eigenvalue
    products = []

    def counted(gram, dim):
        return lanczos(lambda v: (products.append(v.size), gram(v))[1], dim)

    monkeypatch.setattr(oracles, "_lanczos_top_eigenvalue", counted)
    monkeypatch.setattr(oracles, "_LANCZOS_BASIS", basis)
    power_iteration_sq_norm(A)
    assert len(products) > 5  # the residual test alone stops later
    products.clear()
    monkeypatch.setattr(oracles, "_MAX_ITER", 5)
    hint = power_iteration_sq_norm(A)
    assert products == [600] * 5
    assert power_iteration_sq_norm(A).hex() == hint.hex()
    assert len(products) == 10


# ---------------------------------------------------------------------------
# subgradient and the composite wrapper


def test_l2_subgradient():
    x = np.array([3.0, 4.0])
    g = subgrad_l2_norm(x, lam=2.0)
    assert np.allclose(g, [1.2, 1.6])
    assert np.allclose(subgrad_l2_norm(np.zeros(2), lam=2.0), 0.0)


def test_l2_oracle_value():
    h = l2_norm_oracle(0.5)
    assert h.value(np.array([3.0, 4.0])) == pytest.approx(2.5)


def test_composite_objective_combines_terms():
    A = np.eye(2)
    prob = CompositeProblem(f=make_least_squares(A, np.zeros(2)),
                            g=l1_oracle(1.0), h=l2_norm_oracle(1.0),
                            dimension=2)
    x = np.array([3.0, 4.0])
    # 0.5*25 + (3+4) - 5
    assert prob.objective(x) == pytest.approx(12.5 + 7.0 - 5.0)


def test_zero_oracle_is_identity_prox():
    z = zero_oracle()
    v = np.array([1.0, -2.0])
    assert z.value(v) == 0.0
    assert np.array_equal(z.prox(v, 3.0), v)


def test_box_oracle_infeasible_value():
    box = box_oracle(-1.0, 1.0)
    assert box.value(np.array([0.5])) == 0.0
    assert box.value(np.array([1.5])) == np.inf


def test_oracle_builders_validate():
    with pytest.raises(InvalidInputError):
        l1_oracle(0.0)
    with pytest.raises(InvalidInputError):
        make_least_squares(np.ones((2, 2)), np.ones(3))
    with pytest.raises(InvalidInputError):
        box_oracle(2.0, -2.0)
    # the bounds are checked at the build, where prox_box checks them per call
    for lo, hi in ((0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(InvalidInputError, match="must be finite"):
            box_oracle(lo, hi)


def test_oracle_closures_match_the_checked_maps():
    # The closures skip the per-call checks of the public maps and return
    # the same bits on valid input, signed zeros and threshold ties included.
    v = np.array([-3.0, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 2.0, 7.5])
    for gamma in (0.5, 2.0, 8.0):
        pairs = ((l1_oracle(1.0).prox(v, gamma), prox_l1(v, 1.0, gamma)),
                 (l0_oracle(1.0).prox(v, gamma), prox_l0(v, 1.0, gamma)),
                 (box_oracle(-1.0, 1.0).prox(v, gamma), prox_box(v, -1.0, 1.0, gamma)))
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()
        keep_large = np.where(np.abs(v) > np.sqrt(2.0 / gamma), v, 0.0)
        assert prox_l0(v, 1.0, gamma).tobytes() == keep_large.tobytes()
    assert l2_norm_oracle(2.0).subgradient(v).tobytes() == subgrad_l2_norm(v, 2.0).tobytes()
    # a NaN entry stays NaN, so the solver sees a non-finite candidate
    assert np.isnan(l0_oracle(1.0).prox(np.array([np.nan, 3.0]), 1.0)[0])
