import itertools
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfairdeploy import synthesis
from qfairdeploy.circuits import Circuit
from qfairdeploy.partition import Partition, partition, recombine
from qfairdeploy.pipeline import load_config, load_model
from qfairdeploy.quantum import circuit_unitary
from qfairdeploy.seeding import spawn
from qfairdeploy.synthesis import (
    MAX_PATTERNS_PER_K,
    Candidate,
    CandidateList,
    OptimizerConfig,
    SynthesisError,
    SynthesisTemplate,
    _cannot_fit,
    _cnot_rows,
    _cut_singular_values,
    _forward,
    _placement_patterns,
    _u3_layers,
    _value_and_grad,
    fit_template,
    generate_candidate_lists,
    generate_candidates,
    hs_distance,
    load_candidate_lists,
    save_candidate_lists,
    verify_candidate_lists,
)
from qfairdeploy.toys import FAST_OPT, toy_model

from conftest import circuits, gate, random_circuit, random_unitary
from synthesis_oracle import candidate_list_alone, fit_template_alone, value_and_grad_frozen

FAST = OptimizerConfig(starts=4, iterations=250)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CNOT_U = circuit_unitary(Circuit(2, (gate("cnot", 0, 1),)))


def make_partition(target: np.ndarray, index: int = 0) -> Partition:
    n = int(round(math.log2(target.shape[0])))
    return Partition(index, tuple(range(n)), Circuit(n), target)


class TestHsDistance:
    def test_equal(self, rng):
        u = random_unitary(rng, 4)
        assert hs_distance(u, u) == pytest.approx(0.0, abs=1e-9)

    def test_cz_against_identity(self):
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        # |Tr| = 2 on d = 4: sqrt(1 - 4/16)
        assert hs_distance(np.eye(4), cz) == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert hs_distance(np.eye(4), cz) == pytest.approx(0.8660254037844386, abs=1e-12)

    def test_global_phase_invariance(self, rng):
        u = random_unitary(rng, 4)
        for theta in (0.3, 1.0, -2.5):
            assert hs_distance(u, np.exp(1j * theta) * u) == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_distance(np.eye(2), np.eye(4))

    def test_symmetric(self, rng):
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        assert hs_distance(u, v) == pytest.approx(hs_distance(v, u), abs=1e-12)


class TestTemplates:
    def test_param_count(self):
        assert SynthesisTemplate(2, ()).num_params == 6
        assert SynthesisTemplate(2, ((0, 1),) * 3).num_params == 24
        assert SynthesisTemplate(3, ((0, 1), (1, 2))).num_params == 27

    def test_realize_structure(self):
        t = SynthesisTemplate(2, ((0, 1),))
        c = t.realize(np.zeros(12))
        kinds = [g.kind.value for g in c.gates]
        assert kinds == ["u3", "u3", "cnot", "u3", "u3"]

    def test_bad_placement(self):
        with pytest.raises(ValueError):
            SynthesisTemplate(2, ((0, 0),))

    @pytest.mark.parametrize("template", [
        SynthesisTemplate(2, ((0, 1), (1, 0))),
        SynthesisTemplate(3, ((0, 1), (2, 0), (1, 2), (2, 1), (0, 2), (1, 0))),
    ])
    def test_batched_unitaries_match_realized_circuits(self, template, rng):
        params = rng.uniform(0.0, 2.0 * math.pi, size=(3, template.num_params))
        rows = [_cnot_rows(template.num_qubits, c, t) for c, t in template.placements]
        batch = _forward(_u3_layers(template.num_qubits, params)[2], rows)[1]
        for x, u in zip(params, batch):
            np.testing.assert_allclose(u, circuit_unitary(template.realize(x)), rtol=0, atol=1e-12)


@st.composite
def _gradient_case(draw):
    """A template on 1..3 qubits with 0..4 CNOTs placed either way round, a
    batch of angle vectors and a random target."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 4)) if n > 1 else 0
    placements = tuple(tuple(draw(st.permutations(range(n)))[:2]) for _ in range(k))
    template = SynthesisTemplate(n, placements)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = rng.uniform(0.0, 2.0 * math.pi, size=(2, template.num_params))
    return template, params, random_unitary(rng, 2**n)


class TestValueAndGrad:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_gradient_case())
    def test_matches_central_differences_of_realized_circuits(self, case):
        template, params, target = case
        rows = [_cnot_rows(template.num_qubits, c, t) for c, t in template.placements]
        targets = np.repeat(target[None], len(params), axis=0)
        f, grad = _value_and_grad(template.num_qubits, rows, params, targets)
        d = target.shape[0]
        h = 1e-6

        def objective(x):
            return hs_distance(circuit_unitary(template.realize(x)), target) ** 2

        for x, fx, gx in zip(params, f, grad):
            u = circuit_unitary(template.realize(x))
            assert fx == pytest.approx(1.0 - abs(np.trace(u.conj().T @ target)) ** 2 / d**2,
                                       abs=1e-12)
            fd = [(objective(x + h * e) - objective(x - h * e)) / (2.0 * h)
                  for e in np.eye(template.num_params)]
            np.testing.assert_allclose(gx, fd, rtol=0, atol=1e-7)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_the_frozen_kernel_bit_for_bit(self, seed):
        # tests/synthesis_oracle.py keeps the kernel as it stood before its
        # per-call overhead was cut, and a fit's angles follow every bit of
        # it: 1..3 qubits, 0..4 CNOTs placed at random, batches of 1..48
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        k = int(rng.integers(0, 5)) if n > 1 else 0
        batch = int(rng.integers(1, 49))
        rows = [_cnot_rows(n, *(int(q) for q in rng.permutation(n)[:2])) for _ in range(k)]
        params = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, size=(batch, 3 * n * (k + 1)))
        targets = np.stack([random_unitary(rng, 2**n) for _ in range(batch)])
        f, grad = _value_and_grad(n, rows, params, targets)
        f_ref, grad_ref = value_and_grad_frozen(n, rows, params, targets)
        assert np.array_equal(f, f_ref) and np.array_equal(grad, grad_ref)


class TestFitTemplate:
    def test_identity_target_k0(self):
        cand = fit_template(SynthesisTemplate(2, ()), np.eye(4, dtype=complex)[None], 1e-5,
                            opt=FAST, rngs=[spawn(1, "fit")])[0]
        assert cand is not None and cand.distance < 1e-6
        assert cand.cnots == 0

    def test_cnot_target_k0_impossible(self):
        cand = fit_template(SynthesisTemplate(2, ()), CNOT_U[None], 1e-2,
                            opt=FAST, rngs=[spawn(2, "fit")])[0]
        assert cand is None  # local products cannot reach an entangling gate

    def test_cnot_target_k1_exact(self):
        cand = fit_template(SynthesisTemplate(2, ((0, 1),)), CNOT_U[None], 1e-5,
                            opt=OptimizerConfig(), rngs=[spawn(3, "fit")])[0]
        assert cand is not None and cand.distance < 1e-6
        # independent oracle: rebuild the unitary by plain matrix products
        u = np.eye(4, dtype=complex)
        from qfairdeploy.quantum import gate_matrix
        for g in cand.circuit.gates:
            m = gate_matrix(g)
            if len(g.qubits) == 1:
                full = np.kron(m, np.eye(2)) if g.qubits[0] == 0 else np.kron(np.eye(2), m)
            else:
                full = m
            u = full @ u
        assert hs_distance(u, CNOT_U) < 1e-6

    def test_rejects_bad_budget(self):
        # a unitary distance lies in [0, 1]: NaN once passed and listed a
        # candidate at distance 0.108, and 1.5 died inside _cannot_fit
        for eps_syn in (0.0, -0.1, math.nan, 1.5, math.inf):
            with pytest.raises(ValueError, match="eps_syn"):
                fit_template(SynthesisTemplate(2, ()), np.eye(4, dtype=complex)[None], eps_syn,
                             opt=FAST, rngs=[spawn(4, "fit")])
            with pytest.raises(ValueError, match="eps_syn"):
                generate_candidates(make_partition(CNOT_U), eps_syn, 1, FAST)

    def test_accepts_the_whole_budget(self):
        cand = fit_template(SynthesisTemplate(2, ()), CNOT_U[None], 1.0, opt=FAST,
                            rngs=[spawn(4, "fit")])[0]
        assert cand is not None and cand.distance <= 1.0

    def test_deterministic_given_seed(self):
        a = fit_template(SynthesisTemplate(2, ((0, 1),)), CNOT_U[None], 1e-3, opt=FAST,
                         rngs=[spawn(7, "x")])[0]
        b = fit_template(SynthesisTemplate(2, ((0, 1),)), CNOT_U[None], 1e-3, opt=FAST,
                         rngs=[spawn(7, "x")])[0]
        assert a.circuit.gates == b.circuit.gates
        assert a.distance == b.distance

    def test_solved_target_leaves_the_batch(self, rng, monkeypatch):
        # CNOT is solved by k = 1; a Haar target is not, and keeps descending
        batches = []

        def recording(num_qubits, cnot_rows, params, targets):
            f, grad = _value_and_grad(num_qubits, cnot_rows, params, targets)
            is_cnot = np.all(targets == CNOT_U, axis=(1, 2))
            batches.append((is_cnot, f.copy()))  # fit_template updates the first f in place
            return f, grad

        monkeypatch.setattr(synthesis, "_value_and_grad", recording)
        eps_syn = 1e-3
        found = fit_template(SynthesisTemplate(2, ((0, 1),)),
                             np.stack([CNOT_U, random_unitary(rng, 4)]), eps_syn, FAST,
                             [spawn(8, "fit", i) for i in range(2)])
        assert found[0] is not None and found[1] is None
        solved_at = next(i for i, (is_cnot, f) in enumerate(batches)
                         if np.any(f[is_cnot] <= (eps_syn / 10.0) ** 2))
        later = batches[solved_at + 1:]
        assert later and all(len(is_cnot) for is_cnot, _ in later)  # the Haar target goes on
        assert not any(is_cnot.any() for is_cnot, _ in later)

    def test_toy4_seed7_descent_is_short(self, monkeypatch):
        # a cold toy4 synthesis at seed 7: the first-order descent made 619
        # `_value_and_grad` calls over 9,144 start evaluations, BFGS makes 71
        calls = []

        def counting(num_qubits, cnot_rows, params, targets):
            calls.append(len(params))
            return _value_and_grad(num_qubits, cnot_rows, params, targets)

        monkeypatch.setattr(synthesis, "_value_and_grad", counting)
        cfg = load_config(CONFIG_DIR / "toy4.config")
        parts = partition(load_model(cfg).circuit, cfg.s_blk)
        generate_candidate_lists(parts, cfg.eps_syn, cfg.k_max, cfg.opt, cfg.seed,
                                 cfg.max_candidates)
        assert len(calls) < 150, f"{len(calls)} calls over {sum(calls)} start evaluations"

    @pytest.mark.parametrize("targets, rngs", [
        (CNOT_U[None], []),  # one target, no rng
        (np.stack([CNOT_U, CNOT_U]), [spawn(5, "fit")]),  # two targets, one rng
        (CNOT_U, [spawn(5, "fit")]),  # a bare matrix, not a stack
        (np.empty((0, 4, 4)), []),  # no target at all
        (np.eye(8, dtype=complex)[None], [spawn(5, "fit")]),  # 3-qubit target, 2-qubit template
    ])
    def test_rejects_mismatched_targets_and_rngs(self, targets, rngs):
        with pytest.raises(ValueError):
            fit_template(SynthesisTemplate(2, ((0, 1),)), targets, 1e-3, opt=FAST, rngs=rngs)


class TestBfgsUpdate:
    def test_equals_the_product_form_and_meets_the_secant_condition(self, rng):
        p = 6
        a = rng.normal(size=(3, p, p))
        inv_hess = a @ a.swapaxes(1, 2) + np.eye(p)  # positive definite
        s, y = rng.normal(size=(3, p)), rng.normal(size=(3, p))
        y[0] = -s[0]  # no positive curvature: H stays
        y[1] = s[1] + 0.1 * y[1]  # positive curvature
        accepted = np.array([True, True, False])
        updated = inv_hess.copy()
        synthesis._bfgs_update(updated, s, y, accepted)
        assert np.array_equal(updated[0], inv_hess[0]) and np.array_equal(updated[2], inv_hess[2])
        rho = 1.0 / (s[1] @ y[1])
        left = np.eye(p) - rho * np.outer(s[1], y[1])
        expected = left @ inv_hess[1] @ left.T + rho * np.outer(s[1], s[1])
        assert np.allclose(updated[1], expected, rtol=1e-12, atol=1e-12)
        assert np.allclose(updated[1] @ y[1], s[1], rtol=1e-12, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(updated[1]) > 0.0)


@st.composite
def _lockstep_case(draw):
    """A template on 1..3 qubits with 0..3 CNOTs, 1..6 targets of its width
    (Haar-like QR unitaries, random circuits' unitaries, and points the
    template reaches exactly), a fast optimizer, a budget and a seed."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3)) if n > 1 else 0
    placements = tuple(tuple(draw(st.permutations(range(n)))[:2]) for _ in range(k))
    template = SynthesisTemplate(n, placements)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = []
    for kind in draw(st.lists(st.sampled_from(("haar", "circuit", "reachable")),
                              min_size=1, max_size=6)):
        if kind == "haar":
            targets.append(random_unitary(rng, 2**n))
        elif kind == "circuit":
            targets.append(circuit_unitary(draw(circuits(n, n, 8))))
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, template.num_params)
            targets.append(circuit_unitary(template.realize(angles)))
    opt = OptimizerConfig(starts=draw(st.integers(1, 4)), iterations=draw(st.integers(0, 40)))
    eps_syn = draw(st.sampled_from((1e-3, 1e-2, 0.1, 0.5, 0.9)))
    return template, np.stack(targets), eps_syn, opt, draw(st.integers(0, 2**63 - 1))


class TestLockstepAgainstOracle:
    """The lockstep fit against tests/synthesis_oracle.py, which fits each
    target on its own: equal gates, angles and distances, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_lockstep_case())
    def test_fit_template_equals_one_target_fits(self, case):
        template, targets, eps_syn, opt, seed = case
        rngs = [spawn(seed, "fit", i) for i in range(len(targets))]
        alone = [fit_template_alone(template, t, eps_syn, opt, spawn(seed, "fit", i))
                 for i, t in enumerate(targets)]
        assert fit_template(template, targets, eps_syn, opt, rngs) == alone

    def test_one_call_mixes_accepted_and_rejected_fits(self, rng):
        template = SynthesisTemplate(2, ((0, 1),))
        reachable = circuit_unitary(template.realize(rng.uniform(0.0, 6.0, template.num_params)))
        targets = np.stack([reachable, CNOT_U, random_unitary(rng, 4)])
        found = fit_template(template, targets, 1e-3, FAST, [spawn(1, "fit", i) for i in range(3)])
        assert [c is not None for c in found] == [True, True, False]
        assert found == [fit_template_alone(template, t, 1e-3, FAST, spawn(1, "fit", i))
                         for i, t in enumerate(targets)]

    @staticmethod
    def _assert_lists_equal_oracle(parts, eps_syn, k_max, opt, seed, max_candidates):
        lists = generate_candidate_lists(parts, eps_syn, k_max, opt, seed, max_candidates)
        assert lists == [candidate_list_alone(p, eps_syn, k_max, opt, seed, max_candidates)
                         for p in parts]

    def test_mixed_widths_equal_per_partition_fits(self):
        # date22's 3-qubit ansatz splits into 2-qubit blocks and a width-1 block
        model = toy_model(num_qubits=3, layers=1, seed=13, arch="date22")
        parts = partition(model.circuit, 2)
        assert sorted({len(p.qubits) for p in parts}) == [1, 2]
        self._assert_lists_equal_oracle(parts, 1e-2, 3, FAST_OPT, 13, 3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_qubit_blocks_equal_per_partition_fits(self, seed):
        # k = 3 on 3 qubits samples 20 of 27 placements per partition
        parts = partition(random_circuit(np.random.default_rng(seed), 4, 12), 3)
        assert any(len(p.qubits) == 3 for p in parts)
        self._assert_lists_equal_oracle(parts, 0.9, 3, OptimizerConfig(starts=2, iterations=30),
                                        seed, 9)

    @pytest.mark.parametrize("seed", [7, 1, 2])
    def test_toy4_partitions_equal_per_partition_fits(self, seed):
        cfg = load_config(CONFIG_DIR / "toy4.config")
        parts = partition(load_model(cfg).circuit, cfg.s_blk)
        self._assert_lists_equal_oracle(parts, cfg.eps_syn, cfg.k_max, FAST, seed,
                                        cfg.max_candidates)


class TestGenerateCandidates:
    def test_identity_target_lists_zero_cnot_first(self):
        cl = generate_candidates(make_partition(np.eye(4, dtype=complex)), 1e-2,
                                 k_max=2, opt=FAST, seed=1)
        assert cl.candidates[0].cnots == 0

    def test_cnot_target_min_cnots_is_one(self):
        cl = generate_candidates(make_partition(CNOT_U), 1e-5, k_max=2, seed=2)
        assert min(c.cnots for c in cl.candidates) == 1

    def test_random_target_within_three_cnots(self, rng):
        target = random_unitary(rng, 4)
        cl = generate_candidates(make_partition(target), 1e-5, k_max=3, seed=3)
        assert any(c.cnots <= 3 for c in cl.candidates)

    def test_budget_reverified_independently(self, rng):
        target = random_unitary(rng, 4)
        cl = generate_candidates(make_partition(target), 1e-2, k_max=3, opt=FAST, seed=4)
        for c in cl.candidates:
            assert hs_distance(circuit_unitary(c.circuit), target) <= 1e-2 + 1e-12
            assert c.distance <= 1e-2

    def test_sorted_by_cnots_then_distance(self, rng):
        target = random_unitary(rng, 4)
        cl = generate_candidates(make_partition(target), 0.5, k_max=3, opt=FAST, seed=5)
        keys = [(c.cnots, c.distance) for c in cl.candidates]
        assert keys == sorted(keys)

    def test_monotone_opportunity_in_k_max(self):
        target = circuit_unitary(Circuit(2, (gate("rzz", 0, 1, params=(0.9,)),)))
        part = make_partition(target)
        best = []
        for k_max in range(4):
            try:
                cl = generate_candidates(part, 0.9, k_max=k_max, opt=FAST, seed=6)
                best.append(min(c.distance for c in cl.candidates))
            except SynthesisError:
                best.append(1.0)
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))

    def test_empty_result_raises(self):
        # an entangling target with k_max=0 cannot be met at a tight budget
        with pytest.raises(SynthesisError):
            generate_candidates(make_partition(CNOT_U), 1e-5, k_max=0, opt=FAST, seed=7)

    def test_determinism(self, rng):
        target = random_unitary(rng, 4)
        part = make_partition(target)
        a = generate_candidates(part, 5e-2, k_max=3, opt=FAST, seed=8)
        b = generate_candidates(part, 5e-2, k_max=3, opt=FAST, seed=8)
        assert [c.circuit.gates for c in a.candidates] == [c.circuit.gates for c in b.candidates]
        assert [c.distance for c in a.candidates] == [c.distance for c in b.candidates]

    def test_one_qubit_partition(self, rng):
        c = Circuit(1, (gate("u3", 0, params=tuple(rng.uniform(0, 6, 3))),))
        part = Partition(0, (2,), c, circuit_unitary(c))
        cl = generate_candidates(part, 1e-5, k_max=4, opt=FAST, seed=9)
        assert cl.candidates[0].cnots == 0
        assert cl.candidates[0].distance < 1e-6

    def test_three_qubit_partition_small_budget(self):
        c = Circuit(3, (gate("cnot", 0, 2),))
        part = Partition(0, (0, 1, 2), c, circuit_unitary(c))
        cl = generate_candidates(part, 1e-3, k_max=1, opt=FAST, seed=10)
        assert min(c.cnots for c in cl.candidates) == 1


def _template(draw, n: int, k_max: int = 4) -> SynthesisTemplate:
    k = draw(st.integers(0, k_max)) if n > 1 else 0
    return SynthesisTemplate(n, tuple(tuple(draw(st.permutations(range(n)))[:2]) for _ in range(k)))


@st.composite
def _prune_case(draw):
    """A template on 1-3 qubits with 0-4 CNOTs, a budget, and a target that a
    circuit of a source template (the same one half the time) reaches, or
    misses by a random unitary step of 0.5-1.5 times the budget."""
    n = draw(st.integers(1, 3))
    template = _template(draw, n)
    source = template if draw(st.booleans()) else _template(draw, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reached = circuit_unitary(source.realize(rng.uniform(0.0, 2.0 * math.pi, source.num_params)))
    eps_syn = draw(st.sampled_from((1e-12, 1e-6, 1e-3, 1e-2, 0.1, 0.3, 0.6, 0.85)))
    target = reached
    if draw(st.booleans()):  # exp(i theta H), H traceless with unit mean-square eigenvalue
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        w, v = np.linalg.eigh(a + a.conj().T)
        w -= w.mean()
        theta = draw(st.floats(0.5, 1.5)) * eps_syn / max(math.sqrt(np.mean(w * w)), 1e-12)
        target = reached @ (v * np.exp(1j * theta * w)) @ v.conj().T
    return template, source, reached, target, eps_syn, draw(st.integers(0, 2**63 - 1))


class TestPrune:
    """`_cannot_fit` skips a fit only when no circuit of the template lies
    within the budget, so every fit it skips would have returned None."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_prune_case())
    def test_never_fires_within_budget_and_skipped_fits_fail(self, case):
        template, source, reached, target, eps_syn, seed = case
        pruned = _cannot_fit(template, _cut_singular_values(target), eps_syn)
        if template == source and hs_distance(reached, target) <= eps_syn:
            assert not pruned
        if pruned:
            assert fit_template(template, target[None], eps_syn, FAST, [spawn(seed, "fit")]) == [None]
            rng = np.random.default_rng(seed)
            for _ in range(5):
                angles = rng.uniform(0.0, 2.0 * math.pi, template.num_params)
                assert hs_distance(circuit_unitary(template.realize(angles)), target) > eps_syn

    def test_never_fires_on_a_reachable_target_at_tight_budgets(self, rng):
        for n, placements in [(2, ()), (2, ((0, 1),)), (3, ((0, 1),)), (3, ((1, 2), (0, 1)))]:
            template = SynthesisTemplate(n, placements)
            for _ in range(20):
                angles = rng.uniform(0.0, 2.0 * math.pi, template.num_params)
                target = circuit_unitary(template.realize(angles))
                for eps_syn in (1e-15, 1e-12, 1e-9):
                    assert not _cannot_fit(template, _cut_singular_values(target), eps_syn)

    def test_fires_on_entangling_targets_below_their_cnot_count(self):
        # CNOT is out of reach without a CNOT, and SWAP with fewer than three
        assert _cannot_fit(SynthesisTemplate(2, ()), _cut_singular_values(CNOT_U), 1e-2)
        assert not _cannot_fit(SynthesisTemplate(2, ((0, 1),)), _cut_singular_values(CNOT_U), 1e-2)
        swap = circuit_unitary(Circuit(2, (gate("cnot", 0, 1), gate("cnot", 1, 0), gate("cnot", 0, 1))))
        for k in range(2):
            assert _cannot_fit(SynthesisTemplate(2, ((0, 1),) * k), _cut_singular_values(swap), 1e-2)

    def test_toy4_skips_only_rejected_fits(self):
        # at seed 7, 10 of toy4's 24 (partition, template) fits are skipped:
        # k = 0 on its 4 entangling blocks and k = 1 on all 6 blocks
        cfg = load_config(CONFIG_DIR / "toy4.config")
        parts = partition(load_model(cfg).circuit, cfg.s_blk)
        skipped = 0
        for part in parts:
            svals = _cut_singular_values(part.target_unitary)
            for k in range(cfg.k_max + 1 if len(part.qubits) > 1 else 1):
                template = SynthesisTemplate(len(part.qubits), ((0, 1),) * k)
                if _cannot_fit(template, svals, cfg.eps_syn):
                    skipped += 1
                    assert fit_template_alone(template, part.target_unitary, cfg.eps_syn, cfg.opt,
                                              spawn(cfg.seed, "fit", part.index, k)) is None
        assert skipped == 10


class TestPlacementPatterns:
    PAIRS = [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("k", range(7))
    def test_equal_to_listing_every_pattern(self, k):
        # the listing the sampler replaced: every pattern in itertools order,
        # 20 of them drawn by the same rng call when there are more
        every = list(itertools.product(self.PAIRS, repeat=k))
        oracle_rng, rng = np.random.default_rng(k), np.random.default_rng(k)
        if len(every) > MAX_PATTERNS_PER_K:
            chosen = oracle_rng.choice(len(every), size=MAX_PATTERNS_PER_K, replace=False)
            every = [every[i] for i in sorted(chosen)]
        assert _placement_patterns(3, k, rng) == every
        assert rng.random() == oracle_rng.random()  # the stream advanced alike

    def test_long_sequences_are_drawn_without_listing_them(self):
        # listing all 3^14 = 4.8M patterns takes about 1.5 s and 0.8 GB;
        # k stays at 14 so that such a regression fails without exhausting memory
        started = time.perf_counter()
        patterns = _placement_patterns(3, 14, np.random.default_rng(0))
        assert time.perf_counter() - started < 0.5
        assert len(set(patterns)) == MAX_PATTERNS_PER_K
        assert all(len(p) == 14 and set(p) <= set(self.PAIRS) for p in patterns)


def test_recombination_bound_subadditive(rng):
    # approximating two partitions independently cannot overshoot the summed
    # budget: checked numerically on random 2-partition splits
    for trial in range(5):
        c = random_circuit(rng, 2, 8)
        gates = c.gates
        half = len(gates) // 2
        parts = []
        for idx, sub_gates in ((0, gates[:half]), (1, gates[half:])):
            sub = Circuit(2, tuple(sub_gates))
            parts.append(Partition(idx, (0, 1), sub, circuit_unitary(sub)))
        lists = [generate_candidates(p, 0.7, k_max=3, opt=FAST, seed=20 + trial) for p in parts]
        sels = [cl.candidates[0] for cl in lists]
        recombined = recombine(parts, [s.circuit for s in sels], 2)
        total = hs_distance(circuit_unitary(recombined), circuit_unitary(c))
        assert total <= sum(s.distance for s in sels) + 1e-6


def test_candidate_lists_round_trip(tmp_path, rng):
    target = random_unitary(rng, 4)
    cl = generate_candidates(make_partition(target), 0.2, k_max=3, opt=FAST, seed=11)
    save_candidate_lists([cl], tmp_path / "cands")
    (back,) = load_candidate_lists(tmp_path / "cands")
    assert back.partition_index == cl.partition_index
    assert [c.circuit.gates for c in back.candidates] == [c.circuit.gates for c in cl.candidates]
    assert [c.distance for c in back.candidates] == [c.distance for c in cl.candidates]
    assert [c.cnots for c in back.candidates] == [c.cnots for c in cl.candidates]


def test_candidate_unitary_is_built_once_and_is_its_circuits(rng, monkeypatch):
    cand = Candidate(random_circuit(rng, 2, 8), 0.0)
    assert cand.unitary is cand.unitary
    assert cand.unitary.tobytes() == circuit_unitary(cand.circuit).tobytes()  # bit for bit
    # a fitted candidate carries the matrix its fit was verified with
    built = []
    monkeypatch.setattr(synthesis, "circuit_unitary", lambda c: built.append(c) or circuit_unitary(c))
    parts = [make_partition(random_unitary(rng, 4), index=i) for i in range(2)]
    lists = generate_candidate_lists(parts, 0.7, 2, FAST, seed=3)
    fitted = len(built)
    cands = [c for cl in lists for c in cl.candidates]
    assert cands and all(any(c.circuit is b for b in built) for c in cands)
    for c in cands:
        assert c.unitary is c.unitary
        assert c.unitary.tobytes() == circuit_unitary(c.circuit).tobytes()
    assert len(built) == fitted  # none rebuilt


@st.composite
def _candidate_lists(draw):
    """A random circuit's partitions, each with 1-3 candidates: its own
    sub-circuit or random circuits on its qubits, at their true distances."""
    parts = partition(draw(circuits(max_qubits=4, max_gates=12)), draw(st.sampled_from((2, 3))))
    lists = []
    for part in parts:
        width = len(part.qubits)
        options = [part.sub_circuit]
        options += [draw(circuits(width, width, 6)) for _ in range(draw(st.integers(0, 2)))]
        cands = sorted((Candidate(c, hs_distance(circuit_unitary(c), part.target_unitary))
                        for c in options),
                       key=lambda c: (c.cnots, c.distance))
        lists.append(CandidateList(part.index, tuple(cands)))
    return parts, lists


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_candidate_lists())
def test_candidate_lists_round_trip_random(case):
    parts, lists = case
    with tempfile.TemporaryDirectory() as tmp:
        save_candidate_lists(lists, Path(tmp) / "cands")
        back = load_candidate_lists(Path(tmp) / "cands")
    assert back == lists  # gates and distances, bit for bit
    verify_candidate_lists(back, parts, eps_syn=1.0)
