"""Tests for the annealing substrate: BQM, schedules, SA sampler, exact solver."""

import numpy as np
import pytest

from repro.core import SimulationError
from repro.results import SampleSet
from repro.simulators.anneal import (
    BinaryQuadraticModel,
    ExactSolver,
    SimulatedAnnealingSampler,
    Vartype,
    beta_schedule,
    default_beta_range,
)


def cycle_bqm():
    return BinaryQuadraticModel.from_ising(
        [0, 0, 0, 0], {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 0): 1.0}
    )


def test_bqm_construction_and_energy():
    bqm = cycle_bqm()
    assert bqm.num_variables == 4
    assert bqm.num_interactions == 4
    assert bqm.energy([1, -1, 1, -1]) == -4.0
    assert bqm.energy([1, 1, 1, 1]) == 4.0
    assert bqm.energy({0: 1, 1: -1, 2: 1, 3: -1}) == -4.0


def test_bqm_vectorised_energies():
    bqm = cycle_bqm()
    samples = np.array([[1, -1, 1, -1], [1, 1, 1, 1], [1, 1, -1, -1]])
    energies = bqm.energies(samples)
    assert list(energies) == [-4.0, 4.0, 0.0]


def test_bqm_domain_check():
    bqm = cycle_bqm()
    with pytest.raises(SimulationError):
        bqm.energy([0, 1, 0, 1])  # binary values in a SPIN model
    with pytest.raises(SimulationError):
        bqm.add_interaction(0, 0, 1.0)


def test_vartype_conversion_preserves_energy():
    bqm = BinaryQuadraticModel.from_ising([0.5, -0.25, 0], {(0, 1): 1.0, (1, 2): -2.0})
    binary = bqm.change_vartype(Vartype.BINARY)
    rng = np.random.default_rng(0)
    for _ in range(20):
        spins = rng.choice([-1, 1], size=3)
        bits = (spins + 1) // 2
        assert bqm.energy(spins) == pytest.approx(binary.energy(bits))
    # Round trip back to SPIN.
    back = binary.change_vartype(Vartype.SPIN)
    spins = np.array([1, -1, 1])
    assert back.energy(spins) == pytest.approx(bqm.energy(spins))


def test_qubo_round_trip():
    bqm = cycle_bqm()
    Q, offset = bqm.to_qubo()
    rebuilt = BinaryQuadraticModel.from_qubo(Q, offset)
    spins = np.array([1, -1, -1, 1])
    bits = (spins + 1) // 2
    assert rebuilt.energy(bits) == pytest.approx(bqm.energy(spins))


def test_from_graph_and_arrays():
    bqm = BinaryQuadraticModel.from_graph([(0, 1, 2.0), (1, 2, -1.0)])
    h, J, offset = bqm.to_arrays()
    assert h.shape == (3,) and J[0, 1] == 2.0 and J[1, 2] == -1.0 and offset == 0.0
    assert bqm.get_quadratic(1, 0) == 2.0
    assert bqm.get_quadratic(0, 2) == 0.0


def test_beta_schedule_shapes():
    geometric = beta_schedule(10, (0.1, 10.0), "geometric")
    linear = beta_schedule(10, (0.1, 10.0), "linear")
    assert len(geometric) == len(linear) == 10
    assert geometric[0] == pytest.approx(0.1) and geometric[-1] == pytest.approx(10.0)
    assert np.all(np.diff(geometric) > 0) and np.all(np.diff(linear) > 0)
    with pytest.raises(SimulationError):
        beta_schedule(5, (1.0, 0.1))
    with pytest.raises(SimulationError):
        beta_schedule(5, (0.1, 1.0), "sigmoid")


def test_default_beta_range_positive():
    low, high = default_beta_range(cycle_bqm())
    assert 0 < low < high


def test_exact_solver_ground_states():
    solver = ExactSolver()
    bqm = cycle_bqm()
    assert solver.ground_energy(bqm) == -4.0
    ground = solver.ground_states(bqm)
    assert len(ground) == 2
    assert set(ground.to_counts()) == {"0101", "1010"}
    spectrum = solver.sample(bqm)
    assert len(spectrum) == 16


def test_exact_solver_limits():
    solver = ExactSolver()
    with pytest.raises(SimulationError):
        solver.sample(BinaryQuadraticModel())
    big = BinaryQuadraticModel({i: 0.1 for i in range(30)}, {}, 0.0, Vartype.SPIN)
    with pytest.raises(SimulationError):
        solver.sample(big)


def test_sa_finds_cycle_ground_states():
    sampler = SimulatedAnnealingSampler()
    result = sampler.sample(cycle_bqm(), num_reads=200, num_sweeps=200, seed=3)
    assert result.first.energy == -4.0
    assert result.ground_state_probability() > 0.8
    counts = result.to_counts()
    assert set(counts.most_common(2)[i][0] for i in range(2)) == {"0101", "1010"}


def test_sa_respects_seed():
    sampler = SimulatedAnnealingSampler()
    a = sampler.sample(cycle_bqm(), num_reads=50, num_sweeps=50, seed=1)
    b = sampler.sample(cycle_bqm(), num_reads=50, num_sweeps=50, seed=1)
    assert np.array_equal(a.samples, b.samples)


def test_sa_handles_linear_biases():
    # Strong field pins every spin down (+h favours s = -1).
    bqm = BinaryQuadraticModel.from_ising([5.0, 5.0, 5.0], {})
    result = SimulatedAnnealingSampler().sample(bqm, num_reads=50, num_sweeps=100, seed=0)
    assert tuple(result.first.sample) == (-1, -1, -1)


def test_sample_ising_and_qubo_wrappers():
    sampler = SimulatedAnnealingSampler()
    ising = sampler.sample_ising([0, 0], {(0, 1): 1.0}, num_reads=20, num_sweeps=50, seed=2)
    assert ising.first.energy == -1.0
    qubo = sampler.sample_qubo({(0, 0): -1.0, (1, 1): -1.0, (0, 1): 2.0},
                               num_reads=20, num_sweeps=50, seed=2)
    assert qubo.first.energy == pytest.approx(-1.0)


def test_sampler_argument_validation():
    sampler = SimulatedAnnealingSampler()
    with pytest.raises(SimulationError):
        sampler.sample(BinaryQuadraticModel(), num_reads=1)
    with pytest.raises(SimulationError):
        sampler.sample(cycle_bqm(), num_reads=0)
    with pytest.raises(SimulationError):
        sampler.sample(cycle_bqm(), num_reads=2, initial_states=np.zeros((1, 4)))


# -- the optimised sweep against the one-draw-per-visit loop -----------------------------------

def one_draw_per_visit_sample(
    bqm,
    *,
    num_reads,
    num_sweeps,
    beta_range=None,
    schedule="geometric",
    seed=None,
    initial_states=None,
):
    """The sampler's original sweep loop, kept verbatim as the oracle.

    It draws one ``num_reads`` block of uniforms per visit and flips the
    accepted reads through a boolean mask.
    """
    spin_model = bqm.change_vartype(Vartype.SPIN)
    h, J, offset = spin_model.to_arrays()
    n = len(h)
    # Symmetric coupling matrix for local-field computation.
    W = J + J.T

    rng = np.random.default_rng(seed)
    if initial_states is not None:
        states = np.asarray(initial_states, dtype=np.int8).copy()
    else:
        states = rng.choice(np.array([-1, 1], dtype=np.int8), size=(num_reads, n))

    betas = beta_schedule(
        num_sweeps, beta_range or default_beta_range(spin_model), schedule
    )

    states_f = states.astype(float)
    for beta in betas:
        # Visit variables in a fresh random order each sweep.
        for var in rng.permutation(n):
            local_field = states_f @ W[:, var] + h[var]
            # Flipping s_i changes the energy by -2 * s_i * (h_i + sum_j W_ij s_j).
            delta_e = -2.0 * states_f[:, var] * local_field
            accept = (delta_e <= 0.0) | (
                rng.random(num_reads) < np.exp(-beta * np.clip(delta_e, 0.0, 700.0 / beta))
            )
            states_f[accept, var] *= -1.0

    samples = states_f.astype(np.int8)
    energies = spin_model.energies(samples)
    sample_set = SampleSet(
        samples,
        energies,
        variables=[str(v) for v in spin_model.variables],
    )
    return sample_set.aggregate()


def ring_with_chords(nodes, chords, rng, integer=False):
    edges = [(i, (i + 1) % nodes) for i in range(nodes)] + list(chords)
    weights = rng.integers(1, 3, len(edges)) if integer else rng.uniform(0.5, 1.5, len(edges))
    return BinaryQuadraticModel.from_ising([0.0] * nodes, dict(zip(edges, weights.tolist())))


def random_ising(n, rng, density=0.5):
    h = rng.normal(0.0, 1.0, n)
    couplings = {
        (i, j): float(rng.normal(0.0, 1.0))
        for i in range(n) for j in range(i + 1, n) if rng.random() < density
    }
    return BinaryQuadraticModel.from_ising(h.tolist(), couplings)


def oracle_models():
    rng = np.random.default_rng(2024)
    return {
        "ring12": ring_with_chords(12, [(0, 3), (4, 7), (8, 11)], rng),
        "random8": random_ising(8, rng),
        "random3": random_ising(3, rng, density=1.0),
        "random20": random_ising(20, rng, density=0.3),
        # Integer couplings on a bipartite ring give exact-zero local fields.
        "int_ring10": ring_with_chords(10, [(0, 5)], rng, integer=True),
        "qubo": BinaryQuadraticModel.from_qubo(
            {(0, 0): -1.0, (1, 1): -1.0, (2, 2): 0.5, (0, 1): 2.0, (1, 2): -1.5, (0, 2): 0.75}
        ),
        "single": BinaryQuadraticModel.from_ising([0.3], {}),
    }


ORACLE_MODELS = oracle_models()
#: Per model, reads and sweeps: seed, beta range and whether initial states are given.
ORACLE_DRAWS = [(11, None, False), (12, (1e-4, 1e4), False), (13, None, True)]


def assert_same_sampleset(got, want):
    assert np.array_equal(got.samples, want.samples)
    assert np.array_equal(got.energies, want.energies)
    assert np.array_equal(got.num_occurrences, want.num_occurrences)
    assert got.variables == want.variables
    assert got.to_counts().to_dict() == want.to_counts().to_dict()


def check_against_one_draw_per_visit(bqm, num_reads, num_sweeps, schedule, seed, beta_range, initial):
    initial_states = None
    if initial:
        initial_states = np.random.default_rng(seed + 100).choice(
            np.array([-1, 1], dtype=np.int8), size=(num_reads, bqm.num_variables)
        )
    kwargs = dict(num_reads=num_reads, num_sweeps=num_sweeps, beta_range=beta_range,
                  schedule=schedule, seed=seed, initial_states=initial_states)
    got = SimulatedAnnealingSampler().sample(bqm, **kwargs)
    assert_same_sampleset(got, one_draw_per_visit_sample(bqm, **kwargs))


@pytest.mark.parametrize("num_sweeps", [1, 30])
@pytest.mark.parametrize("num_reads", [1, 7, 200])
@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
def test_sweep_matches_one_draw_per_visit_oracle(model, num_reads, num_sweeps):
    for schedule in ("geometric", "linear"):
        for seed, beta_range, initial in ORACLE_DRAWS:
            check_against_one_draw_per_visit(
                ORACLE_MODELS[model], num_reads, num_sweeps, schedule, seed, beta_range, initial
            )


@pytest.mark.slow
@pytest.mark.parametrize("schedule", ["geometric", "linear"])
@pytest.mark.parametrize("model", ["random40", "ring40"])
def test_wide_sweep_matches_one_draw_per_visit_oracle(model, schedule):
    rng = np.random.default_rng(40)
    bqm = {
        "random40": lambda: random_ising(40, rng, density=0.2),
        "ring40": lambda: ring_with_chords(40, [(0, 20), (10, 30)], rng),
    }[model]()
    for seed, beta_range, initial in ((21, None, False), (22, (1e-4, 1e4), True)):
        check_against_one_draw_per_visit(bqm, 1000, 100, schedule, seed, beta_range, initial)
