"""The --seed argument reaches the generated inputs, and only through them."""

import itertools

import numpy as np

from harness.workloads import _build, job_seeds, round_seed
from run import parse_args


def small(seed):
    return _build(
        method="sha", dataset="australian", scale=0.1, hps=2, max_iter=2,
        seed=seed, engine_factory=None,
    )


def test_seed_argument_is_parsed():
    args = parse_args(["--workload", "sha_2workers", "--seed", "7", "--seconds", "3", "--trace", "1"])
    assert (args.seed, args.seconds, args.trace) == (7, 3.0, 1)


def test_same_seed_same_inputs_other_seed_other_inputs():
    a, b, c = small(1), small(1), small(2)
    assert np.array_equal(a.dataset.X_train, b.dataset.X_train)
    assert np.array_equal(a.dataset.y_train, b.dataset.y_train)
    assert not np.array_equal(a.dataset.X_train, c.dataset.X_train)
    assert a.searcher.random_state == 1 and c.searcher.random_state == 2


def test_serve_job_seeds_follow_the_seed():
    first = list(itertools.islice(job_seeds(3), 50))
    assert first == list(itertools.islice(job_seeds(3), 50))
    assert len(set(first)) == 50
    assert not set(first) & set(itertools.islice(job_seeds(4), 50))


def test_round_seeds_are_distinct_within_and_across_runs():
    rounds = {seed: {round_seed(seed, r) for r in range(100)} for seed in (1, 2)}
    assert len(rounds[1]) == 100
    assert not rounds[1] & rounds[2]
