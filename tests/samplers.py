"""Samplers that several test modules share."""

from operadic.rng import Stream


def sample_perm(rng: Stream, n: int) -> tuple:
    return tuple(rng.shuffle(range(1, n + 1)))
