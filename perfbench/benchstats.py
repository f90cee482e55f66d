"""Order statistics the benchmark computes itself.

The simulator has its own percentile helpers, but their rank rule is
due to change; the benchmark keeps one fixed definition so its
numbers stay comparable across commits.
"""

import math

#: A tail percentile is reported only with at least this many samples
#: strictly beyond its rank.
MIN_BEYOND = 10


def nearest_rank(sorted_values, q):
    """Textbook nearest-rank percentile: ``sorted_values[ceil(n*q/100) - 1]``.

    :param sorted_values: non-empty, ascending.
    :param q: percentile in (0, 100].
    """
    if not sorted_values:
        raise ValueError("nearest_rank of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("percentile {} outside (0, 100]".format(q))
    rank = max(1, math.ceil(len(sorted_values) * q / 100.0))
    return sorted_values[rank - 1]


def chunk_percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile of per-chunk timings, refusing thin tails.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie
    beyond the rank, so a p95 needs at least 200 chunks.
    """
    values = sorted(samples)
    n = len(values)
    beyond = n - max(1, math.ceil(n * q / 100.0))
    if beyond < min_beyond:
        raise ValueError(
            "p{} of {} chunks has only {} beyond it (need {})".format(
                q, n, beyond, min_beyond
            )
        )
    return nearest_rank(values, q)

