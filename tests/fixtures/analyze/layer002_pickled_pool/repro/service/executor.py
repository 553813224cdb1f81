"""Seeded LAYER002: the pickled process pool that local shard hosts
replaced grows back, with its worker bootstrap."""

import pickle
from concurrent.futures import ProcessPoolExecutor


def worker_init(artifacts_dir):
    return pickle.dumps(artifacts_dir)


class _ProcessBackend:
    pool = ProcessPoolExecutor
