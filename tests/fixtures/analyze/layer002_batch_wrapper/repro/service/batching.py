"""Seeded LAYER002: the one-call batch wrapper grows back beside the
pair the executor calls directly."""


def run_sources_on_target(algorithm, sources, options, target):
    return {}, None


def fan_out_per_request(requests, per_source):
    return {}


def run_batch_on_target(batch, target):
    per_source, execution = run_sources_on_target(
        batch.algorithm, batch.sources, batch.options, target
    )
    return fan_out_per_request(batch.requests, per_source), execution
