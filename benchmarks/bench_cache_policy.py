"""Cache economics: prewarm must take the build off the request path,
GDSF must pay.

Acceptance bars for :mod:`repro.service.economics`:

* a pre-warm pass over ``mixed`` builds its one catalog artifact (cc's
  symmetrised graph) before traffic: the cold replay builds it once on
  the request path, the prewarmed replay builds nothing, and every
  catalog hit of the prewarmed replay is a ``prewarm_hits``.  Counts,
  not a timing ratio: ``prewarm_p95_ratio`` is reported only;
* every (policy × backend) prewarmed replay reproduces the recorded
  digests bit-for-bit — eviction economics never change answers;
* GDSF beats LRU on the mixed build-cost workload it was built for.
  The uniform-recency duel is reported but *not* asserted in GDSF's
  favour: that workload is LRU's home turf, and the honest rows are
  the documentation for when LRU remains the right default.
"""

import os

from repro.bench import cache_policy
from repro.bench.export import save_report

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")


def test_cache_policy(run_once, bench_scale):
    report = run_once(cache_policy, scale=bench_scale)
    print()
    print(report.to_text())
    save_report(report, os.path.join(RESULTS_DIR, "cache-policy.json"))

    by_phase = {}
    for row in report.rows:
        by_phase.setdefault(row["phase"], []).append(row)
    cold = by_phase["cold-start"][0]
    prewarmed = by_phase["prewarmed"][0]
    # the one cc request builds on the request path cold, never prewarmed
    assert cold["builds"] == 1
    assert prewarmed["builds"] == 0
    assert prewarmed["prewarm_built"] == 1
    # every catalog read of the replay hit the pre-warmed artifact
    assert prewarmed["prewarm_hits"] == prewarmed["catalog_hits"] >= 1

    # digest parity across every (policy x backend) pair
    assert report.extras["parity_clean"] is True
    for row in by_phase["parity"]:
        assert row["digests_ok"] is True
        assert row["digests_matched"] == row["digests_checked"] > 0

    # GDSF wins the mixed build-cost duel outright...
    assert report.extras["gdsf_mixed_rebuild_ratio"] < 0.8
    # ...and is allowed to lose uniform-recency, within reason
    assert report.extras["gdsf_recency_rebuild_ratio"] < 3.0
