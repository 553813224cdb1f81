"""Table 7 — transformation time cost (physical vs virtual).

The paper measures 403-16,444 ms for physical UDT vs 20.7-289.7 ms
for virtual transformation (a 10-60x gap), both linear in graph size.
The same ordering appears here with a narrower gap (3x-9x): UDT
rewrites the whole CSR in vectorised O(|E|) passes, while the virtual
node array is a vectorised O(|V|) construction.
"""

from repro.bench import table7_transform_time


def test_table7(run_once, bench_scale):
    report = run_once(table7_transform_time, scale=bench_scale)
    print()
    print(report.to_text())
    # virtual is at least several-fold cheaper on every dataset
    assert report.extras["min_ratio"] > 3.0
    # costs grow with graph size: the largest graphs cost the most
    by_name = {r["dataset"]: r for r in report.rows}
    assert by_name["sinaweibo"]["physical_ms"] > by_name["pokec"]["physical_ms"]
    assert by_name["sinaweibo"]["virtual_ms"] > by_name["pokec"]["virtual_ms"]
