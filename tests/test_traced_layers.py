"""The layer boundaries that perfbench/tracer.py wraps are still reached.

The tracer replaces module-level names (criteria.classify,
criteria.is_permutive_at, criteria.run_criteria, ...) with timed
wrappers. A refactor that keeps those names but stops calling them
through the module globals leaves the names in place while their
per-layer metrics silently read zero; this test audits a small family
under the tracer and checks that the spans are recorded.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import tracer  # noqa: E402

from ca_verify import criteria, rule  # noqa: E402


def test_audit_reaches_the_traced_layers():
    before = rule.classify.cache_info()
    trace = tracer.Tracer()
    uninstall = tracer.install(trace)
    try:
        spec = criteria.parse_family("kind=all_tables\nmoduli=2\nd=1\n")
        rows = list(criteria.audit(spec))
    finally:
        uninstall()
    after = rule.classify.cache_info()
    assert len(rows) == 16
    names = [span[tracer.NAME] for span in trace.spans]
    assert names.count("rule.classify") == 16
    assert names.count("rule.is_permutive_at") == 16 * 2
    assert names.count("criteria.run_criteria") == 16
    metrics = tracer.layer_metrics(trace)
    for metric in ("rule.classify_s", "rule.permutive_s", "criteria.run_criteria_s"):
        assert metrics[metric] > 0, metric
    assert (after.hits + after.misses) - (before.hits + before.misses) == 16
