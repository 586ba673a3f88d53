"""Real-time risk updating with a time-sliced model.

The ``smart_home`` model carries temporal structure: the Wi-Fi gateway and the
motion sensor evolve between slices.  A stream of timestamped observations is
bucketed onto the slice axis, and three queries answer three questions:
filter (what is the state now?), smooth (what was it earlier, knowing what we
know now?), predict (where is it heading?).
"""

import iotrisk as ir

doc = ir.load_bundled_model("smart_home")
tm = doc.temporal_model()
print("template nodes:", [n.id for n in tm.template.model.graph.nodes])
print("temporal links:", [(e.source, e.target) for e in tm.temporal_edges])

# ---------------------------------------------------------------------------
# Timestamped field records, one JSON object per line in a real deployment.
records = [
    ir.EvidenceRecord(0, "monitoring_app", "stale"),
    ir.EvidenceRecord(400, "motion_sensor", "ok"),      # same slice as above
    ir.EvidenceRecord(60_000, "monitoring_app", "stale"),
    ir.EvidenceRecord(120_000, "monitoring_app", "live"),
]
obs = ir.ingest_evidence(records, bucket_ms=60_000)
print("\nobservations by slice:")
for t, node, state in obs:
    print(f"  slice {t}: {node} = {state}")

# ---------------------------------------------------------------------------
# Filtering: the gateway's health right now, given everything so far.
now = obs.max_time
filtered = ir.filter_marginals(tm, obs, now)
print(f"\nfilter at t={now}:")
print("  wifi_gateway:", {s: round(p, 4) for s, p in filtered["wifi_gateway"].as_dict().items()})

# Smoothing: two stale readings made slice 0 look worse than it seemed live.
live = ir.filter_marginals(tm, ir.ObservationSeries([(0, {"monitoring_app": "stale"})]), 0)
smoothed = ir.smooth_marginals(tm, obs, 0, now)
print(f"\ngateway down-probability at slice 0:")
print(f"  live estimate     : {live['wifi_gateway'].p('down'):.4f}")
print(f"  after smoothing   : {smoothed['wifi_gateway'].p('down'):.4f}")

# Prediction: push the dynamics past the last observation.
for h in (1, 2, 4):
    predicted = ir.predict_marginals(tm, obs, now, h)
    print(f"predict t+{h}: P(gateway up) = {predicted['wifi_gateway'].p('up'):.4f}")

# ---------------------------------------------------------------------------
# Every temporal query is, by definition, exact inference on the unrolled
# flat model; nothing is approximated.  The queries pass messages slice by
# slice instead of unrolling, so the two agree to rounding (ORACLE_TOL).
direct = ir.unrolled_marginals(tm, obs, now, now + 1)
gap = max(abs(a - b) for nid in direct for a, b in zip(direct[nid].probabilities,
                                                      filtered[nid].probabilities))
assert gap <= ir.ORACLE_TOL, gap
print(f"\nunrolled-model cross-check: match within {ir.ORACLE_TOL:g}")
