"""
Scoring a detector against outside ground truth
===============================================

Two external vantage points check honeypot findings: a baseline feed of
independently observed attacks (how much of the wider picture do the
sensors confirm?) and a network-telescope scanner list (are we mistaking
scanners for attackers?). Both comparisons run on a synthetic corpus
where the true overlap is planted, so the numbers can be read against
their targets.
"""

from honeyflow import (
    CLASS_ATTACK,
    CLASS_SCAN_ONLY,
    CLASS_UNSEEN,
    PRESETS,
    AttackSpec,
    ScanSpec,
    ScannerList,
    ScenarioSpec,
    classify_sources,
    detect_attacks,
    overlap_report,
    synth,
)

spec = ScenarioSpec(
    seed=11,
    sensors=5,
    duration_s=2400.0,
    attacks=tuple(
        AttackSpec(
            victim=f"203.0.113.{i + 1}",
            dst_port=123,
            start=60.0 * i,
            stop=60.0 * i + 180.0,
            rate_pps=0.4,
        )
        for i in range(8)
    ),
    scans=(
        ScanSpec(source="198.51.100.7", ports=(123, 53), start=900.0),
        ScanSpec(source="198.51.100.8", ports=(123,), start=1200.0),
    ),
    noise_packets=200,
    baseline_events=40,
    baseline_overlap=0.15,  # 6 of the 40 baseline records hit planted victims
)
corpus = synth(spec)
print(
    f"corpus: {len(corpus.events)} events, {len(corpus.baseline)} baseline records "
    f"({corpus.baseline_matched} reachable from this trace)"
)

attacks = detect_attacks(corpus.events, PRESETS["ccc"])
report = overlap_report(attacks, corpus.events, corpus.baseline, slack_s=0.0)
print(f"\ndetector confirmed {report.matched_with_ports}/{report.baseline_with_ports} "
      f"baseline events ({report.detector_share:.1%})")
print(f"packet-level upper bound: {report.upper_with_ports} ({report.upper_share:.1%})")
print(f"venn: honeypot-only victims={report.venn.honeypot_only}, "
      f"overlap={report.venn.overlap}, baseline-only events={report.venn.baseline_only}")

# The scanner list mixes true scanners with two planted attack victims and
# one address the trace never saw; the classifier must keep them apart.
listed = ScannerList(
    sources=frozenset(
        {"198.51.100.7", "198.51.100.8", "203.0.113.1", "203.0.113.2", "192.0.2.250"}
    )
)
result = classify_sources(listed, corpus.events, PRESETS["ccc"].scheme, PRESETS["ccc"].thresholds)
print("\nscanner-list verdicts:")
for source in sorted(result.classes):
    print(f"  {source:14s} {result.classes[source]:9s} ({result.packets[source]} packets)")
print(
    f"shares: attack={result.shares[CLASS_ATTACK]:.0%} "
    f"scan-only={result.shares[CLASS_SCAN_ONLY]:.0%} "
    f"unseen={result.shares[CLASS_UNSEEN]:.0%}"
)
