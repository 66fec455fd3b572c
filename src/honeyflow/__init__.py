"""Analysis toolkit for amplification-DDoS honeypot telemetry.

The pipeline: parse packet events (:mod:`honeyflow.events`) into a
columnar trace (:mod:`honeyflow.trace`), group them into flows under a
configurable identifier and idle timeout (:mod:`honeyflow.flows`), raise
attack events via packet-load thresholds (:mod:`honeyflow.detection`),
then study the platform itself: threshold sensitivity
(:mod:`honeyflow.sweep`), sensor-count convergence
(:mod:`honeyflow.convergence`), coverage against external ground truth
(:mod:`honeyflow.completeness`), and the attacker's evasion arithmetic
(:mod:`honeyflow.evasion`). :mod:`honeyflow.synth` builds labeled corpora
with planted truth for all of the above.
"""

from .completeness import (
    CLASS_ATTACK,
    CLASS_SCAN_ONLY,
    CLASS_UNSEEN,
    OverlapReport,
    SourceClassification,
    UpperBoundFragment,
    VennTriple,
    classify_sources,
    match_baseline,
    overlap_report,
    upper_bound,
)
from .convergence import (
    ConvergenceCurve,
    EstimateUndefinedError,
    RankStatistics,
    StabilityPoint,
    capture_recapture,
    greedy_order,
    permutation_ensemble,
    sensor_victim_map,
    stability_trace,
)
from .detection import (
    PRESETS,
    AttackEvent,
    AttackThresholds,
    ConfigurationError,
    DetectionPreset,
    Victim,
    detect,
    detect_attacks,
    detect_carpet_bombing,
    permissive_thresholds,
    victims,
)
from .evasion import (
    BUILTIN_PROFILES,
    DetectionMatrix,
    EvasionScenario,
    detection_matrix,
    evasion_rows,
    requests_per_amplifier,
    requests_per_attack,
)
from .events import (
    BaselineAttack,
    FormatError,
    PacketEvent,
    ProtocolProfile,
    ScannerList,
    load_baseline,
    load_scanner_list,
    load_trace,
    parse_event_line,
    serialize_event,
    trace_sort_key,
    write_trace,
)
from .flows import (
    PER_PLATFORM,
    PER_SENSOR,
    Flow,
    FlowKey,
    FlowScheme,
    UnsortedTraceError,
    assemble,
    flow_key,
)
from .sweep import HeatmapGrid, sweep
from .synth import (
    AttackSpec,
    CarpetSpec,
    LabeledCorpus,
    ScanSpec,
    ScenarioSpec,
    SynthesisError,
    spec_from_dict,
    spec_to_dict,
    synth,
    synth_sensor_victim_map,
    write_corpus,
)
from .trace import Trace, as_trace

__version__ = "0.1.0"
