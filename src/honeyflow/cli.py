"""Command-line front end.

Exit codes: 0 success, 1 usage error (bad flags, unknown subcommand),
2 data error (unreadable or malformed input, contradictory configuration).
Every run writes its artifacts plus a ``manifest.json`` echoing the
effective configuration into the output directory (``--out``, else
``$HONEYFLOW_OUT``, else the current directory). Outputs carry no
timestamps, so rerunning a command reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from functools import partial
from itertools import chain

from . import __version__
from .completeness import (
    classify_sources,
    overlap_report,
    write_class_shares_csv,
    write_overlap_json,
    write_source_classes_csv,
    write_venn_csv,
)
from .convergence import (
    GREEDY_MAX_COVERAGE,
    GREEDY_STATIC_SORT,
    _ensemble_and_trace,
    greedy_order,
    sensor_victim_map,
    write_greedy_csv,
    write_rank_statistics_csv,
    write_stability_csv,
)
from .detection import (
    PRESETS,
    AttackThresholds,
    DetectionPreset,
    detect_attacks,
    detect_carpet_bombing,
    permissive_thresholds,
    victims,
    write_attack_report,
)
from .evasion import BUILTIN_PROFILES, evasion_rows, write_evasion_csv
from .events import FormatError, _write_json, _write_lines, load_baseline, load_profiles, load_scanner_list, load_trace
from .sweep import sweep, write_heatmap_csv
from .synth import spec_from_dict, spec_to_dict, synth, write_corpus

OUT_ENV = "HONEYFLOW_OUT"

# Upstream sources for each preset's numbers, surfaced in --help.
_PRESET_SOURCES = {
    "amppot": "Kramer et al., RAID 2015",
    "amppotmod": "Noroozian et al., RAID 2016",
    "ccc": "Thomas et al., eCrime 2017",
    "newkid-mono": "Heinrich et al., PAM 2021",
    "newkid-multi": "Heinrich et al., PAM 2021",
    "hpi": "Griffioen et al., CCS 2021",
}


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _preset_epilog() -> str:
    lines = ["presets:"]
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        lines.append(f"  {name:13s} {_PRESET_SOURCES[name]}: {preset.summary}")
    return "\n".join(lines)


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out",
        "-o",
        default=None,
        help=f"output directory (default: ${OUT_ENV} or the current directory)",
    )


def _resolve_out(args) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out: str, subcommand: str, config: dict, outputs: list[str]) -> None:
    payload = {
        "tool": "honeyflow",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "outputs": sorted(outputs),
    }
    _write_json(os.path.join(out, "manifest.json"), payload)


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), help="published pipeline configuration")
    parser.add_argument(
        "--scheme",
        choices=sorted(PRESETS),
        help="flow identifier borrowed from this preset, for custom thresholds",
    )
    parser.add_argument("--idle-timeout", type=float, help="flow idle timeout in seconds")
    parser.add_argument("--min-packets", type=int, help="packet-load threshold")
    parser.add_argument("--min-dst-ports", type=int, default=None, help="distinct ports per attack event")
    parser.add_argument("--min-sensors", type=int, default=None, help="distinct sensors per attack event")
    parser.add_argument("--comparison", choices=[">=", ">"], default=None, help="packet-load comparison")


# the flags of the extra conditions; unset, each keeps its AttackThresholds default
_CONDITIONS = ("min_dst_ports", "min_sensors", "comparison")


def _thresholds(args, name: str, idle_timeout: float, min_packets: int) -> AttackThresholds:
    conditions = {flag: getattr(args, flag) for flag in _CONDITIONS}
    return AttackThresholds(name, idle_timeout, min_packets, **{k: v for k, v in conditions.items() if v is not None})


def _resolve_detector(parser: _Parser, args) -> tuple[DetectionPreset, dict]:
    """Returns (detector, config-echo)."""
    custom_flags = [args.scheme, args.idle_timeout, args.min_packets] + [getattr(args, flag) for flag in _CONDITIONS]
    if args.preset is not None:
        if any(flag is not None for flag in custom_flags):
            parser.error("--preset cannot be combined with custom scheme/threshold flags")
        preset = PRESETS[args.preset]
        name = preset.name
        scheme = preset.scheme
        thresholds = preset.thresholds
    else:
        if args.scheme is None or args.idle_timeout is None or args.min_packets is None:
            parser.error("either --preset or all of --scheme/--idle-timeout/--min-packets are required")
        scheme = PRESETS[args.scheme].scheme
        name = f"custom:{args.scheme}"
        thresholds = _thresholds(args, name, args.idle_timeout, args.min_packets)
    if getattr(args, "permissive", False):
        name = f"{name}:permissive"
        thresholds = replace(permissive_thresholds(thresholds.idle_timeout), name=name)
    config = {
        "detector": name,
        "scheme": asdict(scheme),
        "thresholds": asdict(thresholds),
    }
    return DetectionPreset(name, scheme, thresholds), config


def _csv_list(convert, noun: str, text: str) -> list:
    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated {noun} list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("grid must name at least one value")
    return values


_csv_floats = partial(_csv_list, float, "float")
_csv_ints = partial(_csv_list, int, "integer")


_RATE_SUFFIXES = {"gbps": 1e9, "mbps": 1e6, "kbps": 1e3, "bps": 1.0}


def _bitrate(text: str) -> float:
    lowered = text.strip().lower()
    for suffix, factor in _RATE_SUFFIXES.items():
        if lowered.endswith(suffix):
            try:
                return float(lowered[: -len(suffix)]) * factor
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"not a bitrate: {text!r}") from exc
    try:
        return float(lowered)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a bitrate: {text!r}") from exc


def _read(reader, path: str):
    """``reader(path)``, with a FormatError prefixed by the path: a subcommand reading
    two inputs then says which one is at fault."""
    try:
        return reader(path)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -- subcommands ----------------------------------------------------------------

def _cmd_detect(parser: _Parser, args) -> int:
    detector, config = _resolve_detector(parser, args)
    out = _resolve_out(args)
    events = _read(load_trace, args.events)
    attacks = detect_attacks(events, detector)
    if args.carpet:
        attacks = attacks + detect_carpet_bombing(
            attacks,
            prefix_len=args.carpet_prefix_len,
            min_flows=args.carpet_min_flows,
            window_s=detector.thresholds.idle_timeout,
        )
    write_attack_report(attacks, detector.name, os.path.join(out, "attacks.jsonl"))
    flagged = sorted(victims(attacks), key=lambda v: v.sort_key())
    rows = (f"{victim.identity},{victim.granularity}" for victim in flagged)
    _write_lines(os.path.join(out, "victims.csv"), chain(["victim,granularity"], rows))
    config.update(
        {
            "events": args.events,
            "carpet": bool(args.carpet),
            "carpet_prefix_len": args.carpet_prefix_len,
            "carpet_min_flows": args.carpet_min_flows,
        }
    )
    _write_manifest(out, "detect", config, ["attacks.jsonl", "victims.csv"])
    return 0


def _cmd_sweep(parser: _Parser, args) -> int:
    out = _resolve_out(args)
    events = _read(load_trace, args.events)
    scheme = PRESETS[args.scheme].scheme
    base = _thresholds(args, "sweep", 1.0, 1)
    grid = sweep(events, scheme, args.timeouts, args.loads, base)
    write_heatmap_csv(grid, os.path.join(out, "sweep.csv"))
    config = {
        "events": args.events,
        "scheme": args.scheme,
        "timeouts": args.timeouts,
        "loads": args.loads,
        "min_dst_ports": base.min_dst_ports,
        "min_sensors": base.min_sensors,
        "comparison": base.comparison,
    }
    _write_manifest(out, "sweep", config, ["sweep.csv"])
    return 0


def _cmd_converge(parser: _Parser, args) -> int:
    detector, config = _resolve_detector(parser, args)
    out = _resolve_out(args)
    events = _read(load_trace, args.events)
    attacks = detect_attacks(events, detector)
    mapping = sensor_victim_map(attacks)
    if not mapping:
        raise ValueError(f"{args.events}: {detector.name} detected no attack, so there is nothing to converge")
    curve = greedy_order(mapping, strategy=args.strategy)
    stats, trace = _ensemble_and_trace(mapping, args.n_permutations, args.batch, args.seed)
    write_greedy_csv(curve, os.path.join(out, "greedy.csv"))
    write_rank_statistics_csv(stats, os.path.join(out, "convergence.csv"))
    write_stability_csv(trace, os.path.join(out, "stability.csv"))
    config.update(
        {
            "events": args.events,
            "strategy": args.strategy,
            "n_permutations": args.n_permutations,
            "batch": args.batch,
            "seed": args.seed,
        }
    )
    _write_manifest(out, "converge", config, ["greedy.csv", "convergence.csv", "stability.csv"])
    return 0


def _cmd_overlap(parser: _Parser, args) -> int:
    detector, config = _resolve_detector(parser, args)
    out = _resolve_out(args)
    events = _read(load_trace, args.events)
    baseline = _read(load_baseline, args.baseline)
    attacks = detect_attacks(events, detector)
    report = overlap_report(attacks, events, baseline, slack_s=args.slack)
    write_overlap_json(report, os.path.join(out, "overlap.json"))
    write_venn_csv(report, os.path.join(out, "venn.csv"))
    config.update({"events": args.events, "baseline": args.baseline, "slack": args.slack})
    _write_manifest(out, "overlap", config, ["overlap.json", "venn.csv"])
    return 0


def _cmd_scanners(parser: _Parser, args) -> int:
    detector, config = _resolve_detector(parser, args)
    out = _resolve_out(args)
    events = _read(load_trace, args.events)
    scanners = _read(load_scanner_list, args.scanners)
    classification = classify_sources(scanners, events, detector.scheme, detector.thresholds)
    write_source_classes_csv(classification, os.path.join(out, "sources.csv"))
    write_class_shares_csv(classification, os.path.join(out, "shares.csv"))
    config.update({"events": args.events, "scanners": args.scanners})
    _write_manifest(out, "scanners", config, ["sources.csv", "shares.csv"])
    return 0


def _cmd_evade(parser: _Parser, args) -> int:
    out = _resolve_out(args)
    profiles = BUILTIN_PROFILES if args.profiles == "builtin" else tuple(_read(load_profiles, args.profiles))
    rows = evasion_rows(
        profiles,
        attack_load_bps=args.load,
        duration_s=args.duration,
        platform_sensor_count=args.sensors,
    )
    write_evasion_csv(rows, os.path.join(out, "evasion.csv"))
    config = {
        "profiles": args.profiles,
        "attack_load_bps": args.load,
        "duration_s": args.duration,
        "platform_sensor_count": args.sensors,
    }
    _write_manifest(out, "evade", config, ["evasion.csv"])
    return 0


def _cmd_synth(parser: _Parser, args) -> int:
    out = _resolve_out(args)
    try:
        with open(args.spec, encoding="utf-8") as handle:
            data = json.load(handle)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise FormatError(f"{args.spec}: malformed scenario spec: {exc}") from exc
    spec = spec_from_dict(data)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    corpus = synth(spec)
    outputs = write_corpus(corpus, out)
    _write_manifest(out, "synth", {"spec": spec_to_dict(spec)}, outputs)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="honeyflow", description="Amplification-honeypot telemetry analysis.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    detect_p = commands.add_parser(
        "detect",
        help="run one detector over a trace",
        epilog=_preset_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    detect_p.add_argument("--events", required=True, help="JSONL packet trace")
    _add_detector_args(detect_p)
    detect_p.add_argument("--permissive", action="store_true", help="classify every flow as an attack")
    detect_p.add_argument("--carpet", action="store_true", help="append carpet-bombing prefix events")
    detect_p.add_argument("--carpet-prefix-len", type=int, default=24)
    detect_p.add_argument("--carpet-min-flows", type=int, default=16)
    _add_out(detect_p)
    detect_p.set_defaults(func=_cmd_detect)

    sweep_p = commands.add_parser(
        "sweep",
        help="detector outcomes over a (timeout, load) grid",
        epilog=_preset_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sweep_p.add_argument("--events", required=True)
    sweep_p.add_argument("--scheme", required=True, choices=sorted(PRESETS))
    sweep_p.add_argument("--timeouts", required=True, type=_csv_floats, help="e.g. 60,600,900,3600")
    sweep_p.add_argument("--loads", required=True, type=_csv_ints, help="e.g. 1,5,20,100")
    sweep_p.add_argument("--min-dst-ports", type=int, default=None)
    sweep_p.add_argument("--min-sensors", type=int, default=None)
    sweep_p.add_argument("--comparison", choices=[">=", ">"], default=None)
    _add_out(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    converge_p = commands.add_parser(
        "converge",
        help="sensor-count convergence statistics",
        epilog=_preset_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    converge_p.add_argument("--events", required=True)
    _add_detector_args(converge_p)
    converge_p.add_argument(
        "--strategy",
        choices=[GREEDY_MAX_COVERAGE, GREEDY_STATIC_SORT],
        default=GREEDY_MAX_COVERAGE,
    )
    converge_p.add_argument("--n-permutations", type=int, default=30_000, help="at most 10000000")
    converge_p.add_argument("--batch", type=int, default=100)
    converge_p.add_argument("--seed", type=int, default=0)
    _add_out(converge_p)
    converge_p.set_defaults(func=_cmd_converge)

    overlap_p = commands.add_parser(
        "overlap",
        help="match detected attacks against a baseline feed",
        epilog=_preset_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    overlap_p.add_argument("--events", required=True)
    overlap_p.add_argument("--baseline", required=True, help="JSONL baseline attack records")
    _add_detector_args(overlap_p)
    overlap_p.add_argument("--slack", type=float, default=0.0, help="time-window slack in seconds")
    _add_out(overlap_p)
    overlap_p.set_defaults(func=_cmd_overlap)

    scanners_p = commands.add_parser(
        "scanners",
        help="classify telescope-listed sources against a detector",
        epilog=_preset_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    scanners_p.add_argument("--events", required=True)
    scanners_p.add_argument("--scanners", required=True, help="one address per line")
    _add_detector_args(scanners_p)
    _add_out(scanners_p)
    scanners_p.set_defaults(func=_cmd_scanners)

    evade_p = commands.add_parser("evade", help="attacker evasion arithmetic per protocol")
    evade_p.add_argument("--load", type=_bitrate, default=1e9, help="attack bandwidth, e.g. 1Gbps")
    evade_p.add_argument("--duration", type=float, default=300.0, help="attack duration in seconds")
    evade_p.add_argument("--profiles", default="builtin", help="'builtin' or a JSONL profile file")
    evade_p.add_argument("--sensors", type=int, default=8, help="platform sensor count")
    _add_out(evade_p)
    evade_p.set_defaults(func=_cmd_evade)

    synth_p = commands.add_parser("synth", help="generate a labeled synthetic corpus")
    synth_p.add_argument("--spec", required=True, help="JSON scenario description")
    synth_p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    _add_out(synth_p)
    synth_p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ValueError, OSError) as exc:
        print(f"honeyflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
