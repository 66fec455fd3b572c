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
from .events import (
    FormatError,
    _write_artifacts,
    _write_json,
    _write_lines,
    load_baseline,
    load_profiles,
    load_scanner_list,
    load_trace,
)
from .sweep import sweep, write_heatmap_csv
from .synth import _corpus_artifacts, spec_from_dict, spec_to_dict, synth

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
    _write_artifacts(out, {"manifest.json": partial(_write_json, value=payload)})


# the flags of the extra conditions; unset, each keeps its AttackThresholds default
_CONDITIONS = ("min_dst_ports", "min_sensors", "comparison")


def _trace_command(commands, name: str, summary: str, func, detector: bool = True) -> _Parser:
    """A subcommand that reads ``--events``, with the preset epilog, ``--scheme`` and the extra
    conditions. With ``detector`` it also takes ``--preset`` or custom thresholds, and ``--scheme``
    is optional."""
    command = commands.add_parser(
        name, help=summary, epilog=_preset_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter
    )
    command.add_argument("--events", required=True, help="JSONL packet trace")
    if detector:
        command.add_argument("--preset", choices=sorted(PRESETS), help="published pipeline configuration")
        command.add_argument(
            "--scheme",
            choices=sorted(PRESETS),
            help="flow identifier borrowed from this preset, for custom thresholds",
        )
        command.add_argument("--idle-timeout", type=float, help="flow idle timeout in seconds")
        command.add_argument("--min-packets", type=int, help="packet-load threshold")
    else:
        command.add_argument("--scheme", required=True, choices=sorted(PRESETS))
    command.add_argument("--min-dst-ports", type=int, help="distinct ports per attack event")
    command.add_argument("--min-sensors", type=int, help="distinct sensors per attack event")
    command.add_argument("--comparison", choices=[">=", ">"], help="packet-load comparison")
    command.set_defaults(func=func)
    return command


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


def _echo(args, *names: str) -> dict:
    """The config echo of the flags ``names``, under their own names."""
    return {name: getattr(args, name) for name in names}


# -- subcommands ----------------------------------------------------------------
#
# A handler reads its other inputs and decides, then returns its config echo and
# its artifacts as {file name: writer(path)}. It writes nothing itself: main()
# resolves the detector and --out, reads --events, writes the artifacts and the
# manifest. main() and the handlers name what they call by its module-global
# name at call time, so a rebinding of that name (tracing, tests) reaches it.

def _cmd_detect(args, detector: DetectionPreset, events):
    attacks = detect_attacks(events, detector)
    if args.carpet:
        attacks = attacks + detect_carpet_bombing(
            attacks,
            prefix_len=args.carpet_prefix_len,
            min_flows=args.carpet_min_flows,
            window_s=detector.thresholds.idle_timeout,
        )
    flagged = sorted(victims(attacks), key=lambda v: v.sort_key())
    rows = (f"{victim.identity},{victim.granularity}" for victim in flagged)
    return _echo(args, "events", "carpet", "carpet_prefix_len", "carpet_min_flows"), {
        "attacks.jsonl": partial(write_attack_report, attacks, detector.name),
        "victims.csv": partial(_write_lines, lines=chain(["victim,granularity"], rows)),
    }


def _cmd_sweep(args, detector: None, events):
    base = _thresholds(args, "sweep", 1.0, 1)
    grid = sweep(events, PRESETS[args.scheme].scheme, args.timeouts, args.loads, base)
    config = _echo(args, "events", "scheme", "timeouts", "loads") | _echo(base, *_CONDITIONS)
    return config, {"sweep.csv": partial(write_heatmap_csv, grid)}


def _cmd_converge(args, detector: DetectionPreset, events):
    mapping = sensor_victim_map(detect_attacks(events, detector))
    if not mapping:
        raise ValueError(f"{args.events}: {detector.name} detected no attack, so there is nothing to converge")
    curve = greedy_order(mapping, strategy=args.strategy)
    stats, trace = _ensemble_and_trace(mapping, args.n_permutations, args.batch, args.seed)
    return _echo(args, "events", "strategy", "n_permutations", "batch", "seed"), {
        "greedy.csv": partial(write_greedy_csv, curve),
        "convergence.csv": partial(write_rank_statistics_csv, stats),
        "stability.csv": partial(write_stability_csv, trace),
    }


def _cmd_overlap(args, detector: DetectionPreset, events):
    baseline = _read(load_baseline, args.baseline)
    report = overlap_report(detect_attacks(events, detector), events, baseline, slack_s=args.slack)
    return _echo(args, "events", "baseline", "slack"), {
        "overlap.json": partial(write_overlap_json, report),
        "venn.csv": partial(write_venn_csv, report),
    }


def _cmd_scanners(args, detector: DetectionPreset, events):
    scanners = _read(load_scanner_list, args.scanners)
    classification = classify_sources(scanners, events, detector.scheme, detector.thresholds)
    return _echo(args, "events", "scanners"), {
        "sources.csv": partial(write_source_classes_csv, classification),
        "shares.csv": partial(write_class_shares_csv, classification),
    }


def _cmd_evade(args, detector: None, events):
    profiles = BUILTIN_PROFILES if args.profiles == "builtin" else tuple(_read(load_profiles, args.profiles))
    scenario = {"attack_load_bps": args.load, "duration_s": args.duration, "platform_sensor_count": args.sensors}
    rows = evasion_rows(profiles, **scenario)
    return {"profiles": args.profiles, **scenario}, {"evasion.csv": partial(write_evasion_csv, rows)}


def _cmd_synth(args, detector: None, events):
    try:
        with open(args.spec, encoding="utf-8") as handle:
            data = json.load(handle)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise FormatError(f"{args.spec}: malformed scenario spec: {exc}") from exc
    spec = spec_from_dict(data)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return {"spec": spec_to_dict(spec)}, _corpus_artifacts(synth(spec))


def build_parser() -> _Parser:
    parser = _Parser(prog="honeyflow", description="Amplification-honeypot telemetry analysis.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    detect_p = _trace_command(commands, "detect", "run one detector over a trace", _cmd_detect)
    detect_p.add_argument("--permissive", action="store_true", help="classify every flow as an attack")
    detect_p.add_argument("--carpet", action="store_true", help="append carpet-bombing prefix events")
    detect_p.add_argument("--carpet-prefix-len", type=int, default=24)
    detect_p.add_argument("--carpet-min-flows", type=int, default=16)

    sweep_p = _trace_command(commands, "sweep", "detector outcomes over a (timeout, load) grid", _cmd_sweep,
                             detector=False)
    sweep_p.add_argument("--timeouts", required=True, type=_csv_floats, help="e.g. 60,600,900,3600")
    sweep_p.add_argument("--loads", required=True, type=_csv_ints, help="e.g. 1,5,20,100")

    converge_p = _trace_command(commands, "converge", "sensor-count convergence statistics", _cmd_converge)
    converge_p.add_argument(
        "--strategy",
        choices=[GREEDY_MAX_COVERAGE, GREEDY_STATIC_SORT],
        default=GREEDY_MAX_COVERAGE,
    )
    converge_p.add_argument("--n-permutations", type=int, default=30_000, help="at most 10000000")
    converge_p.add_argument("--batch", type=int, default=100)
    converge_p.add_argument("--seed", type=int, default=0)

    overlap_p = _trace_command(commands, "overlap", "match detected attacks against a baseline feed", _cmd_overlap)
    overlap_p.add_argument("--baseline", required=True, help="JSONL baseline attack records")
    overlap_p.add_argument("--slack", type=float, default=0.0, help="time-window slack in seconds")

    scanners_p = _trace_command(commands, "scanners", "classify telescope-listed sources against a detector",
                                _cmd_scanners)
    scanners_p.add_argument("--scanners", required=True, help="one address per line")

    evade_p = commands.add_parser("evade", help="attacker evasion arithmetic per protocol")
    evade_p.add_argument("--load", type=_bitrate, default=1e9, help="attack bandwidth, e.g. 1Gbps")
    evade_p.add_argument("--duration", type=float, default=300.0, help="attack duration in seconds")
    evade_p.add_argument("--profiles", default="builtin", help="'builtin' or a JSONL profile file")
    evade_p.add_argument("--sensors", type=int, default=8, help="platform sensor count")
    evade_p.set_defaults(func=_cmd_evade)

    synth_p = commands.add_parser("synth", help="generate a labeled synthetic corpus")
    synth_p.add_argument("--spec", required=True, help="JSON scenario description")
    synth_p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    synth_p.set_defaults(func=_cmd_synth)

    for command in commands.choices.values():
        command.add_argument(
            "--out",
            "-o",
            default=None,
            help=f"output directory (default: ${OUT_ENV} or the current directory)",
        )
        command.set_defaults(parser=command)  # detector flag errors are reported by the subcommand
    return parser


def main(argv=None) -> int:
    """The one run path: parse, resolve the detector, then --out, read --events, run the handler, write
    its artifacts and the manifest listing them. A usage error exits 1 before --out is created; a data
    error exits 2 before any artifact is written."""
    args = build_parser().parse_args(argv)
    try:
        # only the detector subcommands have --preset, and only the trace subcommands --events
        detector, config = _resolve_detector(args.parser, args) if "preset" in args else (None, {})
        out = _resolve_out(args)
        events = _read(load_trace, args.events) if "events" in args else None
        echo, artifacts = args.func(args, detector, events)
        _write_manifest(out, args.command, config | echo, _write_artifacts(out, artifacts))
    except (ValueError, OSError) as exc:
        print(f"honeyflow: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
