import math
import random

import pytest

from honeyflow.detection import PRESETS
from honeyflow.events import ProtocolProfile
from honeyflow.evasion import (
    BUILTIN_PROFILES,
    DetectionMatrix,
    EvasionScenario,
    detection_matrix,
    evasion_rows,
    requests_per_amplifier,
    requests_per_attack,
    write_evasion_csv,
)

DNS = next(p for p in BUILTIN_PROFILES if p.name == "DNS")
LDAP = next(p for p in BUILTIN_PROFILES if p.name == "LDAP")
NTP = next(p for p in BUILTIN_PROFILES if p.name == "NTP")


def test_scenario_validation():
    with pytest.raises(ValueError):
        EvasionScenario(profile=DNS, attack_load_bps=0.0)
    with pytest.raises(ValueError):
        EvasionScenario(profile=DNS, duration_s=-1.0)
    with pytest.raises(ValueError):
        EvasionScenario(profile=DNS, platform_sensor_count=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"attack_load_bps": math.inf}, "attack_load_bps must be finite: inf"),
        ({"duration_s": math.inf}, "duration_s must be finite: inf"),
        ({"attack_load_bps": math.nan}, "attack_load_bps must be positive: nan"),
        ({"duration_s": 0.0}, "duration_s must be positive: 0.0"),
        ({"duration_s": "300"}, "duration_s must be a number: '300'"),
        ({"attack_load_bps": True}, "attack_load_bps must be a number: True"),
        # each finite, but load / 8 * duration overflows
        ({"attack_load_bps": 1e209, "duration_s": 1e150},
         "attack_load_bps * duration_s overflows the request count: "
         "attack_load_bps=1e+209, duration_s=1e+150"),
        # each positive, but request_size * amplification_factor underflows to 0.0
        ({"profile": ProtocolProfile("X", 9, 1e-200, 1e-200, 10)},
         "request_size * amplification_factor underflows to zero: "
         "request_size=1e-200, amplification_factor=1e-200"),
        # a tiny but nonzero product overflows the request count at the default load
        ({"profile": ProtocolProfile("X", 9, 1e-160, 1e-160, 10)},
         "request_size * amplification_factor is too small for the request count: "
         "request_size=1e-160, amplification_factor=1e-160"),
    ],
)
def test_scenario_rejects_non_finite_and_non_numbers(kwargs, message):
    with pytest.raises(ValueError) as info:
        EvasionScenario(**{"profile": DNS, **kwargs})
    assert str(info.value) == message


def test_request_count_conserves_bandwidth():
    # requests * request_size * factor must equal the bytes the attack delivers
    rng = random.Random(0)
    for _ in range(200):
        profile = ProtocolProfile(
            "X", 9999,
            request_size=rng.uniform(10, 500),
            amplification_factor=rng.uniform(2, 600),
            amplifier_count=rng.randrange(1000, 3_000_000),
        )
        scenario = EvasionScenario(
            profile=profile,
            attack_load_bps=rng.uniform(1e8, 1e11),
            duration_s=rng.uniform(10, 3600),
        )
        reqs = requests_per_attack(scenario)
        delivered = reqs * profile.request_size * profile.amplification_factor
        target = scenario.attack_load_bps / 8.0 * scenario.duration_s
        assert math.isclose(delivered, target, rel_tol=1e-9)


def test_per_amplifier_count_floors():
    # LDAP at the defaults lands at 1430.86...; flooring must not round up
    scenario = EvasionScenario(profile=LDAP)
    exact = requests_per_attack(scenario) / LDAP.amplifier_count
    assert 1430 < exact < 1431
    assert requests_per_amplifier(scenario) == 1430

    # a population larger than the request count floors to zero
    tiny = EvasionScenario(profile=DNS, attack_load_bps=1e3)
    assert requests_per_amplifier(tiny) == 0


def test_matrix_platform_vs_sensor_counts():
    scenario = EvasionScenario(profile=DNS, platform_sensor_count=8)
    matrix = detection_matrix(scenario)
    per_amp = requests_per_amplifier(scenario)
    assert matrix["ccc"].count_compared == per_amp
    assert matrix["hpi"].count_compared == per_amp
    assert matrix["amppotmod"].count_compared == per_amp * 8
    assert matrix["newkid-mono"].count_compared == per_amp  # dst-addr keyed


def test_matrix_verdict_uses_preset_comparison():
    # find a load where the per-amplifier count sits exactly on the hpi bound
    profile = ProtocolProfile("X", 9999, 10.0, 10.0, 1000)
    # per-amplifier = load/8*duration / (100 * 1000); pick load so it is 20
    scenario = EvasionScenario(
        profile=profile, attack_load_bps=20 * 100 * 1000 * 8 / 300.0, duration_s=300.0
    )
    assert requests_per_amplifier(scenario) == 20
    matrix = detection_matrix(scenario)
    assert not matrix.detected("hpi")  # "> 20" fails at exactly 20
    assert matrix.detected("ccc")      # ">= 5" holds


def test_hpi_needs_a_second_sensor():
    qotd = next(p for p in BUILTIN_PROFILES if p.name == "QOTD")
    assert detection_matrix(EvasionScenario(profile=qotd)).detected("hpi")
    solo = EvasionScenario(profile=qotd, platform_sensor_count=1)
    assert not detection_matrix(solo).detected("hpi")


def test_multi_port_preset_never_fires():
    scenario = EvasionScenario(profile=DNS)
    matrix = detection_matrix(scenario, presets=[PRESETS["newkid-multi"]])
    assert not matrix.detected("newkid-multi")


def test_matrix_lookup_errors():
    matrix = detection_matrix(EvasionScenario(profile=DNS))
    with pytest.raises(KeyError):
        matrix["nope"]
    assert isinstance(matrix, DetectionMatrix)


def test_builtin_table_flags():
    rows = evasion_rows()
    flags = {
        r["protocol"]: (r["amppotmod"], r["ccc"], r["newkid"], r["hpi"]) for r in rows
    }
    assert flags == {
        "QOTD": (True, True, True, True),
        "CharGen": (True, True, True, True),
        "DNS": (True, True, True, False),
        "NTP": (False, False, False, False),
        "LDAP": (True, True, True, True),
        "SSDP": (False, True, True, False),
    }


def test_builtin_table_request_arithmetic():
    rows = {r["protocol"]: r for r in evasion_rows()}
    expected = {
        "QOTD": (17.9, 576),
        "CharGen": (7.0, 234),
        "DNS": (24.7, 13),
        "NTP": (5.2, 2),
        "LDAP": (11.4, 1430),
        "SSDP": (13.4, 7),
    }
    for name, (millions, per_amp) in expected.items():
        assert rows[name]["reqs_attack_millions"] == millions, name
        assert rows[name]["reqs_amplifier"] == per_amp, name


def test_more_sensors_flip_platform_presets_only():
    # NTP's 2 req/amplifier escape amppotmod at 8 sensors but not at 64
    few = evasion_rows(profiles=[NTP], platform_sensor_count=8)[0]
    many = evasion_rows(profiles=[NTP], platform_sensor_count=64)[0]
    assert not few["amppotmod"] and many["amppotmod"]
    assert few["ccc"] == many["ccc"] == False  # noqa: E712  - per-sensor view unchanged


def test_csv_golden_rows(tmp_path):
    path = tmp_path / "evasion.csv"
    write_evasion_csv(evasion_rows(), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "port,protocol,request_bytes,factor,amplifiers,"
        "reqs_attack,reqs_amplifier,amppotmod,ccc,newkid,hpi"
    )
    assert lines[1] == "17,QOTD,15,140,31000,17.9M,576,1,1,1,1"
    assert lines[4] == "123,NTP,13,557,2300000,5.2M,2,0,0,0,0"
    assert lines[6] == "1900,SSDP,90,31,1900000,13.4M,7,0,1,1,0"
