"""Cache-key drift guard: the mini-grid of ``cache_key_pins`` must
reproduce the keys, fingerprints and record digest recorded for the
current ``CACHE_SCHEMA_VERSION``.

A failure here means either a key moved (every cached result of that
kind is orphaned) or a record changed under an unchanged schema (warm
caches would serve stale results).  Bump the schema and record a new
entry in the same diff when the change is meant.
"""

import pytest

from repro.common.config import default_config
from repro.harness.campaign import (
    CACHE_SCHEMA_VERSION,
    JobSpec,
    config_fingerprint,
)

from tests.harness.cache_key_pins import (
    PINS,
    pin_configs,
    pin_grid,
    records_digest,
)


@pytest.fixture(scope="module")
def entry():
    assert CACHE_SCHEMA_VERSION in PINS, (
        f"no cache-key pins for schema {CACHE_SCHEMA_VERSION}: record them "
        f"with `PYTHONPATH=src python -m tests.harness.cache_key_pins`")
    return PINS[CACHE_SCHEMA_VERSION]


def test_current_schema_has_an_entry():
    assert CACHE_SCHEMA_VERSION in PINS


def test_job_keys_match_pins(entry):
    keys = {label: spec.key() for label, spec in pin_grid()}
    assert keys == entry["keys"]


def test_config_fingerprints_match_pins(entry):
    fingerprints = {name: config_fingerprint(cfg)
                    for name, cfg in pin_configs().items()}
    assert fingerprints == entry["fingerprints"]
    # the int frequency equals the default config, yet keys apart
    configs = pin_configs()
    assert configs["checker_freq_1000"] == configs["default"]
    assert fingerprints["checker_freq_1000"] != fingerprints["default"]


def test_records_match_pin(entry):
    assert records_digest(pin_grid()) == entry["records"]


@pytest.mark.parametrize("int_first", [True, False])
def test_int_and_float_frequency_keep_their_keys(entry, int_first):
    # the configs compare and hash equal; whichever is keyed first, each
    # keeps the fingerprint and job key recorded for it (a memo keyed by
    # config value hands the second one the first one's)
    cells = [
        (1000, entry["fingerprints"]["checker_freq_1000"],
         entry["keys"]["detection/stream/checker_freq_1000"]),
        (1000.0, entry["fingerprints"]["default"],
         entry["keys"]["detection/stream/checker_freq_1000.0"]),
    ]
    for mhz, fingerprint, key in (cells if int_first else cells[::-1]):
        cfg = default_config().with_checker_freq(mhz)
        spec = JobSpec("detection", "stream", "small", cfg)
        assert (config_fingerprint(cfg), spec.key()) == (fingerprint, key)
