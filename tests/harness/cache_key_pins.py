"""Cache keys and records of a fixed mini-grid, pinned per cache schema.

The campaign cache is content-addressed: a job's key is the SHA-256 of
its canonical description, and a warm cache serves whatever record is
stored under that key.  A change that alters a key silently orphans
every cached result; a change that alters a record without a
``CACHE_SCHEMA_VERSION`` bump silently serves stale results.  This
table turns both into test failures.

Each entry of :data:`PINS` is keyed by a cache schema version and holds

* ``keys`` — the literal :meth:`JobSpec.key` of every job of
  :func:`pin_grid`, by job label;
* ``fingerprints`` — the ``config_fingerprint`` of the default config,
  of ``with_checker_freq(500.0)`` and of ``with_checker_freq(1000)``
  (which equals the default config but serialises its frequency as an
  int, exactly as Figures 9, 11 and 13 build it, so its key differs);
* ``records`` — one SHA-256 over the canonical records of the grid, in
  grid order.

A schema bump records its entry in the same diff: print it with
``PYTHONPATH=src python -m tests.harness.cache_key_pins``.
"""

from __future__ import annotations

import hashlib

from repro.common.config import default_config
from repro.common.records import canonical_json
from repro.detection.faults import FaultSite, TransientFault
from repro.harness.campaign import (
    CACHE_SCHEMA_VERSION,
    JobSpec,
    config_fingerprint,
    execute_job,
)

#: The two small-scale workloads the grid runs on.
WORKLOADS = ("stream", "bodytrack")

#: The fault cell of each workload: the ``fault-batch`` job holds the
#: whole cell, and each fault is also one ``fault`` job.
FAULT_CELLS = {
    "stream": (
        TransientFault(FaultSite.RESULT, seq=1203, bit=7),
        TransientFault(FaultSite.LOAD_VALUE, seq=2411, bit=3),
        TransientFault(FaultSite.BRANCH, seq=3890, bit=0),
    ),
    "bodytrack": (
        TransientFault(FaultSite.STORE_VALUE, seq=912, bit=12),
        TransientFault(FaultSite.LOAD_ADDR, seq=1769, bit=5),
    ),
}

#: The recovery job's fault: a late store-value flip, as
#: ``recovery_grid`` draws them.
RECOVERY_FAULT = TransientFault(FaultSite.STORE_VALUE, seq=2005, bit=5)


def pin_configs() -> dict:
    """The configurations whose fingerprints are pinned, fresh objects."""
    return {
        "default": default_config(),
        "checker_freq_500.0": default_config().with_checker_freq(500.0),
        "checker_freq_1000": default_config().with_checker_freq(1000),
    }


def pin_grid() -> list[tuple[str, JobSpec]]:
    """``(label, spec)`` for every job of the mini-grid, in record order."""
    cfg = default_config()
    first, second = WORKLOADS
    jobs = [(f"baseline/{scheme}/{first}",
             JobSpec("baseline", first, "small", cfg, scheme=scheme))
            for scheme in ("unprotected", "lockstep", "rmt", "detection")]
    jobs.append((f"detection/{second}",
                 JobSpec("detection", second, "small", cfg)))
    # one Figure 9 cell twice: the int frequency the figure sweeps build
    # from, and the float that equals the default config (and its key)
    for mhz in (1000, 1000.0):
        jobs.append((f"detection/{first}/checker_freq_{mhz}",
                     JobSpec("detection", first, "small",
                             default_config().with_checker_freq(mhz))))
    for scheme in ("lockstep", "detection"):
        for name in WORKLOADS:
            cell = FAULT_CELLS[name]
            jobs.append((f"fault-batch/{scheme}/{name}",
                         JobSpec("fault-batch", name, "small", cfg,
                                 faults=cell, scheme=scheme)))
            jobs.extend(
                (f"fault/{scheme}/{name}/{fault.site.value}@{fault.seq}",
                 JobSpec("fault", name, "small", cfg, fault=fault,
                         scheme=scheme))
                for fault in cell)
    jobs.append((f"recovery/{second}",
                 JobSpec("recovery", second, "small", cfg,
                         fault=RECOVERY_FAULT)))
    return jobs


def records_digest(grid: list[tuple[str, JobSpec]]) -> str:
    """SHA-256 over the canonical records of ``grid``, in grid order."""
    records = [execute_job(spec) for _label, spec in grid]
    return hashlib.sha256(canonical_json(records).encode()).hexdigest()


def current_entry() -> dict:
    """The table entry the current code produces."""
    grid = pin_grid()
    return {
        "keys": {label: spec.key() for label, spec in grid},
        "fingerprints": {name: config_fingerprint(cfg)
                         for name, cfg in pin_configs().items()},
        "records": records_digest(grid),
    }


#: cache schema version -> the entry recorded under it
PINS: dict[int, dict] = {
    7: {
        "keys": {
            "baseline/unprotected/stream":
                "fae2ab6b58c0d917a36b0a2d37bd6b49fd9bf97ddb17ac85a3b2af761e67fd92",
            "baseline/lockstep/stream":
                "dbbd039fd6c63170edc7557f5a889d2d642be4686620d6cc3117d838238fbc51",
            "baseline/rmt/stream":
                "f584aeb32a3f869d5625f693356bc18bcc1259ce11ce76fc4a3711cd019c3301",
            "baseline/detection/stream":
                "08ab289a315bb6743a5e93fb2515c93377a5671e4264bdadca58a48555cdf497",
            "detection/bodytrack":
                "fa2413a14a57b15b5e88f3726e709e8d395f30dc0dc4fab4938196b1adb40912",
            "detection/stream/checker_freq_1000":
                "6c99fd04fda06de2df2cf499b7c49100c57240bf860b26c617506fe523e857f6",
            "detection/stream/checker_freq_1000.0":
                "18a300afc6d52efc1eed4a36bbd1ae20c7e76210efc6caaf8e1ac4da8b17fb21",
            "fault-batch/lockstep/stream":
                "4b7854817949294ea7250222970060b4c0ee40be4f49727379cd97194ead49b6",
            "fault/lockstep/stream/result@1203":
                "4f67b5db2fcc666ff1d02c11efdce71c6270e1a3c1364e4a21ec43867d16d341",
            "fault/lockstep/stream/load_value@2411":
                "eaf73ea20c31defe14cd37deaed6153668abb061655be66515eeb317243aaef1",
            "fault/lockstep/stream/branch@3890":
                "1895b035610b964ef0b742c55b4b37047387f95dd0b652799f87221bd6872bfb",
            "fault-batch/lockstep/bodytrack":
                "f4373792bb2d41f934d7affd6d43c994e1088b522a6da9189023a8139e268a48",
            "fault/lockstep/bodytrack/store_value@912":
                "befd78a14061172ff1ddfc002f4aec0b467165e288bdc1a9f3601b5245c0aeb6",
            "fault/lockstep/bodytrack/load_addr@1769":
                "cc5bbcdf9738de6c9d02dedc544b8c42cad32cb275e48af8903ca5181941f36e",
            "fault-batch/detection/stream":
                "a955a736651c8339850cf60b8ca432e5189181d40ef6c5ec1ea697814a343163",
            "fault/detection/stream/result@1203":
                "382886d9b94049983c9817881dbaf650aea519c9dc1201fa23e06121d3a1bde2",
            "fault/detection/stream/load_value@2411":
                "e60721c35799d0c0e4421e10dade0f40d587b427306404cbc8a482c046af0c64",
            "fault/detection/stream/branch@3890":
                "04986e42ee57354fa25fe201d8970411e575cd71d32932545dad053d5c55f6f0",
            "fault-batch/detection/bodytrack":
                "3ed1e8974ed598a4f3ab369afa7476e93e09ebeb031ea4cf4c2914b013106aa2",
            "fault/detection/bodytrack/store_value@912":
                "04010d8c40669c90d63cc60e9773acd6633e88c64017d0bbbd8bee6d8c2d82ab",
            "fault/detection/bodytrack/load_addr@1769":
                "985a9142b8903dd9963bf23922beb17131aa85b0319e02c30970a8850970fddc",
            "recovery/bodytrack":
                "a7d69e5cd03dd391dca8e0015d386ae1aa6cbea132b8e3155e7626fb0c47f678",
        },
        "fingerprints": {
            "default":
                "c7e46f8ae4fbb52289bf1f1e1b48acf04e789831f14a5669639ddbd601f2cdd5",
            "checker_freq_500.0":
                "9a82f2e1a8421a98f58847b16df7b5c825cf1ce2808b3405ca3057a6c6b7edb2",
            "checker_freq_1000":
                "96b7911d94d87f306c30aae966e1c627db3c6c445b07c0b693f1fcc8e164e2b8",
        },
        "records":
            "3f445ff84fbf0da6eaf462fa97b585da3724fa72e905cf36f9ea5da5e5502e11",
    },
}


if __name__ == "__main__":
    import pprint

    pprint.pprint({CACHE_SCHEMA_VERSION: current_entry()}, width=100,
                  sort_dicts=False)
