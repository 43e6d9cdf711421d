"""Tests for the service's wire layer: description validation, grid
construction parity with the CLI, ETag matching."""

import pytest

from repro.harness.campaign import fault_batch_grid, fault_grid, scheme_grid
from repro.harness.manifest import campaign_id
from repro.schemes import scheme_names
from repro.service.wire import (
    WireError,
    build_grid,
    is_record_key,
    match_etag,
    normalise_description,
    tenant_of,
)


class TestTenant:
    def test_defaults(self):
        assert tenant_of({}) == "default"

    def test_valid_token(self):
        assert tenant_of({"tenant": "team-a.prod_1"}) == "team-a.prod_1"

    @pytest.mark.parametrize("bad", ["", 7, "a b", "x/y", "a" * 65])
    def test_rejects(self, bad):
        with pytest.raises(WireError):
            tenant_of({"tenant": bad})


class TestBuildGrid:
    def test_fault_grid_matches_cli_constructor(self):
        grid, meta = build_grid({"kind": "fault", "benchmarks": ["stream"],
                                 "trials": 4, "seed": 1})
        direct = fault_grid(["stream"], trials=4, scale="small", seed=1,
                            scheme="detection")
        assert [s.key() for s in grid] == [s.key() for s in direct]
        assert meta["kind"] == "fault" and meta["benchmarks"] == ["stream"]

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_fault_batch_grid_matches_cli_constructor(self, scheme):
        """Every registered scheme takes fault-batch grids over the
        wire, cell for cell as the CLI builds them."""
        grid, meta = build_grid({"kind": "fault-batch", "scheme": scheme,
                                 "benchmarks": ["stream"], "trials": 5,
                                 "seed": 1, "batch_size": 2})
        direct = fault_batch_grid(["stream"], trials=5, batch_size=2,
                                  scale="small", seed=1, scheme=scheme)
        assert [s.key() for s in grid] == [s.key() for s in direct]
        assert meta["kind"] == "fault-batch" and meta["scheme"] == scheme

    def test_baseline_grid_matches_cli_constructor(self):
        grid, _meta = build_grid({"kind": "baseline",
                                  "benchmarks": "stream,bitcount",
                                  "scheme": "lockstep"})
        direct = scheme_grid(["stream", "bitcount"], ["lockstep"],
                             scale="small")
        assert [s.key() for s in grid] == [s.key() for s in direct]

    def test_explicit_jobs_round_trip(self):
        grid, _ = build_grid({"kind": "fault", "benchmarks": ["stream"],
                              "trials": 3, "seed": 2})
        described = {"jobs": [spec.describe() for spec in grid]}
        rebuilt, meta = build_grid(described)
        assert [s.key() for s in rebuilt] == [s.key() for s in grid]
        assert meta["kind"] == "fault"
        # same keys → same campaign id → idempotent resubmission
        assert campaign_id([s.key() for s in rebuilt]) == \
            campaign_id([s.key() for s in grid])

    @pytest.mark.parametrize("desc,fragment", [
        ({"kind": "mystery"}, "kind"),
        ({"scheme": "mystery"}, "scheme"),
        ({"scale": "huge"}, "scale"),
        ({"benchmarks": []}, "benchmarks"),
        ({"benchmarks": ["nope"]}, "nope"),
        ({"trials": 0}, "trials"),
        ({"trials": "many"}, "trials"),
        ({"trials": True}, "trials"),
        ({"jobs": []}, "jobs"),
        ({"jobs": [{"bogus": 1}]}, r"jobs\[0\]"),
        ("not a dict", "object"),
    ])
    def test_rejections_name_the_field(self, desc, fragment):
        with pytest.raises(WireError, match=fragment):
            build_grid(desc)

    def test_wire_error_is_value_error(self):
        # the CLI catches ValueError around grid construction; the wire
        # layer must stay inside that contract
        assert issubclass(WireError, ValueError)

    def test_normalise_fills_defaults(self):
        norm = normalise_description({"kind": "fault"}, ["stream"])
        assert norm["trials"] == 30 and norm["scheme"] == "detection"
        assert norm["benchmarks"] == ["stream"]
        # normalised description rebuilds the identical grid
        grid_a, _ = build_grid({"kind": "fault", "benchmarks": ["stream"]})
        grid_b, _ = build_grid(norm)
        assert [s.key() for s in grid_a] == [s.key() for s in grid_b]


class TestRecordKeys:
    def test_accepts_hex_key(self):
        assert is_record_key("ab" * 32)

    @pytest.mark.parametrize("bad", ["", "ab" * 31, "zz" * 32,
                                     "ab" * 32 + "c"])
    def test_rejects(self, bad):
        assert not is_record_key(bad)


class TestEtagMatch:
    ETAG = '"5-abcdef"'

    def test_exact(self):
        assert match_etag(self.ETAG, self.ETAG)

    def test_star(self):
        assert match_etag("*", self.ETAG)

    def test_list_and_weak(self):
        assert match_etag(f'"other", W/{self.ETAG}', self.ETAG)

    def test_no_match(self):
        assert not match_etag('"other"', self.ETAG)
        assert not match_etag(None, self.ETAG)
        assert not match_etag("", self.ETAG)
