"""Tests for the command-line interface."""

import gc
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.__main__ import FIGURE_COMMANDS, main, make_parser
from repro.schemes import iter_schemes


class TestImports:
    def test_cli_import_loads_no_numpy(self):
        """numpy is a test-only dependency: the CLI, pool workers and
        the service never pay for its import."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.__main__; print('numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_figures_names(self):
        args = make_parser().parse_args(["figures", "table1", "area"])
        assert args.names == ["table1", "area"]

    def test_bench_scale_choices(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["bench", "stream", "--scale", "huge"])

    def test_campaign_kind_choices(self):
        for kind in ("baseline", "detection", "fault", "recovery"):
            args = make_parser().parse_args(["campaign", "--kind", kind])
            assert args.kind == kind
        with pytest.raises(SystemExit):
            make_parser().parse_args(["campaign", "--kind", "mystery"])

    def test_campaign_scheme_choices(self):
        for scheme in ("unprotected", "lockstep", "rmt", "detection"):
            args = make_parser().parse_args(
                ["campaign", "--scheme", scheme])
            assert args.scheme == scheme
        with pytest.raises(SystemExit):
            make_parser().parse_args(["campaign", "--scheme", "mystery"])

    def test_campaign_has_no_timing_option(self):
        """The cycle model is the only timing model: a script that still
        asks for another one fails instead of silently running cycle."""
        with pytest.raises(SystemExit):
            make_parser().parse_args(["campaign", "--timing", "interval"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "randacc" in out and "facesim" in out

    def test_figures_cheap_subset(self, capsys):
        assert main(["figures", "table1", "table2", "area", "power"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "area overhead" in out.lower() or "VI-B" in out

    def test_figures_unknown_name(self, capsys):
        assert main(["figures", "nonsense"]) == 2

    def test_bench(self, capsys):
        assert main(["bench", "stream", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_campaign(self, capsys):
        assert main(["campaign", "--trials", "6", "--benchmark",
                     "bodytrack"]) == 0
        out = capsys.readouterr().out
        assert "activated" in out

    def test_list_schemes(self, capsys):
        """Acceptance: all four registered schemes enumerate, one row
        each in registration order, with exactly the three flags that
        gate something: fault detection, hard-fault coverage and
        recovery campaigns."""
        assert main(["list", "--schemes"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["scheme", "detects", "hard", "faults",
                                  "recovery", "description"]
        schemes = list(iter_schemes())
        assert [scheme.name for scheme in schemes] == [
            "unprotected", "lockstep", "rmt", "detection"]
        assert len(rows) == len(schemes)
        for row, scheme in zip(rows, schemes):
            flags = (scheme.detects_faults, scheme.covers_hard_faults,
                     scheme.supports_recovery)
            assert row.split()[:4] == [
                scheme.name, *("yes" if flag else "no" for flag in flags)]

    def test_campaign_baseline_kind_any_scheme(self, capsys):
        assert main(["campaign", "--kind", "baseline", "--scheme",
                     "lockstep", "--benchmark", "stream"]) == 0
        out = capsys.readouterr().out
        assert "baseline campaign [lockstep]" in out
        assert "mean slowdown" in out

    def test_campaign_fault_cross_scheme(self, capsys):
        assert main(["campaign", "--kind", "fault", "--scheme", "rmt",
                     "--benchmark", "stream", "--trials", "6"]) == 0
        out = capsys.readouterr().out
        assert "fault campaign [rmt]" in out and "activated" in out

    def test_campaign_recovery_rejects_non_recovery_scheme(self, capsys):
        assert main(["campaign", "--kind", "recovery", "--scheme", "rmt",
                     "--benchmark", "stream", "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert "does not support recovery" in err

    def test_campaign_json_flags_escapes_in_exit_code(self, capsys):
        """--json must report SDC escapes the same way plain mode does:
        a nonzero exit code, not just a field in the payload."""
        import json
        argv = ["campaign", "--kind", "fault", "--scheme", "unprotected",
                "--benchmark", "stream", "--trials", "6", "--json"]
        code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        escaped = payload["summary"]["outcomes"].get("escaped", 0)
        assert escaped > 0, "expected the unprotected control to leak SDCs"
        assert code == 1
        assert main(argv[:-1]) == 1  # plain mode agrees

    def test_suite(self, capsys):
        assert main(["suite", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "randacc" in out and "slowdown" in out


class TestManifestCommands:
    def test_campaign_manifest_rejects_shard(self, capsys, tmp_path):
        assert main(["campaign", "--manifest", str(tmp_path / "m"),
                     "--shard", "0/2"]) == 2
        assert "static fan-out" in capsys.readouterr().err

    def test_campaign_manifest_rejects_cache_dir(self, capsys, tmp_path):
        """--cache-dir must be rejected, not silently ignored: the
        manifest always uses its own <dir>/cache."""
        assert main(["campaign", "--manifest", str(tmp_path / "m"),
                     "--cache-dir", str(tmp_path / "c")]) == 2
        assert "silently ignored" in capsys.readouterr().err

    def test_materialize_only_requires_manifest(self, capsys):
        assert main(["campaign", "--materialize-only"]) == 2
        assert "needs --manifest" in capsys.readouterr().err

    def test_campaign_manifest_end_to_end(self, capsys, tmp_path):
        """campaign --manifest materialises, executes, and resumes as a
        pure cache replay; campaign-status and campaign-worker agree."""
        import json
        argv = ["campaign", "--benchmark", "stream", "--trials", "6",
                "--manifest", str(tmp_path / "m"), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["manifest"]["complete"]
        assert first["manifest"]["executed_this_run"] == 6

        # identical re-run: nothing executes, records identical
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["manifest"]["executed_this_run"] == 0
        assert second["records"] == first["records"]

        # a late worker finds nothing leasable
        assert main(["campaign-worker", "--manifest", str(tmp_path / "m"),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["executed"] == 0 and stats["failed"] == 0

        assert main(["campaign-status", "--manifest", str(tmp_path / "m"),
                     "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] and status["states"]["done"] == 6
        assert status["campaign_id"] == first["manifest"]["campaign_id"]

    def test_manifest_verbs_close_their_caches(self, capsys, tmp_path):
        manifest = str(tmp_path / "m")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["campaign", "--benchmark", "stream", "--trials",
                         "2", "--manifest", manifest,
                         "--materialize-only"]) == 0
            assert main(["campaign-worker", "--manifest", manifest]) == 0
            assert main(["campaign-status", "--manifest", manifest]) == 0
            assert main(["campaign", "--benchmark", "stream", "--trials",
                         "2", "--manifest", manifest]) == 0
            gc.collect()
        capsys.readouterr()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)
                    and ".pack" in str(w.message)]

    def test_worker_and_status_need_existing_manifest(self, capsys,
                                                      tmp_path):
        missing = str(tmp_path / "nothing")
        assert main(["campaign-worker", "--manifest", missing]) == 2
        assert "no campaign manifest" in capsys.readouterr().err
        assert main(["campaign-status", "--manifest", missing]) == 2
        assert "no campaign manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "{not json",                       # unparseable
        "[1, 2, 3]",                       # wrong top-level type
        '{"manifest_schema": 1, "schema": 5, "jobs": "oops"}',
    ])
    def test_malformed_manifest_is_one_line_error(self, capsys, tmp_path,
                                                  content):
        """A corrupt manifest.json must produce a clear one-line error
        on stderr and exit 2 — never a traceback."""
        root = tmp_path / "m"
        root.mkdir()
        (root / "manifest.json").write_text(content)
        for verb in ("campaign-worker", "campaign-status"):
            assert main([verb, "--manifest", str(root)]) == 2
            err = capsys.readouterr().err
            assert "manifest" in err
            assert "Traceback" not in err
            # one line of diagnosis, pointing at the bad file
            assert len(err.strip().splitlines()) == 1
            assert str(root) in err

    def test_status_watch_refreshes_until_settled(self, capsys, tmp_path,
                                                  monkeypatch):
        import time as time_mod

        assert main(["campaign", "--benchmark", "stream", "--trials", "4",
                     "--manifest", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        sleeps: list[float] = []
        monkeypatch.setattr(time_mod, "sleep",
                            lambda s: sleeps.append(s))
        # campaign already complete: --watch prints once and exits
        # without sleeping
        assert main(["campaign-status", "--manifest", str(tmp_path / "m"),
                     "--watch", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and not sleeps

    def test_status_watch_loops_while_in_progress(self, capsys, tmp_path,
                                                  monkeypatch):
        import time as time_mod

        assert main(["campaign", "--benchmark", "stream", "--trials", "4",
                     "--manifest", str(tmp_path / "m"),
                     "--materialize-only"]) == 0
        capsys.readouterr()

        # complete the campaign from inside the (patched) sleep: the
        # watch loop must observe the transition and terminate
        def finish(_seconds: float) -> None:
            from repro.harness.manifest import CampaignManifest
            from repro.harness.orchestrator import CampaignWorker
            with CampaignManifest.load(tmp_path / "m") as manifest:
                CampaignWorker(manifest, worker_id="bg").run()

        monkeypatch.setattr(time_mod, "sleep", finish)
        assert main(["campaign-status", "--manifest", str(tmp_path / "m"),
                     "--watch", "1"]) == 0
        out = capsys.readouterr().out
        assert "in progress" in out       # first refresh: nothing done
        assert "complete" in out          # last refresh: settled
        assert "refreshing every 1s" in out

    def test_status_watch_rejects_nonpositive(self, capsys, tmp_path):
        assert main(["campaign-status", "--manifest", str(tmp_path),
                     "--watch", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_status_human_output(self, capsys, tmp_path):
        assert main(["campaign", "--benchmark", "stream", "--trials", "6",
                     "--manifest", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        assert main(["campaign-status", "--manifest",
                     str(tmp_path / "m")]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "scheme detection" in out

    def test_figure_registry_complete(self):
        for name in ("table1", "table2", "fig1", "fig7", "fig8", "fig9",
                     "fig10", "fig11", "fig12", "fig13", "area", "power"):
            assert name in FIGURE_COMMANDS
