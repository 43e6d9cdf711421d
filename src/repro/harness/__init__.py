"""Experiment harness: campaign engine, manifest orchestration, runners,
sweeps, and per-figure entry points.

The package exports nothing itself; import the submodule you run, so a
campaign process loads neither the manifest layer nor
``multiprocessing`` unless it uses them:

* :mod:`~repro.harness.campaign` — job specs and grids, the run cache,
  :func:`~repro.harness.campaign.execute_job` and the
  :class:`~repro.harness.campaign.CampaignEngine`;
* :mod:`~repro.harness.experiment` — :class:`ExperimentRunner`, the
  figures' run memo over the engine;
* :mod:`~repro.harness.figures` — one entry point per paper table and
  figure;
* :mod:`~repro.harness.bigger_cores` — §VI-D, scaling to bigger main
  cores;
* :mod:`~repro.harness.manifest` — on-disk campaign manifests and job
  leases;
* :mod:`~repro.harness.orchestrator` — work-stealing
  ``campaign-worker`` processes, merge and status over a manifest.
"""
