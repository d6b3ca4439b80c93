"""The driver-contract harness (``__ray_entry__``)."""


def test_kg_run_builds_once_per_session(ray_session, monkeypatch):
    """The kg_* queries share one KG build per Ray session, and every
    build still audits the span-sequence invariant."""
    import __ray_entry__ as entry
    from relation_extraction_ray.functions import invariant
    from relation_extraction_ray.pipelines.kg import KGPipeline

    calls = {"run": 0, "audit": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(KGPipeline, "run", counted("run", KGPipeline.run))
    monkeypatch.setattr(
        invariant, "check_against_documents", counted("audit", invariant.check_against_documents)
    )
    monkeypatch.setattr(entry, "_KG_RUNS", {})
    first = entry._kg_run()
    assert entry._kg_run() is first
    assert calls == {"run": 1, "audit": 1}

    # a build cached under another session is not reused
    monkeypatch.setattr(entry, "_KG_RUNS", {("another-node", "01000000"): first})
    assert entry._kg_run() is not first
    assert calls == {"run": 2, "audit": 2}
