import flowcam


def test_every_export_resolves():
    assert len(set(flowcam.__all__)) == len(flowcam.__all__)
    assert [name for name in flowcam.__all__ if not hasattr(flowcam, name)] == []
    assert flowcam.__all__ == ["PARAMETER_SETS", "__version__"]
