import unlinkeval as ue


def test_every_public_name_resolves_once():
    missing = [name for name in ue.__all__ if not hasattr(ue, name)]
    assert missing == []
    assert len(set(ue.__all__)) == len(ue.__all__)
