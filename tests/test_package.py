import cpn_entropy


def test_every_exported_name_resolves():
    missing = [name for name in cpn_entropy.__all__
               if not hasattr(cpn_entropy, name)]
    assert missing == []
