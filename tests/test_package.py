import netenergy


def test_public_names_are_sorted_unique_and_resolve():
    names = netenergy.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(netenergy, name) is not None, name
