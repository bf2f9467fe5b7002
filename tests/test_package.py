"""The package namespace: `__all__` names exactly the public names `import workfdr` binds."""

import types

import workfdr


def test_all_matches_the_public_namespace():
    unbound = [name for name in workfdr.__all__ if not hasattr(workfdr, name)]
    assert not unbound, f"listed in __all__ but not bound: {unbound}"
    public = {
        name
        for name, value in vars(workfdr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    unlisted = sorted(public - set(workfdr.__all__))
    assert not unlisted, f"bound but not listed in __all__: {unlisted}"
    assert len(workfdr.__all__) == len(set(workfdr.__all__))
