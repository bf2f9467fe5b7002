"""The package namespace: `__all__` names exactly the public names `import workfdr` binds, each
imported from its defining module on first use."""

import importlib
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


# the public instances, whose defining module their own __module__ does not name
INSTANCES = {"ENTANGLERS": "workfdr.entanglers", "SINGLE_QUBIT": "workfdr.entanglers"}


def test_each_public_name_is_its_defining_modules_object():
    for name in workfdr.__all__:
        if name == "__version__":
            continue
        value = workfdr.__getattr__(name)  # the first-use lookup itself, whether or not the name is bound yet
        assert getattr(workfdr, name) is value
        defining = importlib.import_module(INSTANCES.get(name) or value.__module__)
        assert getattr(defining, name) is value, name


def test_the_lazy_namespace_lists_binds_and_refuses_names():
    assert set(workfdr.__all__) <= set(dir(workfdr))
    namespace = {}
    exec("from workfdr import *", namespace)
    assert set(workfdr.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(workfdr, name) for name in workfdr.__all__)
    assert not hasattr(workfdr, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        workfdr.no_such_name


def test_protocol_config_is_one_object_and_survives_a_pickle():
    from workfdr import entanglers, sampler

    assert workfdr.ProtocolConfig is sampler.ProtocolConfig is entanglers.ProtocolConfig
    config = workfdr.ProtocolConfig(1.3, 20, 0.8, "rxx", total_phi=0.6)
    copy = pickle.loads(pickle.dumps(config))
    assert type(copy) is workfdr.ProtocolConfig and copy == config and copy.totals == {"phi": 0.6}


def test_each_submodule_is_an_attribute_after_import_workfdr():
    # a fresh interpreter: no earlier test has imported a submodule that would bind it already
    script = """if True:
        import sys, types
        import workfdr
        for name in ["cli", "entanglement", "entanglers", "errors", "linalg", "model", "sampler", "verify",
                     "work_stats"]:
            module = getattr(workfdr, name)
            assert isinstance(module, types.ModuleType) and module is sys.modules["workfdr." + name], name
        assert workfdr.sampler.ProtocolConfig is workfdr.ProtocolConfig
    """
    src = str(Path(workfdr.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, check=False)
    assert run.returncode == 0, run.stderr.decode()
