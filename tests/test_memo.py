"""The one cache rule (``linalg.memo``) and the package's import contract.

Every memo holds at most 16 entries and hands out read-only arrays; the rule
is written once, in ``linalg.memo``, so no other module names ``lru_cache``.
"""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import spinportrait
from conftest import coplanar_triad
from spinportrait import (
    FeasibilityError,
    Spin,
    aw_directions,
    default_aw_grid,
    linalg,
    orthopoly,
    random_frame_set,
    schemes,
    spin as spin_module,
    su2,
    tomography,
)
from spinportrait.linalg import memo

PACKAGE = pathlib.Path(spinportrait.__file__).parent


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


class TestMemo:
    def test_nested_arrays_come_back_read_only(self):
        @memo
        def build(n):
            return np.arange(n), (np.ones(n), [np.zeros(n), ("tag", np.eye(n))]), None, 3.0

        out = build(3)
        arrays = list(_arrays(out))
        assert len(arrays) == 4
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert out[2] is None and out[3] == 3.0

    def test_named_tuple_result_is_frozen(self):
        @memo
        def spectrum(n):
            return np.linalg.eigh(np.eye(n))

        vals, vecs = spectrum(2)
        assert not vals.flags.writeable and not vecs.flags.writeable

    def test_repeated_call_is_a_hit_on_the_same_object(self):
        calls = []

        @memo
        def build(n):
            calls.append(n)
            return np.arange(n)

        first = build(4)
        assert build(4) is first
        assert calls == [4]
        assert build.cache_info().hits == 1 and build.cache_info().misses == 1

    def test_sixteen_entries(self):
        @memo
        def build(n):
            return np.arange(n)

        assert build.cache_parameters()["maxsize"] == 16
        for n in range(20):
            build(n)
        assert build.cache_info().currsize == 16

    def test_exception_is_not_cached(self):
        calls = []

        @memo
        def refuse(n):
            calls.append(n)
            raise ValueError(n)

        for _ in range(3):
            with pytest.raises(ValueError):
                refuse(1)
        assert calls == [1, 1, 1]
        assert refuse.cache_info().currsize == 0

    def test_keeps_name_and_docstring(self):
        @memo
        def build(n):
            """Docstring."""
            return np.arange(n)

        assert build.__name__ == "build" and build.__doc__ == "Docstring."
        build.cache_clear()
        assert build.cache_info().currsize == 0


def _package_modules():
    return [
        importlib.import_module(f"spinportrait.{info.name}")
        for info in pkgutil.iter_modules([str(PACKAGE)])
    ]


def _memoized_functions():
    return {
        f"{module.__name__}.{name}": fn
        for module in _package_modules()
        for name, fn in vars(module).items()
        if callable(getattr(fn, "cache_parameters", None)) and fn.__module__ == module.__name__
    }


class TestOneRule:
    def test_only_linalg_names_lru_cache(self):
        names = [p.name for p in PACKAGE.glob("*.py") if "lru_cache" in p.read_text()]
        assert names == ["linalg.py"]

    def test_every_memo_holds_sixteen_entries(self):
        memos = _memoized_functions()
        assert {
            "spinportrait.linalg._coord_layout",
            "spinportrait.spin._jy_eigen",
            "spinportrait.orthopoly.coeff_table",
            "spinportrait.orthopoly.shell_basis",
            "spinportrait.orthopoly._pbar_weights",
            "spinportrait.tomography._frame_rows",
            "spinportrait.tomography._quadrature",
            "spinportrait.tomography._polar_products",
            "spinportrait.su2.quantizer_stack",
            "spinportrait.su2._solver",
            "spinportrait.schemes._aw_solver",
        } <= set(memos)
        for name, fn in memos.items():
            assert fn.cache_parameters()["maxsize"] == 16, name

    def test_every_memo_hands_out_read_only_arrays(self, orthogonal_triad):
        spin = Spin(1)
        dirs = tuple(orthogonal_triad.dirs)
        ufs = random_frame_set(Spin(2), np.random.default_rng(4))
        results = [
            linalg._coord_layout(3),
            spin_module._jy_eigen(2),
            orthopoly.coeff_table(Spin(2)),
            orthopoly.shell_basis(Spin(2)),
            orthopoly._pbar_weights(3),
            tomography._frame_rows(spin, dirs, False),
            tomography._frame_rows(spin, dirs, True),
            tomography._frame_rows(Spin(2), ufs.frames, False),
            tomography._quadrature(3, 4),
            tomography._polar_products(spin, 3),
            su2.quantizer_stack(orthogonal_triad),
            su2._solver(orthogonal_triad),
            su2._solver(ufs),
            su2._solver(coplanar_triad()),
            schemes._aw_solver(spin, tuple(aw_directions(default_aw_grid(spin)))),
        ]
        for out in results:
            arrays = list(_arrays(out))
            assert arrays
            assert not any(arr.flags.writeable for arr in arrays)

    def test_refusal_is_raised_on_every_call(self):
        ds = coplanar_triad()
        misses = su2.quantizer_stack.cache_info().misses
        for _ in range(3):
            with pytest.raises(FeasibilityError):
                su2.quantizer_stack(ds)
        assert su2.quantizer_stack.cache_info().misses == misses + 3


@pytest.mark.parametrize("module", ["logging", "scipy"])
def test_import_leaves_module_unloaded(module):
    # the optimizer's debug records use logging only once some other code has
    # loaded it, so importing the package does not pay for the module; the
    # package is numpy-only, and scipy, installed for the benchmark's
    # reference values, would otherwise be imported unnoticed
    code = f"import sys, spinportrait; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
