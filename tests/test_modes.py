"""One mode policy for every check.

``_enumerate.resolve_mode`` alone decides between exact enumeration and
witness search: ``auto``, every check's default, enumerates exactly
when the instance is within a constant size cap, and ``exhaustive``
beyond the cap is an error.  A search only bounds a maximum from below,
so a decomposition whose pseudorandomness certificate came from a search
is not certified.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import regulab
from regulab import (
    EdgeFunction,
    build_regular_partition,
    InputError,
    SubgraphPair,
    check_pair,
    check_quasirandom,
    classical_epsilon_regular,
    io,
    relative_regularity,
    strong_decompose,
)
from regulab._enumerate import SUBSET_PAIR_CAP, TERNARY_CAP, resolve_mode
from regulab.cli import EXIT_OK, EXIT_UNCERTIFIED, main
from regulab.decomposition import BEST_BASIC_CAP

from _helpers import complete_graph, random_subpair

MODULES = [
    importlib.import_module(f"regulab.{m.name}")
    for m in pkgutil.iter_modules(regulab.__path__)
]


def _functions():
    """Every function and method defined in the package."""
    for module in MODULES:
        for _, obj in inspect.getmembers(module):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield from (f for _, f in inspect.getmembers(obj, inspect.isfunction))


def test_every_check_defaults_to_auto():
    with_mode = {
        name: inspect.signature(getattr(regulab, name)).parameters["mode"].default
        for name in regulab.__all__
        if callable(getattr(regulab, name))
        and not inspect.isclass(getattr(regulab, name))
        and "mode" in inspect.signature(getattr(regulab, name)).parameters
    }
    assert set(with_mode) == {
        "build_regular_partition", "check_pair", "check_partition", "check_quasirandom",
        "check_volume_pair", "classical_epsilon_regular", "classify_pairs",
        "strong_decompose",
    }
    assert set(with_mode.values()) == {"auto"}


def test_only_resolve_mode_takes_a_size_cap():
    # the caps are constants, which each check hands to resolve_mode
    functions = list(_functions())
    assert len(functions) > 100
    assert [f.__qualname__ for f in functions
            if "cap" in inspect.signature(f).parameters] == ["resolve_mode"]


CAPS = [(TERNARY_CAP, 14), (SUBSET_PAIR_CAP, 26), (BEST_BASIC_CAP, 12)]


@pytest.mark.parametrize("cap, value", CAPS)
def test_resolve_mode_at_and_above_each_cap(cap, value):
    assert cap == value
    assert resolve_mode("auto", (cap,), cap, "n") == "exhaustive"
    assert resolve_mode("auto", (cap + 1,), cap, "n") == "search"
    assert resolve_mode("exhaustive", (cap,), cap, "n") == "exhaustive"
    assert resolve_mode("search", (cap + 1,), cap, "n") == "search"
    with pytest.raises(InputError, match=rf"^exhaustive enumeration is capped at n={cap} "
                       rf"\(got {cap + 1}\); use search mode$"):
        resolve_mode("exhaustive", (cap + 1,), cap, "n")
    with pytest.raises(InputError, match="unknown mode 'fast'"):
        resolve_mode("fast", (1,), cap, "n")


def test_cap_errors_name_what_was_asked_for():
    P = SubgraphPair.full(complete_graph(27))
    with pytest.raises(InputError, match=r"capped at \|A\|\+\|B\|=26 \(got 14\+13\)"):
        check_pair(P, range(14), range(14, 27), 0.3, mode="exhaustive")
    with pytest.raises(InputError, match=r"\(got 13\+14\)"):
        classical_epsilon_regular(13, 14, [(0, 0)], 0.3, mode="exhaustive")
    with pytest.raises(InputError, match=r"\(got 14\+13\)"):
        relative_regularity(14, 13, [(0, 0)], [(0, 0)], 0.3)
    # the cap error comes before the parameter checks
    with pytest.raises(InputError, match=r"capped at n=14 \(got 15\)"):
        check_quasirandom(complete_graph(15), 2.0, mode="exhaustive")
    with pytest.raises(InputError, match=r"capped at n=12 \(got 13\)"):
        strong_decompose(complete_graph(13), EdgeFunction.zeros(13), eps=-1.0,
                         mode="exhaustive")


# -- no certificate from a search --------------------------------------------------

# a host whose search-mode decomposition stops at the correlation threshold
# with f_psd nonzero and a certificate below its bound
HOST = (3000, 0, 10)
C = 8.0


def _decompose(mode):
    P = random_subpair(*HOST)
    return strong_decompose(P.graph, P.indicator(), eps=0.5, J=lambda m: C * m * m,
                            mode=mode, seed=0, restarts=8)


def test_a_search_certificate_does_not_certify():
    d = _decompose("search")
    assert d.stop_reason == "pseudorandom" and np.any(d.f_psd.values)
    assert d.psd_certificate < d.cert_bound and d.err_norm <= d.eps
    assert d.mode == "search" and not d.certified
    exact = _decompose("exhaustive")
    assert exact.mode == "exhaustive" and exact.certified


def test_auto_reports_the_mode_that_ran():
    assert _decompose("auto").mode == "exhaustive"
    G = complete_graph(13)
    d = strong_decompose(G, EdgeFunction.cross_indicator(13, range(6), range(6, 13)),
                         eps=0.5, J=lambda m: 10.0 * m * m, mode="auto", restarts=4)
    assert d.mode == "search"
    # f_psd is zero here, so the zero certificate is exact even from a search
    assert not np.any(d.f_psd.values) and d.certified


def test_a_partition_build_names_the_search_certificate():
    P = random_subpair(3100, 0, 16)
    r = build_regular_partition(P, 0.9, 1, j_factor=0.001, restarts=4)
    d = r.decomposition
    assert d.stop_reason == "pseudorandom" and d.err_norm == 0.0 and not d.certified
    assert "decomposition not certified (err_norm 0 vs target 0.06561; its " \
        "pseudorandomness certificate is a search lower bound)" in r.flags


@pytest.mark.parametrize("mode, code", [("search", EXIT_UNCERTIFIED), ("exhaustive", EXIT_OK)])
def test_decompose_exits_uncertified_on_a_search_certificate(mode, code, tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(io.json_text(io.pair_to_dict(random_subpair(*HOST))))
    assert main([
        "decompose", "--pair", str(path), "--eps", "0.5", "--c", str(C), "--mode", mode,
        "--seed", "0", "--restarts", "8", "--no-timestamp",
    ]) == code
    assert f'"mode": "{mode}"' in capsys.readouterr().out
