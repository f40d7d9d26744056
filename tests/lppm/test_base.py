"""Tests of the LPPM interface, registry and seed plumbing."""

import pytest

from repro.lppm import (
    GeoIndistinguishability,
    available_lppms,
    lppm_class,
    primary_param,
)


class TestRegistry:
    def test_expected_mechanisms_registered(self):
        names = available_lppms()
        for expected in (
            "geo_ind",
            "gaussian",
            "uniform_disk",
            "rounding",
            "subsampling",
            "time_perturbation",
        ):
            assert expected in names

    def test_lookup_returns_class(self):
        assert lppm_class("geo_ind") is GeoIndistinguishability

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            lppm_class("definitely-not-an-lppm")


class TestNonFiniteParam:
    """A NaN or infinite primary parameter never builds a mechanism
    (an infinite epsilon would release the input unchanged)."""

    @pytest.mark.parametrize("name", available_lppms())
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejected_at_construction(self, name, value):
        with pytest.raises(ValueError):
            lppm_class(name)(**{primary_param(name): value})


class TestPrimaryParam:
    def test_known_mechanisms(self):
        from repro.lppm import primary_param

        assert primary_param("geo_ind") == "epsilon"
        assert primary_param("gaussian") == "sigma_m"
        assert primary_param("subsampling") == "keep_fraction"

    def test_every_registered_mechanism_has_one(self):
        from repro.lppm import primary_param

        for name in available_lppms():
            assert primary_param(name)

    def test_varargs_only_constructor_rejected(self, monkeypatch):
        import repro.lppm.base as base

        class KwargsOnly:
            def __init__(self, **kwargs):
                pass

        monkeypatch.setattr(base, "lppm_class", lambda name: KwargsOnly)
        with pytest.raises(ValueError, match="named parameters"):
            base.primary_param("kwargs_only")

    def test_positional_only_first_param_rejected(self, monkeypatch):
        import repro.lppm.base as base

        class PositionalOnly:
            def __init__(self, epsilon, /, scale=1.0):
                pass

        monkeypatch.setattr(base, "lppm_class", lambda name: PositionalOnly)
        # Returning 'scale' here would bind --param to the wrong knob.
        with pytest.raises(ValueError, match="positional-only"):
            base.primary_param("positional_only")

    def test_inspected_once_per_class(self, monkeypatch):
        import inspect

        import repro.lppm.base as base

        class First:
            def __init__(self, radius_m):
                pass

        class Second:
            def __init__(self, sigma_s):
                pass

        calls = []
        signature = inspect.signature

        def counting_signature(obj):
            calls.append(obj)
            return signature(obj)

        monkeypatch.setattr(base.inspect, "signature", counting_signature)
        registry = {"knob": First}
        monkeypatch.setattr(base, "lppm_class", lambda name: registry[name])
        assert base.primary_param("knob") == "radius_m"
        assert base.primary_param("knob") == "radius_m"
        assert calls == [First.__init__]
        # The name registered again to another class resolves afresh.
        registry["knob"] = Second
        assert base.primary_param("knob") == "sigma_s"
        assert calls == [First.__init__, Second.__init__]

    def test_name_attribute_set(self):
        assert GeoIndistinguishability.name == "geo_ind"


class TestSeedPlumbing:
    def test_protect_deterministic_per_seed(self, taxi_dataset):
        lppm = GeoIndistinguishability(0.01)
        a = lppm.protect(taxi_dataset, seed=9)
        b = lppm.protect(taxi_dataset, seed=9)
        for user in taxi_dataset.users:
            assert a[user] == b[user]

    def test_different_seeds_differ(self, taxi_dataset):
        lppm = GeoIndistinguishability(0.01)
        a = lppm.protect(taxi_dataset, seed=1)
        b = lppm.protect(taxi_dataset, seed=2)
        assert any(a[u] != b[u] for u in taxi_dataset.users)

    def test_subset_invariance(self, taxi_dataset):
        # Protecting a subset must equal the subset of the protection:
        # per-user generators must not depend on the other users.
        lppm = GeoIndistinguishability(0.01)
        full = lppm.protect(taxi_dataset, seed=5)
        some_users = taxi_dataset.users[:2]
        partial = lppm.protect(taxi_dataset.subset(some_users), seed=5)
        for user in some_users:
            assert full[user] == partial[user]

    def test_repr_shows_params(self):
        assert "0.01" in repr(GeoIndistinguishability(0.01))
