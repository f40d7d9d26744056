"""Golden digests of the live releases of every O(1) online mechanism.

The digests were recorded from the per-record ``_emit_live`` path that
pushed one update at a time.  Any change to the online path that moves
a single released bit (or the suppression pattern of subsampling)
fails here, whichever way the releases are computed.
"""

import hashlib

import numpy as np
import pytest

from tests.streaming.test_online_parity import MECHANISMS, SEED, TRACES

#: Mechanisms with a true O(1)-per-update live path.
O1_MECHANISMS = (
    "geo_ind",
    "gaussian",
    "uniform_disk",
    "rounding_centroid",
    "rounding_fixed_ref",
    "subsampling",
)

#: (mechanism, trace) -> sha256 of the live releases, pushed one by one.
GOLDEN = {
    ("geo_ind", "a_empty"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("geo_ind", "b_single"):
        "9758f3bd4d9738079011f0de7b8f51cb3daca60debdf479be541c3d51e75fa46",
    ("geo_ind", "c_dup_times"):
        "65d2b2695984bc9b10dc7ede1103cd5e8071f169d5d1b12324f60700181ed1a7",
    ("geo_ind", "d_antimeridian"):
        "513b804ba8d57246a4bb380899a6dbb739715dfab2810d716f086260e4736ad8",
    ("geo_ind", "e_normal"):
        "bf2488f03ccb4e9114e55064523451131469065604a3e21cb712ad34c259c3cc",
    ("gaussian", "a_empty"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("gaussian", "b_single"):
        "2f03156c24bb5c3d28c463a30b10f0fa7cd283e8e7f08c44a820bbb1e10d9104",
    ("gaussian", "c_dup_times"):
        "60fbd00766fe13f4fbe59e38ae898ea3610b372cb2f2659c60d6216a6eded10a",
    ("gaussian", "d_antimeridian"):
        "d0a673526f6da0d390370b5bae7e897cce31eef22fc205b16315be080415a55a",
    ("gaussian", "e_normal"):
        "96abae7ae906841b18029119701954d3b5869444be7da37a0222ce07fdde8e0b",
    ("uniform_disk", "a_empty"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("uniform_disk", "b_single"):
        "bd723a0c7369410cf4754fe3ada719bb8acfea17e3f3565a5b33c2927292917f",
    ("uniform_disk", "c_dup_times"):
        "1f5f139dac26005c3637c586fdf48ed8c1b9439904546e1a6408f95b4e48909d",
    ("uniform_disk", "d_antimeridian"):
        "a525ba87040a5066d4edb45c31070457228a67c724fc8a525ee006bd6c6cd37f",
    ("uniform_disk", "e_normal"):
        "3b8cbbc6899eec99877adf9c7e25263c261f0594ae93beaeeb3769e0d27bf707",
    ("rounding_centroid", "a_empty"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("rounding_centroid", "b_single"):
        "61f61a8d4162535a797eb1e6c7f2b8303810f852c9d717a897a9e5175c8d3440",
    ("rounding_centroid", "c_dup_times"):
        "106bc77f24615f885ff5482134c0fd841239ef2ec1729857b236c846bb0b8142",
    ("rounding_centroid", "d_antimeridian"):
        "2520a90daa71433cc750a9e329bb9134b01603d2cdb05daa18db5a7c54d314d8",
    ("rounding_centroid", "e_normal"):
        "367ff122d9e8de418dc1d5d8ff8dd0dab2ab3ecef3c1cb71b2daa7e05262fcea",
    ("rounding_fixed_ref", "a_empty"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("rounding_fixed_ref", "b_single"):
        "678580246e02f82a64561259b0318d7bcab29a86ec27b8c5e0f14717e02a6913",
    ("rounding_fixed_ref", "c_dup_times"):
        "85ce0956de23a86313d649778cfa74d0963f2dc25f41536be2c39a0c3491c59f",
    ("rounding_fixed_ref", "d_antimeridian"):
        "3642e940123676439652c917dced76eb668c273da76060490b83ea0151a1103c",
    ("rounding_fixed_ref", "e_normal"):
        "62f73b11b3443138e1eb19a54efa79fbab956aa3141704f770fa486c5311d781",
    ("subsampling", "a_empty"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("subsampling", "b_single"):
        "153ed43295d50812d9aa3e700d6e5e2face05940147b110fc37fef80ebc0054b",
    ("subsampling", "c_dup_times"):
        "766818f0ae44aae29da3bf0f7d2f194adbfe4b16680616be6f2f3b70e26c37ba",
    ("subsampling", "d_antimeridian"):
        "5a6b17a73efc98585e6274239537076c558e0ecb2b1ee85646033f9b17797311",
    ("subsampling", "e_normal"):
        "2332813da83bdf50d0c23f6f6c6abfa92b854bb1024ee493277f4f32d9857aa4",
}


def live_digest(lppm, trace) -> str:
    """sha256 over the releases of pushing ``trace`` record by record.

    Each release contributes its three little-endian doubles; a
    suppressed record contributes a single marker byte.
    """
    protector = lppm.protect_online(seed=SEED, user=trace.user)
    h = hashlib.sha256()
    for t, lat, lon in zip(trace.times_s, trace.lats, trace.lons):
        released = protector.push(t, lat, lon)
        if released is None:
            h.update(b"-")
        else:
            h.update(np.asarray(released, dtype="<f8").tobytes())
    return h.hexdigest()


def test_every_o1_mechanism_and_trace_is_pinned():
    assert set(GOLDEN) == {(m, t) for m in O1_MECHANISMS for t in TRACES}


@pytest.mark.parametrize("mech_name, trace_name", sorted(GOLDEN))
def test_live_releases_unchanged(mech_name, trace_name):
    lppm = MECHANISMS[mech_name]()
    digest = live_digest(lppm, TRACES[trace_name])
    assert digest == GOLDEN[(mech_name, trace_name)]
