"""Byte-identity of surgery output.

The golden files cover only the builders; these sha256 digests of
``write_graph`` text pin what the surgeries produce from them.  An error
case is pinned by its class name and message.  Any change to a digest is a
change of output and must be made on purpose.
"""
from __future__ import annotations

import hashlib

from quadloc.constructions import build_G0_prime, build_high_genus_family
from quadloc.errors import InputError
from quadloc.quadform import crosscap_hexagon, find_crosscap_candidates, identify_face_diagonal, refine_3x3
from quadloc.textio import write_graph
from quadloc.trisub import face_subdivision


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(fn, *args) -> str:
    try:
        G, c = fn(*args)
    except InputError as exc:
        return _digest(f"{type(exc).__name__}: {exc}")
    return _digest(write_graph(G, c))


def _cases(g1p, k4p):
    out = {}
    G, c = g1p
    for k in find_crosscap_candidates(G, c)[:3]:
        out[f"g1p.crosscap.{k}"] = _outcome(crosscap_hexagon, G, c, k)
    G0p, c0 = build_G0_prime()
    for i in range(len(G0p.faces)):
        out[f"g0p.identify.{i}"] = _outcome(identify_face_diagonal, G0p, c0, i)
    for name, (Q, cq) in (("k4p", k4p), ("g1p", g1p)):
        out[f"{name}.subdivide"] = _digest(write_graph(face_subdivision(Q)[0].graph))
        out[f"{name}.refine3"] = _outcome(refine_3x3, Q, cq)
    out["family.g1p.3"] = _outcome(build_high_genus_family, "g1p", 3)
    return out


EXPECTED = {
    "g1p.crosscap.72": "92aaf2872608c189e20f0a0fd05251a9c21abac9c81bef0b2003dc26de708ae0",
    "g1p.crosscap.73": "474ffd4998ac0b5d2a1df2da3327d99f23b39cb0e49481e13d04811e0db55ba7",
    "g1p.crosscap.74": "92359437a772cb81039a8118174df3a6fa4a06504aa448cd894f97d94092774d",
    "g0p.identify.0": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.1": "23bca236adcd03d7757116e4852047185d7fdb06ac1e9900b1c34ed58309c3e0",
    "g0p.identify.2": "e8ae554e52b99d5096bd825d355e4e8cf4334bb3f3b215d6c7e64d7bfe40fb95",
    "g0p.identify.3": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.4": "afb62fb21b7dc1fbfd95493b9a40fdf12dadbd4d57fe1a172e77d6d81e9fedbe",
    "g0p.identify.5": "9f5890fd0ebfed302bba8d7a93b8e9caa579daf22ac1ac4157146c29a67cbce4",
    "g0p.identify.6": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.7": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.8": "f1ea181159bd439ba2e9c80fa2b7416f97902e061f6d736ebf5c9046bd996ce5",
    "g0p.identify.9": "3b9f731f3c7fbaa699420912ecb260525e4c3bc5509c890019dc6391f9bb0276",
    "g0p.identify.10": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.11": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.12": "90780305a8706d48b0848cb8bb577a928beea0d8b1d578688cff88b237b60666",
    "g0p.identify.13": "840bd8e714b6790800d550cf93366a6b59bcf8cb2dddf16b73e495ed8baa2437",
    "g0p.identify.14": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.15": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.16": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.17": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.18": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.19": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.20": "0d42fe3a2ab5b98c4fd0bb53a68088a4ee17ffd1321bd30a834d927eb1aca21c",
    "g0p.identify.21": "afe38f3652322a9a86de732ea9468638a64ef54ffc02898867d446bf4ec81a93",
    "g0p.identify.22": "6d8b6d2b9491c36d8391f7cd349f774913705ebea767a61159389dcbca56e1d6",
    "g0p.identify.23": "48f0509a27e92034e1e08a5504ad623dd4d7b533fb0a269faf4ce90d30b6240e",
    "g0p.identify.24": "601ed77b6549c2cdeea5736a3068966463f1fdb77b41fedfa32f68c9e42e89e1",
    "g0p.identify.25": "b467fb629f9a5fea20f80ec299e0872cc7fd4d39485f0dbb3711ba7d14b2be98",
    "g0p.identify.26": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.27": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.28": "bfdc9f045789464d127b0d8ffbf5bcb6b753e84520c32efb158b8e0363e03484",
    "g0p.identify.29": "a094b443cadada1c97f77be9f15110d956d0eae95527f099dd5588075e6f25e4",
    "g0p.identify.30": "855053730ddf7679b4e2d65af48bc5d7361e9e7431876a0526a0be49e474dca1",
    "g0p.identify.31": "5e6de1cf336d5c46188096f3a1ebb85742494563e3c46f5af353e5ac3d7524a0",
    "g0p.identify.32": "ceea13249d123cd1e18a43e6f4e4a36c98f83e0da73048525388cdafdc7ba521",
    "g0p.identify.33": "0d643dbc9b873da4c2d54c33c46204526b597a8f91c7e0cdc874b421fb3ab583",
    "g0p.identify.34": "3546dc15c0be7664b8b731b4eed3580ef11b4128bd1cae8cc1bb4fd00ab71ca3",
    "k4p.subdivide": "b64ae330540e1ac3b0a2c8466f1a6d5685e7bfdcb43a8aa797c033990337f153",
    "k4p.refine3": "ae5158638fd4d868c4c8b2d879d95476ae20cb996d4afa0310f4a962a29d5031",
    "g1p.subdivide": "e81653411dd1f4bda74290e5d09d91042357bc617a9c613fd43df7e25ee2e310",
    "g1p.refine3": "e753b1cdf6b6833eeb900c436a29a66a4b9c103e8e323c2310418d7a4e1ad840",
    "family.g1p.3": "07862d48493629b57f80920ed695881b0134cfd3053ecc08770c93038360e0e1",
}


def test_surgery_output_is_byte_identical(g1p, k4p):
    got = _cases(g1p, k4p)
    assert sorted(got) == sorted(EXPECTED)
    changed = [name for name in EXPECTED if got[name] != EXPECTED[name]]
    assert not changed, f"surgery output changed: {changed}"
