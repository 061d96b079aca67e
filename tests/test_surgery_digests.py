"""Byte-identity of surgery output.

The golden files cover only the builders; these sha256 digests of
``write_graph`` text pin what the surgeries produce from them: every
crosscap family member G0'+K (K = 1..12) and G1'+K (K = 1..8), past the
last original hexagon, and the medial map (with its face tags) and the
orientation double cover of G0', G1' and K4' before and after one
``refine_3x3``.  They also pin the cycle-parity profile certificate of
the paper maps, of crosscapped and refined primes, and the PHI3
certificate report on G1' for the bare, the completed and a truncated
edge list.  An error case is
pinned by its class name and message.  For the subdivision and the
refinement of the level-1 G1' and for the assembly of a 1000-cycle with
seeded names, the traced faces (every slot, from each face's start) are
pinned next to the ``write_graph`` text, so a change of tracing order
shows.  Any change to a digest is a change of output and must be made on
purpose.
"""
from __future__ import annotations

import hashlib
import random
from itertools import islice

from quadloc.constructions import high_genus_family
from quadloc.errors import InputError
from quadloc.constructions import g1_prime_certificate_edges, g1_prime_negative_edges
from quadloc.quadform import (
    crosscap_hexagon,
    cycle_parity_profile,
    find_crosscap_candidates,
    identify_face_diagonal,
    phi3_certificate,
    refine_3x3,
)
from quadloc.surface_map import (
    FaceListComplex,
    assemble_embedding,
    medial_graph,
    orientation_double_cover,
)
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


def _phi3(G, edges) -> str:
    try:
        return _digest(phi3_certificate(G, edges).text())
    except InputError as exc:
        return _digest(f"{type(exc).__name__}: {exc}")


def _cases(g0, g1, g0p, g1p, k4p):
    out = {}
    G, c = g1p
    for k in find_crosscap_candidates(G, c)[:3]:
        out[f"g1p.crosscap.{k}"] = _outcome(crosscap_hexagon, G, c, k)
    G0p, c0 = g0p
    for i in range(len(G0p.faces)):
        out[f"g0p.identify.{i}"] = _outcome(identify_face_diagonal, G0p, c0, i)
    for name, (Q, cq) in (("k4p", k4p), ("g1p", g1p)):
        out[f"{name}.subdivide"] = _digest(write_graph(face_subdivision(Q)[0].graph))
        out[f"{name}.refine3"] = _outcome(refine_3x3, Q, cq)
    family = {}
    for base, top in (("g0p", 12), ("g1p", 8)):
        for k, (G, c) in enumerate(islice(high_genus_family(base), top + 1)):
            family[f"{base}+{k}"] = G
            if k:
                out[f"family.{base}.{k}"] = _digest(write_graph(G, c))
    for name, (Q, cq) in (("g0p", g0p), ("g1p", g1p), ("k4p", k4p)):
        for level, G in ((0, Q), (1, refine_3x3(Q, cq)[0])):
            M, tags = medial_graph(G)
            out[f"{name}.L{level}.medial"] = _digest(write_graph(M) + repr(tags))
            out[f"{name}.L{level}.double_cover"] = _digest(write_graph(orientation_double_cover(G)))
    profiled = {"g0": g0[0], "g1": g1[0], "g0p": g0p[0], "g1p": g1p[0], "k4p": k4p[0]}
    for name in ("g0p+3", "g1p+2", "g1p+6"):
        profiled[name] = family[name]
    for name, (Q, cq) in (("g0p", g0p), ("g1p", g1p)):
        profiled[f"{name}.L1"] = refine_3x3(Q, cq)[0]
    for name, G in profiled.items():
        out[f"{name}.profile"] = _digest(cycle_parity_profile(G).certificate_text(G))
    G = g1p[0]
    completed = g1_prime_certificate_edges(G)
    out["g1p.phi3.bare12"] = _phi3(G, g1_prime_negative_edges())
    out["g1p.phi3.completed"] = _phi3(G, completed)
    out["g1p.phi3.completed_minus_last"] = _phi3(G, completed[:-1])
    return out


EXPECTED = {
    "g1p.crosscap.72": "92aaf2872608c189e20f0a0fd05251a9c21abac9c81bef0b2003dc26de708ae0",
    "g1p.crosscap.73": "474ffd4998ac0b5d2a1df2da3327d99f23b39cb0e49481e13d04811e0db55ba7",
    "g1p.crosscap.74": "92359437a772cb81039a8118174df3a6fa4a06504aa448cd894f97d94092774d",
    "g0p.identify.0": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.1": "23bca236adcd03d7757116e4852047185d7fdb06ac1e9900b1c34ed58309c3e0",
    "g0p.identify.2": "e8ae554e52b99d5096bd825d355e4e8cf4334bb3f3b215d6c7e64d7bfe40fb95",
    "g0p.identify.3": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.4": "afb62fb21b7dc1fbfd95493b9a40fdf12dadbd4d57fe1a172e77d6d81e9fedbe",
    "g0p.identify.5": "9f5890fd0ebfed302bba8d7a93b8e9caa579daf22ac1ac4157146c29a67cbce4",
    "g0p.identify.6": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.7": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.8": "f1ea181159bd439ba2e9c80fa2b7416f97902e061f6d736ebf5c9046bd996ce5",
    "g0p.identify.9": "3b9f731f3c7fbaa699420912ecb260525e4c3bc5509c890019dc6391f9bb0276",
    "g0p.identify.10": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.11": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.12": "90780305a8706d48b0848cb8bb577a928beea0d8b1d578688cff88b237b60666",
    "g0p.identify.13": "840bd8e714b6790800d550cf93366a6b59bcf8cb2dddf16b73e495ed8baa2437",
    "g0p.identify.14": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.15": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.16": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.17": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.18": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.19": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.20": "0d42fe3a2ab5b98c4fd0bb53a68088a4ee17ffd1321bd30a834d927eb1aca21c",
    "g0p.identify.21": "afe38f3652322a9a86de732ea9468638a64ef54ffc02898867d446bf4ec81a93",
    "g0p.identify.22": "6d8b6d2b9491c36d8391f7cd349f774913705ebea767a61159389dcbca56e1d6",
    "g0p.identify.23": "48f0509a27e92034e1e08a5504ad623dd4d7b533fb0a269faf4ce90d30b6240e",
    "g0p.identify.24": "601ed77b6549c2cdeea5736a3068966463f1fdb77b41fedfa32f68c9e42e89e1",
    "g0p.identify.25": "b467fb629f9a5fea20f80ec299e0872cc7fd4d39485f0dbb3711ba7d14b2be98",
    "g0p.identify.26": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.27": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
    "g0p.identify.28": "e3aa4418606747031642b10d71ebe35eb807e6526c692c94ebb7b573973a7693",
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
    "family.g0p.1": "2060180e5fe452641800e28bc3fc6332b79e61f4c63e0e4ef77a54c4f0752e87",
    "family.g0p.2": "1fa665fefe914e51ec4e4cfbd06ddbe39b01f67781a245450d3d223010c6b3c8",
    "family.g0p.3": "fc5a4362d022d50cbb502e59d597c86f63d265a38abe81e7061bc783c3ded2b0",
    "family.g0p.4": "afadfa78a418a27a5593119ebc2c526b3f40e9151a9e31decdb9fe3500637117",
    "family.g0p.5": "e0aad63c34f7b8b6909bc5c1d04ba6709ad5ea10377fda12474314a40b639b5a",
    "family.g0p.6": "78b8603d706d5821d52e51e1992f4766e80b18bea828d45c107c3ada438e5b03",
    "family.g0p.7": "1ca87753f468ac09ee456fdcf26aea4142176aac4f05ab09aa51998927ee4b25",
    "family.g0p.8": "0fd6ad550743c153a9d5222077e271979a779b213f70f7b21df90642b27da23d",
    "family.g0p.9": "a6079ad850fbe751a39ddce9461d6679cec07e6e8cc88eb80301ae1f55c8c02c",
    "family.g0p.10": "5d8f777bc0c834bf0c3f17184430199d358a8e1c0012750b2e667f4a60c53760",
    "family.g0p.11": "0d80684acda33b405b4ad5d3bb98b77f7e91bc24a23044b01f34a55a719ee318",
    "family.g0p.12": "3e5276f118691300b3a5d5f8d6f3263f1a5ce6bb89c19416d8995aac19e2592a",
    "family.g1p.1": "92aaf2872608c189e20f0a0fd05251a9c21abac9c81bef0b2003dc26de708ae0",
    "family.g1p.2": "83825404a166c74c389af66749642568f8b658c438a5279eec718719a7f56dd0",
    "family.g1p.4": "e5042ce412fe1eafb976f300f72e234898fe64d6ce262b859fa18b36c2930f09",
    "family.g1p.5": "698bb7732f1bf09119084df17bb41545196a7800fea5482bc25480b486c55529",
    "family.g1p.6": "7f193d6fc15993c487c4780f77934c0498e64d41a7803059b50b786702c3f047",
    "family.g1p.7": "d4e59d008e1d5d207676d0456786983db3655e33d49eb451857057842ec84327",
    "family.g1p.8": "9b49ff40af5256cabdc4ef89501fa46f2aff4ecefa8e7e31795754ab6d6b0362",
    "g0p.L0.medial": "f1a2db811b50bc00e70c3f86167781b93a2e5cc1fcb8a6bc3915e4b8d4637fe4",
    "g0p.L0.double_cover": "c2bf7e8e7a786df3f18384023fff75f1f8cefb21883322ae9d51b852bacaaf17",
    "g0p.L1.medial": "46073f1ab1084b834e585042ae02a525a7b13f7d0ffe57989b32288b13b86bbe",
    "g0p.L1.double_cover": "9333bc84c1a4b37d7ae1b265a7baf67902da53344759cf15b41901ca949add37",
    "g1p.L0.medial": "e19b9a46fa223175549c7cf62c9ef641d7737ae127956b8eea12f951457b39e5",
    "g1p.L0.double_cover": "41eeebd1be973ec2538c96ae101674b94603f1e7c79f21123106404b8e13d5b5",
    "g1p.L1.medial": "fbd1b197c64773b3893c8a4c7f41f8aa1e90b0a7c123aa3d6b3c31b788abb685",
    "g1p.L1.double_cover": "bcd777bd11cf2e138d84fa5d68bf680ac84c04ad4664ab8d658e792d432dd5b8",
    "k4p.L0.medial": "fe6f2361838db62aca3d46e5adccaa8758767ea4ee11bee7260d6ab9f08f84b2",
    "k4p.L0.double_cover": "d3e1170ff60d45c7b10154d531247fe13754b4facfbb441f371fb84518997092",
    "k4p.L1.medial": "dc2963e5cd08e06f99cbc5e29be4ac406845cedbfa089757731946e32d85d334",
    "k4p.L1.double_cover": "94f5d2d6dfea67d9bc6e45e96a1373db105a31748d9cf56b0730f081989df797",
    "g0.profile": "c53979cd01e5c7292c63acdc0b37dc5ba7587368c199ece51278a7e42c3ed7f7",
    "g1.profile": "8f93eadea39bfb15d94a7824259c6054100df34e0b03266c3b3d23a647173492",
    "g0p.profile": "885cf071b406021318d56a7b2d6dda222e1d68fe5e28efea360e8a305708238a",
    "g1p.profile": "eea40ea707facde9d5dc6ed2e09dc3a1ccc2ed4b80fdee6d8c54731e5f696960",
    "k4p.profile": "ad76f1a0238113839c84be8473583e591a3a91f16ccd3ea0725b99da83763683",
    "g0p+3.profile": "6b32069382fdbe7cfc65a5a2cbbd56799be7a3b1e800203271e53f75c1672660",
    "g1p+2.profile": "450f40cc5f41cd32376797c30663b7c1b69dab4db88e58aa3896492335f23ab5",
    "g1p+6.profile": "6d23463a7e18a207311af65f41309ab4258e26b4ff7d6d13fc6af0a2d0307a69",
    "g0p.L1.profile": "caed170eb4a22f93c2defdf106ab3f4516dae6f63c8e9072d640369b3d3ae846",
    "g1p.L1.profile": "bbf7aff181d0d97bd46f5298699e73f30ba85e91394de2c96a86948e9db59918",
    "g1p.phi3.bare12": "8bbe2f40e709f4af5b35b88eed69fca8b330a6778d6dcdcf9019e27e12a07022",
    "g1p.phi3.completed": "8b579640174f88d9fa60b67525df24ef94fd1ef178d2a09954702f2ed47dd573",
    "g1p.phi3.completed_minus_last": "8bbe2f40e709f4af5b35b88eed69fca8b330a6778d6dcdcf9019e27e12a07022",
}


def test_surgery_output_is_byte_identical(g0, g1, g0p, g1p, k4p):
    got = _cases(g0, g1, g0p, g1p, k4p)
    assert sorted(got) == sorted(EXPECTED)
    changed = [name for name in EXPECTED if got[name] != EXPECTED[name]]
    assert not changed, f"surgery output changed: {changed}"



def _map_digests(G):
    return _digest(write_graph(G)), _digest(repr([f.slots for f in G.faces]))


TRACED = {
    "g1p.L1.subdivide": ("595801044c6945349e370440d55d3243f0383dbe792a3e47b13e019d36b9062e",
                         "83d6ef32ae3054e31448b63d738a8bcf677bee51f8d322dcf1cf3b9531919b07"),
    "g1p.L1.refine3": ("54e26855f2739ec5aa310db8d258ddeaf24bae1c09b3dcf1c0db598f034205b3",
                       "44cc1581a2d1a89cbccd6b3f9ef198993651b12d2321ed1098a1f734e7f99365"),
    "C1000.assemble": ("ffd9662479f9c2d3044c0c0fdfd7f91ad967c235df901d919b123af77df75e78",
                       "eaaa061df92d1f79e9b7c9e28d86fe7a69b6c2744a2060678626d3a9b299adf4"),
}


def test_traced_faces_are_byte_identical(g1p):
    L1, c1 = refine_3x3(*g1p)
    names = [f"v{i}" for i in range(1000)]
    random.Random(1).shuffle(names)
    got = {
        "g1p.L1.subdivide": _map_digests(face_subdivision(L1)[0].graph),
        "g1p.L1.refine3": _map_digests(refine_3x3(L1, c1)[0]),
        "C1000.assemble": _map_digests(assemble_embedding(FaceListComplex.from_lists([names, names]))),
    }
    assert got == TRACED
