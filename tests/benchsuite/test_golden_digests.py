"""Golden Blazer verdicts and digests for the 24 Table-1 rows.

Each entry pins the verdict status and the content digest of
:func:`repro.core.report.verdict_digest`.  An optimisation of the
analysis (a faster domain, a projection, a memo) must leave every
digest byte-identical; a change that is meant to move a verdict must
update this table in the same commit and say why.
"""

import pytest

from repro.benchsuite import ALL_BENCHMARKS, run_benchmark

GOLDEN = {
    "array_safe": ("safe", "4a9f0ad5d0fc7e9972aeeb1090c9b7410aa3dc1f95fe8fa201ebeeec6c7b79d1"),
    "array_unsafe": ("attack", "fc94dd9b9e326ba2a23648cfda7d12092c7d53748c6a37751bd91bd96391a7f7"),
    "loopBranch_safe": ("safe", "3eac3f452eea26001344838fc547f3c7b30a4b70248e9cb5c65c188dfc58b0bb"),
    "loopBranch_unsafe": ("attack", "f5eb17ba36432f74bcf7f18016d70c61c2751e9373f2ed5bef1f40179287c551"),
    "nosecret_safe": ("safe", "0eede9a1652c68380164e12679b8f2765993af517f605b3cae94817cb61abe07"),
    "notaint_unsafe": ("attack", "1dd4d74703f8ab007ab93e7274750c57ee85a08e0b7f5911b32db89bb56b1e30"),
    "sanity_safe": ("safe", "a3be45d21ff7ce10d0751678998c35d460787e67abce88e7646b02581a3a8cab"),
    "sanity_unsafe": ("attack", "f11cda3524a53143a929ae938db68a53c1edfb3dbb4e668ac87da5590c8bb173"),
    "straightline_safe": ("safe", "7f61f2bb11ff3a0c1a177e7829589d219ccee9773712c221a39acdb325f1e18a"),
    "straightline_unsafe": ("attack", "0c963f9fb6649ad79f4152cb15d659f48fdd788fcc63a7f2c7fa0c1a660a1438"),
    "unixlogin_safe": ("safe", "dad3f01cf35bda83256f35d7dfb510487278eef5a6d4fc545d8f517b894b46b0"),
    "unixlogin_unsafe": ("attack", "69b990504f2f71c6d0d94abbdaf326b52c644bb4038781a43046e235a99f405c"),
    "modPow1_safe": ("safe", "88329d1b6b9e4654f893de7f9ac3a37ab76704f3865fde7323b68dc649540252"),
    "modPow1_unsafe": ("attack", "d8e490d67efe0b7254277c16f4b463bacbcfcf75b4c618b8554776ff4f4fe84a"),
    "modPow2_safe": ("safe", "dd5c5312f89dccea56c866ffabdf005353387ffe0f49eebad76a45a7e0cc0faf"),
    "modPow2_unsafe": ("attack", "4cc88244f76b65bbfb01072a1396894f6b02267529455cd58feaedf19ee3c7c0"),
    "pwdEqual_safe": ("safe", "f8c590345bad6ed365e84eb1cf790cbdfca2a4f07ebe2f5233003be78ae9722a"),
    "pwdEqual_unsafe": ("attack", "ff9243b005b6eefc54ad6bb9b566b7a94cfec0c6186afb51b4e797ea70f3e9ec"),
    "gpt14_safe": ("safe", "ae80646329a60f0638fb18465aa2d57361282ddcf4b0f896e86e0c24c6d121a6"),
    "gpt14_unsafe": ("attack", "14e3dd130e8601bad5f84135ac9daf0fb4f8f04c2848b74cec20bdf04ed99dcd"),
    "k96_safe": ("safe", "65b57e1aa4a0b354c7c91a359b642fb57ac48723a9d217919fb3cc0770b027a1"),
    "k96_unsafe": ("attack", "355faa59d435344728edb2a9bc415ffeafda27f6515d084977bf2edb4b4fdd2e"),
    "login_safe": ("safe", "8e105879d2104bf56c7e6b3c80722b06d7f1afb570fb93fe7c3ab8b694bbbb23"),
    "login_unsafe": ("attack", "66b121a9facde100ecf5cadf682d3f24cab3ba7e4394e769b37523721a4fde60"),
}


def test_golden_covers_the_whole_table():
    assert sorted(GOLDEN) == sorted(b.name for b in ALL_BENCHMARKS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verdict_digest_is_pinned(name):
    status, digest = GOLDEN[name]
    result = run_benchmark(name)
    assert (result.status, result.digest) == (status, digest)
