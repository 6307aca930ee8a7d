"""Golden Blazer, PDSC and leakage digests for generated programs.

The first 24 distinct programs of diffcheck campaign 2017, in the sizes
the ``generated-stream`` benchmark sends (seven small programs, then one
at the generator's default size, all with a quarter of their integer
expressions priced extern calls), each analysed the way diffcheck's
``check_source`` runs its subjects: Blazer under the campaign observer,
the constant-time check and PDSC (budgets 80 pairs / 2 refinements) on
Blazer's CFGs, and leakage from Blazer's verdict.

Each entry pins ``(blazer outcome, blazer digest, pdsc outcome, pdsc
digest, leakage status, constant_time, leakage digest)``.  An
optimisation of the numeric core must leave every entry byte-identical;
a change meant to move one must update this table and say why.

Regenerate with ``PYTHONPATH=src python tests/benchsuite/test_golden_stream_digests.py``.
"""

from __future__ import annotations

import pytest

from repro.core.blazer import Blazer, BlazerConfig
from repro.core.observer import effective_slack
from repro.core.pdsc import result_digest as pdsc_digest
from repro.core.report import verdict_digest
from repro.diffcheck.differ import DiffConfig
from repro.diffcheck.generator import PROC_NAME, GeneratorConfig, generate_program
from repro.domains import DOMAINS
from repro.leakage.analysis import leakage_from_verdict
from repro.leakage.consttime import check_constant_time
from repro.leakage.job import result_digest as leakage_digest
from repro.leakage.model import extern_env
from repro.pdsc import PDSC

CAMPAIGN = 2017
COUNT = 24
SMALL = {"max_stmts": 3, "max_depth": 1, "max_loops": 1}
CONFIGS = [GeneratorConfig(extern_prob=0.25, **SMALL)] * 7 + [GeneratorConfig(extern_prob=0.25)]
CHECK = DiffConfig(max_pairs=80, max_refinements=2)


def stream_programs(count: int = COUNT):
    """The campaign's first ``count`` distinct programs; program ``j``
    is drawn at ``CONFIGS[j % 8]`` and a repeated source is skipped."""
    programs, seen, index = [], set(), 0
    while len(programs) < count:
        program = generate_program(CAMPAIGN, index, CONFIGS[len(programs) % len(CONFIGS)])
        index += 1
        if program.source not in seen:
            seen.add(program.source)
            programs.append(program)
    return programs


def outcomes(program) -> tuple:
    domains = dict(program.domains)
    slack = effective_slack(CHECK.threshold)
    model = extern_env(program.source)
    blazer = Blazer.from_source(
        program.source,
        BlazerConfig(domain=CHECK.domain, observer=CHECK.observer(domains),
                     summaries=model.summaries),
    )
    verdict = blazer.analyze(PROC_NAME)
    consttime = check_constant_time(blazer, PROC_NAME, model)
    pdsc = PDSC(
        blazer.cfgs[PROC_NAME],
        DOMAINS[CHECK.domain],
        epsilon=slack - 1,
        max_pairs=CHECK.max_pairs,
        max_refinements=CHECK.max_refinements,
        summaries=model.summaries,
    ).verify()
    report = leakage_from_verdict(verdict, slack, domains=domains, cost_model=model.name)
    return (
        verdict.status, verdict_digest(verdict),
        pdsc.outcome, pdsc_digest(PROC_NAME, pdsc),
        report.status, consttime.constant_time, leakage_digest(PROC_NAME, report, consttime),
    )


GOLDEN = {
    "p000000": (
        "unknown", "917df7df2a441178cec2665e361fada234c386ec7cf2ff880279595ac42f0ab5",
        "unverified", "4543541452300f3d2e4ef810d2cbdf58a32d954ea153d759fab27ab59deff557",
        "upper-bound", False, "50d331f93fb09c1d74187fa2c7cfbe38ffbf925f690e18be5a873857beeb323f",
    ),
    "p000001": (
        "unknown", "39782b8158819d3c293594473af8f4c0874a9129955c4c24da14721f5f1b4207",
        "unverified", "dbe56cd87a210c00607ae1180f43d05924d6d45f23959e2bdc6a5bf36e8606b6",
        "upper-bound", False, "49e7ae6e4ae496d63411edaedbf5788c4793185d4db93b67bdabaca401846771",
    ),
    "p000002": (
        "safe", "31d58109d12a61dea38c0054025c2eab8b46d79bd12a5a79ea0198820720adc4",
        "verified", "0ccc6d9876ba82c51a88d8142a2a5c50ddbc756b5d1e91282b0f436afbfedda9",
        "upper-bound", True, "3158165df9954c8c08351fb58ba4d2faff8950dcf538d67dff3321a5035c3806",
    ),
    "p000003": (
        "attack", "8ad6d63dd0d4a168472090059bf7fa306eafb121bf73855b9d02b9b590304ca7",
        "unverified", "001ff02bb7fa46a0e59f5a570324a673c6c9f36d9a29bf9982d7d076a057b2f6",
        "upper-bound", False, "2ebcd4915073886fa95ac7711413dd1e583ebf43e688d68e82b43a9f924e8fdf",
    ),
    "p000004": (
        "safe", "22fb7fcb5cd850209e5a3c2e1ee9ccedf5eff917f64f70e955ceb7cf9293f257",
        "verified", "98bc5f8ac224e11f7ae8a3d96439d3bb22bea3f2fdaf68ec9d71a9b1addc4b4b",
        "exact", True, "a69fe9afbbd7372ad1bab4d52a47273a51f701856ce15ab639be903473e7c38f",
    ),
    "p000005": (
        "safe", "82d482c6b182086ef95e964e1cfe12875a8bd44bbfdd1e47d3461ed61a6d579f",
        "verified", "f99a7fee9edaaa79e47d9241712a5cdf50f1a76bb3abd1c3a1a01cc49f16c39e",
        "exact", True, "8930eb8338b47cfdd051dafc070a2873016ff59e2808717d97360bf0956118b3",
    ),
    "p000006": (
        "safe", "68b166a4a7907477da26c1e9bf0c17c4e0b617b0d2ca804d44e502e37bf057e4",
        "verified", "98bc5f8ac224e11f7ae8a3d96439d3bb22bea3f2fdaf68ec9d71a9b1addc4b4b",
        "exact", True, "c4a25c351f31501dd7129e9f6cd0368c790d8553da702ba364d26074ceb9b06d",
    ),
    "p000007": (
        "attack", "99124f62a6041cfa5719fb6456fdc673fa3a57d6e3de0aaf1ada77afbb5b0cca",
        "exhausted", "0e5e4a1ecea276762c10240093564720da8a289ebae109bb19d91869ee1f413d",
        "upper-bound", False, "52c5abb0b56fe37f4be3078d716c6814013f9acedeb36c3409f89ad6a606be6e",
    ),
    "p000008": (
        "unknown", "48e6afe7177bca243b040032f5d73ba3e70130eb495f24539c0abef76581c04e",
        "unverified", "0722d044d9655b6e218ae382fe98facbe9071e7d3b033937b6c96ed3efd2baed",
        "upper-bound", True, "3ec00c2dc506252990189924ade70279ffe1fe979ee2144af6332dd57456406d",
    ),
    "p000009": (
        "safe", "1dcd24a0ba6427673920b474e9e2f9cf4901c754b8f497c74434d8a2d7358ac2",
        "verified", "15749e7f9ee85807636c0129eb4f8dfc2e25e6af0ffbee1afa21e2621a453da6",
        "exact", True, "46f74a76a30ffe6f809022adb848dac9df6bc3347fac17f0ca5c6772e60a9275",
    ),
    "p000010": (
        "safe", "312846631de25e58a024f8de9762eb4ce074ff9913423343014a8e7ac4db42e8",
        "verified", "0811cca5f66a8c9798ebd514d0129fc219865ab1cefeb5664ea99c557cfee166",
        "exact", False, "c4172b67246745a6d250ddf48311bed730c84af879bef6417e7f17fe36ea0313",
    ),
    "p000011": (
        "attack", "c933a89d91a3d5bf0a8d807dc4ea1c40debaed029f70d8364aefdf1441c1432c",
        "unverified", "be00748ed4bcc09e045b847e9df0500642001fc3ba145899b7e2807a74ab5e18",
        "upper-bound", False, "b54d3d68a837cb8818c843f884e62850d193b215e651061f71673c837a93b679",
    ),
    "p000012": (
        "attack", "ab3e9bd80d3996e7ac22af0e750b3ff86db87fe599c7efd5bb80306be34502f8",
        "unverified", "5d6975b85e44f72e086e181dbf9be0d2bac28b0e418dbdda7ed2f7a36e0897f6",
        "upper-bound", False, "36880e2a359dc3d9a9bf55a3185028c66cbff41b86dfb1e7198f6ff3d06a335b",
    ),
    "p000013": (
        "safe", "44ae29895890643af10ef4cf483700204df3e18356851aa93e78031854704829",
        "verified", "7f36101cf143abbbc9f113d5bf7c0492849bfb3e9b8d529fa6e8d617b3f710de",
        "exact", True, "df08b260e7f79cec1edbd539071a50f72bac33e1621ee96ca0efcadafae9ec75",
    ),
    "p000014": (
        "unknown", "82d5d75666e0d5c7df67ab329d31d53405d5868a82cf0c2ac75589a1399a499a",
        "unverified", "ba9ce00186999f6178ed2ea1905ebcfdbdd12a0833959ff32f5bda8c5b941880",
        "upper-bound", False, "ea933b9341f7b252b7bc234619b5a35517807f83bb36d88b49bb2147333d50a8",
    ),
    "p000015": (
        "attack", "f41aa2f047c09070f76ca3aa2ed89e8c4d03fceced14e360d514f33cf691785e",
        "exhausted", "0e5e4a1ecea276762c10240093564720da8a289ebae109bb19d91869ee1f413d",
        "upper-bound", False, "06f8505abb9d0cc6efd26faa8593ce8aedbdfd695148c2beaa53dc0f4c3a5b8b",
    ),
    "p000016": (
        "safe", "3d482354e98943c4482dcde977cfd6ffc01a68dddcdc0440c7e35ac0d5c5d653",
        "verified", "98bc5f8ac224e11f7ae8a3d96439d3bb22bea3f2fdaf68ec9d71a9b1addc4b4b",
        "exact", True, "8e62fcbbeca19912e1de9a6047178f0bb7fafe5617fffa53f8984f393d4554d5",
    ),
    "p000017": (
        "unknown", "1ec3118703abdaf19e4a299a519ccb73e64abc8bca8d69da492fc03d9a7c4c2e",
        "unverified", "c2d37e9c415b14605b636cf3413314817725066f6a41f1ff249fcf701c995b42",
        "upper-bound", True, "db48ea23a76a12158fb74e6d9a5057a428d85559473f12e19c9f1598bf4d9b48",
    ),
    "p000018": (
        "unknown", "2601abd3ab55f8019fd69296a4456faf0242655773fe8515518b6750dbeb243f",
        "unverified", "c2d37e9c415b14605b636cf3413314817725066f6a41f1ff249fcf701c995b42",
        "upper-bound", True, "6d980a894442d9b6067d5573df65feba4b803a6f76e3ac7267823440cefc0ec2",
    ),
    "p000019": (
        "attack", "51db160d134af5b79a8f31a903b04da091df2aa0fa0ffe01f4138d33f8d05a8b",
        "unverified", "92df5e82e78da2e7a6b7f339648a646ce24dbd405feee525ca13b9ee318c7ce3",
        "upper-bound", False, "e50dec6777c3f7efb742a92b1173b0b57289710c174bac7bc411696fbb5b8b16",
    ),
    "p000020": (
        "unknown", "4d9e27d120f18e0859f26ce50d6669fa1cfba1e7a1ca4f9197bb998a54ef8a29",
        "unverified", "8f79bd574243d74debaf6fa4dba0bc9745ae5a9c39782117c86d954d3d4001ca",
        "upper-bound", True, "0c0f981afe425ed3958d7a12113acc77d74741db7ad51ffd7595228240dd30cb",
    ),
    "p000021": (
        "unknown", "59512077d0d7473c3c937e0ea8dd819a9403e41d78412f498657814ca85e42ba",
        "unverified", "60741ed72e9c44bcf5a265b694b3618d0e726482efbc7b5eecd4043988085fe2",
        "upper-bound", False, "b95c27267d072d3130ffa351945206c53ccad6137d7fd228e39036c435136c6f",
    ),
    "p000022": (
        "safe", "bd47904fdfaef1137af24b3e3ec33ac5f36e2c6df4136150146153632055ef06",
        "unverified", "8e73cf434c46a146239edf8eeaf74a59f317ba2b6feefd23a1f73160c4472e21",
        "exact", True, "e5b3885a38c750425cf814a2ec29b76d4495bd6f33de97e4a586b6480e039333",
    ),
    "p000023": (
        "attack", "727ac0b72ef58c6b1fb2d8289cb05a86ce3d27d9e0e7cc98f55547c2c625d80b",
        "exhausted", "0e5e4a1ecea276762c10240093564720da8a289ebae109bb19d91869ee1f413d",
        "upper-bound", False, "8c5ed11c79a310c1749151a5163cba08e1b28f29121b40b9e4cfa1dca386ecd3",
    ),
}

PROGRAMS = {program.name: program for program in stream_programs()}


def test_golden_covers_the_first_programs():
    assert sorted(GOLDEN) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_digests_are_pinned(name):
    assert outcomes(PROGRAMS[name]) == GOLDEN[name]


if __name__ == "__main__":
    for program in stream_programs():
        print("    %r: %r," % (program.name, outcomes(program)))
