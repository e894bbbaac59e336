"""SHA-256 pins of ``cone --which mg1 ... --rep hrep`` as the CLI prints it.

The CLI builds the transported family with `bridge.mg1_inequality_family`,
the one path the `FAMILY_HREP_SHA256` pins in ``test_bridge.py`` read too.
These pins hold its bytes for every candidate the ``paper`` benchmark
workload can draw: n = 8..13 with g = n+1..n+3 on ``mg`` and g = n..n+2 on
``mg1``.  The digests were recorded before the witnesses moved to ints.
"""

import hashlib

import pytest

from modulicones import cli

PINS = {
    (9, 8, 'mg'): "0d6d24ee09f7bbb39f430aa4a5af77f04f3a2227ecf0914b8d37271440c5e954",
    (10, 8, 'mg'): "37afefca4a20b9849d388dea6c9d9691c7fcad2031094629074d1c2467e0307d",
    (11, 8, 'mg'): "afe08f583b7bc5174bb0e3f1af374e0f485673b98ebd8bc9b58f72f779dce8cd",
    (8, 8, 'mg1'): "adcb5b49a809d1093ec5f366f9ef54d6fc21368761dd0437ae31039bd593ccde",
    (9, 8, 'mg1'): "f0c406e3c11cb8c25ae65813df62044c6163ff81d696ce2fcf960dcff8effd4d",
    (10, 8, 'mg1'): "3f51c827b15bee94d2e8a2925bf4753cc7710bad4ac6db9145828f6b70e3e6df",
    (10, 9, 'mg'): "141a263dc33a7d69d4adb7c59fe10d98fcf4bb239474ec8cd6ef23425482fc82",
    (11, 9, 'mg'): "286ba40f3582af2015ab37611da5c48a05fb10a1f344e5d565027d129b4a9d9b",
    (12, 9, 'mg'): "e092ba4741ac4fcead8e85f43b65abd0a3042ce6e22ebb6794d006677278ebaa",
    (9, 9, 'mg1'): "bbfc77aee70d17ee66f7dc15e2e4050620583aa765f8f536ad5b8a84ed7f22d1",
    (10, 9, 'mg1'): "93606a4becb06e3700484e362a04b57e1e5e0ce84730be9ed7689e4d7084463a",
    (11, 9, 'mg1'): "88d2bb9b9bf99d29d7eb8993cf783bec8babeff21e501b6c74c319ffab88bcd9",
    (11, 10, 'mg'): "c5a4ae31b7e1365583acd3310a9d15163cea2c943cf1a619e3a1d398f9f65f78",
    (12, 10, 'mg'): "5186ceb137d64703765007dd823c3580a25b2ca8cb657922643a1c1bd33192c7",
    (13, 10, 'mg'): "871b62bb22989c2c39c9c2f7ae1e32b840742da4316eded27d0eab468d1ebd88",
    (10, 10, 'mg1'): "dc644676211bcff8c7873a4696dd6a00fde774ebcde21a16cdc224a3dabdf0ef",
    (11, 10, 'mg1'): "04dd05a76124d987b54ef769ab7f61bf20bdd04f1c19e30f0fb9011004611c05",
    (12, 10, 'mg1'): "c086e81e3b7a8ce2ec149bfc701e05ecd8499755b565555a3148aa3270548430",
    (12, 11, 'mg'): "6b6940090c2a5790cb1895e2fe1041143d86485e1f63e08b7e0cf89966ab7c70",
    (13, 11, 'mg'): "6aefddeaa0356a442fd883515b62d80fc0a31f8a0242bc7e570ac8ea43b27375",
    (14, 11, 'mg'): "41705f4aca04d31a997d9f7769bff6b5ffc942004ea726bb74a2c5a46eacbfa4",
    (11, 11, 'mg1'): "66eb1c024b0a60bb77ec4c400210620b94a320d4536c19aa083434da897bb0b7",
    (12, 11, 'mg1'): "be0cd69347fad61b2adaf913544e4a9a861625ec5b52afac19048441d7874f7f",
    (13, 11, 'mg1'): "0da5c652c32b352efe5bce1a5a77ee9e027064d7e2313ee5779af2dcced52848",
    (13, 12, 'mg'): "ea8ddb3aa4205addd1b58d773221b272d321061399cd387b9921b08453b29e79",
    (14, 12, 'mg'): "9527650095070892547e787a11770ac2e563f7b77b03c9ae6b92d9a36b068512",
    (15, 12, 'mg'): "5da5fbd3bc566b2b184a62c011be51dd67da3d07803845a353fc23b8a0217c0a",
    (12, 12, 'mg1'): "400396fbe1bbd04401eea26da7739558a8376ce147e5d76d6e10afbec6d17f37",
    (13, 12, 'mg1'): "0288715ef1c8bd698a230fc9df500ea11560e2185a2051fc0ea99eb909431c92",
    (14, 12, 'mg1'): "893f66c01d7954712296d029940715cbd4033d7a746564ecd73fe2eab4481a3a",
    (14, 13, 'mg'): "2f1f16d91b6d426b0410c4cba80bc3ed7a3227e8f4036886b6790212e165ef67",
    (15, 13, 'mg'): "3420895a7319b7c28587678880b66c207e4d644aedbe7891f79b2e7677e73e5d",
    (16, 13, 'mg'): "a3f25f43151e2648910b5561d41aaa4c0f92e627251836cd60c5e547544f5c59",
    (13, 13, 'mg1'): "432c07843685cf807aa72fe256a9848da88d7090b35c7b8fd6b33354072c87bc",
    (14, 13, 'mg1'): "470e162304e51c0084e27a951259fc4ca7ca9a4e5f1d8679a4c1564ee441f8be",
    (15, 13, 'mg1'): "34b6aa7277315865bcbd945c443a0e0183ea347d1ad184a34a1bc2320a7d6ba2",
}


@pytest.mark.parametrize("key", sorted(PINS))
def test_mg1_cone_hrep_stdout_is_pinned(key, capsys):
    g, n, target = key
    argv = ["cone", "--which", "mg1", "--g", str(g), "--n", str(n), "--target", target, "--rep", "hrep"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINS[key]
