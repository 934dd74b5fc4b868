"""Golden CLI output: sha256 of stdout, exit code and exact stderr per call.

Every subcommand runs in process on all six fixtures, plus a few scaled
builders, ``zoo list`` and two out-of-space atom errors.  The table below
was recorded once; a change that moves any byte of any of these outputs
fails here, so refactors can prove they kept the CLI byte-identical.  A
deliberate output change must be named in CHANGES.md along with the new
hashes.
"""

import hashlib

import pytest

from nsdyn import cli

FIXTURES = ("E2", "C4", "TR1", "ST2", "OD3", "MIX")
FIXTURE_DIM = {"ST2": 2}


def _fixture_args(command: str, name: str) -> tuple:
    t = ",".join(["1"] * FIXTURE_DIM.get(name, 1))
    return {
        "stat": ("--g", "exhaustion:1", "--n", "2,4,8"),
        "verdict": ("--g", "exhaustion:1", "--n", "4,8,16,32"),
        "cocycle-check": ("--radius", "2"),
        "duality-check": ("--t", t, "--g", "exhaustion:1",
                          "--A", "exhaustion:1"),
        "maharam-verify": ("--m", "1,2", "--n", "2,4"),
        "hopf": ("--radius", "3"),
        "krengel": ("--region", "exhaustion:1", "--radius", "3"),
    }[command]


COMMANDS = ("stat", "verdict", "cocycle-check", "duality-check",
            "maharam-verify", "hopf", "krengel")

CASES = {
    f"{command} fixture:{name}":
        (command, "--action", f"fixture:{name}") + _fixture_args(command, name)
    for command in COMMANDS for name in FIXTURES
}
CASES.update({
    "stat zoo:cyclic N=3x5": (
        "stat", "--action", "zoo:cyclic", "--params", "N=3x5",
        "--g", "ones", "--n", "2,4"),
    "cocycle-check zoo:cyclic N=2x3x2": (
        "cocycle-check", "--action", "zoo:cyclic", "--params", "N=2x3x2",
        "--radius", "1"),
    "stat zoo:odometer K=3,p=0.3,d=3": (
        "stat", "--action", "zoo:odometer", "--params", "K=3,p=0.3,d=3",
        "--g", "ones", "--n", "2,3"),
    "hopf zoo:translation d=3": (
        "hopf", "--action", "zoo:translation", "--params", "d=3",
        "--radius", "2"),
    "krengel zoo:translation tau=1x2,d=1": (
        "krengel", "--action", "zoo:translation", "--params", "tau=1x2,d=1",
        "--region", "exhaustion:1", "--radius", "2"),
    "hopf zoo:stabilizer d=3,active=0x2": (
        "hopf", "--action", "zoo:stabilizer", "--params", "d=3,active=0x2",
        "--radius", "2"),
    "zoo list": ("zoo", "list"),
    "stat zoo:translation d=2 out-of-space atom": (
        "stat", "--action", "zoo:translation", "--params", "d=2",
        "--g", "atom:[0,0,0]", "--n", "2"),
    "stat zoo:odometer d=2 out-of-space atom": (
        "stat", "--action", "zoo:odometer", "--params", "K=2,p=0.5,d=2",
        "--g", 'atom:["00","0"]', "--n", "2"),
})

# case -> (sha256 of stdout, exit code, stderr)
GOLDEN = {
    'cocycle-check fixture:C4': (
        '31560531f0a75eb1d66fcb14feb4246d51d6a64b8d76160f769ab21659f30155',
        0, ''),
    'cocycle-check fixture:E2': (
        '27fa0f89ea7d2adca01492c6f0c8081882c57f4a5b61ac97fdd444d6be69355e',
        0, ''),
    'cocycle-check fixture:MIX': (
        '6071df27a29d0b6cfd663d390ff0f45ccdd910bb292706b1e3c6f5b6cff21904',
        0, ''),
    'cocycle-check fixture:OD3': (
        '1af00c728b907a213c0fbe51b86753f04ba28b11cceb3a71b24211bf54c7cb0b',
        0, ''),
    'cocycle-check fixture:ST2': (
        'e879f793b8dd1cad876a1ad2d6a42e0fff576f09cbab47d3a3c9f3e5617251e6',
        0, ''),
    'cocycle-check fixture:TR1': (
        'b03d4c71af00696322910b6d0de4d71231e1696d4207b5e23e0780aaec7a0bca',
        0, ''),
    'cocycle-check zoo:cyclic N=2x3x2': (
        'f8fd0438f8c139be9098179ccabf892c401ed959f065bf96b3a8098c4fe557d1',
        0, ''),
    'duality-check fixture:C4': (
        '882f262592ff5a1b8a1d6adecb4e865cc7df6a400dfcffe24443310dd0239914',
        0, ''),
    'duality-check fixture:E2': (
        'f2c67854579cf669d35b29dea2a937fd8a05309e9778eaea26d53f4de0411ab4',
        0, ''),
    'duality-check fixture:MIX': (
        '90605a66f70ba3f36be2e301f88c23bc50b7346f4a2a9ae59f617fed956a68cd',
        0, ''),
    'duality-check fixture:OD3': (
        '61c9d2dc03872c9a99627fffad37bdb8366d120c45b22cd7f63f39e70f874405',
        0, ''),
    'duality-check fixture:ST2': (
        '62fbd199c547100fb742fb4a6cf36e6bbcf5e9f390cd2e27c9245d5c4b2364ad',
        0, ''),
    'duality-check fixture:TR1': (
        '01018a2325ea03805686d2d3e24341081728c31a62639fe699449d8bb2aee19e',
        0, ''),
    'hopf fixture:C4': (
        '47f061848c8a39eeed12cc057704029ca39c1a0bddb93a1426c156e9c7a76ff4',
        0, ''),
    'hopf fixture:E2': (
        'a5920674265c969a2906afeee3fa535c93db72f770aaf58b0afaaf7e48280af4',
        0, ''),
    'hopf fixture:MIX': (
        'a4eaa1692f3f35123a6591de836ec5a40d2ae59a7025ba2956a314af8a283c73',
        0, ''),
    'hopf fixture:OD3': (
        '85afd2703d63742ae837e2bad9dbbf6bc28c6b4f61a6bbf2a07be45deaa4c8b5',
        0, ''),
    'hopf fixture:ST2': (
        'b6604e6541489f8f0c6b82ef86f9f7debcb772950831a29b5f14aded47e9da4c',
        0, ''),
    'hopf fixture:TR1': (
        'bb85237ab39bbb5f13847b4b1d1850121c9c3762e2eaeab0d24c3946c4f19a82',
        0, ''),
    'hopf zoo:stabilizer d=3,active=0x2': (
        'cd40720e7141059b1089b35ebda54fe279ad9e9ea00a9eebb180b854ba14690c',
        0, ''),
    'hopf zoo:translation d=3': (
        'f58e50b1ff5684ea214e8ed7da1836673cd53de32f9b8afbfc8024d58555cd58',
        0, ''),
    'krengel fixture:C4': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        2, ('error: region atom 0 is labeled undetermined; the normal '
         'form only exists over dissipative atoms\n')),
    'krengel fixture:E2': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        2, ('error: region atom 0 is labeled conservative; the normal '
         'form only exists over dissipative atoms\n')),
    'krengel fixture:MIX': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        2, ('error: region atom (0, 0) is labeled undetermined; the '
         'normal form only exists over dissipative atoms\n')),
    'krengel fixture:OD3': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        2, ("error: region atom '000' is labeled undetermined; the "
         'normal form only exists over dissipative atoms\n')),
    'krengel fixture:ST2': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        2, ('error: region atom -1 is labeled conservative; the normal '
         'form only exists over dissipative atoms\n')),
    'krengel fixture:TR1': (
        '28c99d99e8353bc47d3a0b4662a9b18f172ea317676a768ede27c61db6b4c37c',
        0, ''),
    'krengel zoo:translation tau=1x2,d=1': (
        'fbd2d6c0772c181bbcf5f6f80189d0b2802adcc45b8da754b2ffe46f31b0fe34',
        0, ''),
    'maharam-verify fixture:C4': (
        'd53642e231ff075d85238c723415e411afba191bedbf2629941d2170893f9386',
        0, ''),
    'maharam-verify fixture:E2': (
        '8830d090c91f557b9cee9abc3c1e93f31bbed597002c869191cd6627f4fab1e6',
        0, ''),
    'maharam-verify fixture:MIX': (
        '4e90ff09340e4c45f2fca688369611c79b26f06a1f4a3d97a33f28dc020dd106',
        0, ''),
    'maharam-verify fixture:OD3': (
        'b92aa942e78410963c6288d13fc5a7b8f266246171d39d216177f6be3898ee07',
        0, ''),
    'maharam-verify fixture:ST2': (
        '9f5c432c95a8acc5b6140643e9b2602b7cda66fc9b796f8c61895977e54b31d6',
        0, ''),
    'maharam-verify fixture:TR1': (
        'b2be95fc4c9ab3dcde7028ab3eb3c58227e1cdc42c35c6f998df44d65641d20f',
        0, ''),
    'stat fixture:C4': (
        '041a36dfeca1b88d19f51274cd38bf09f96b86271a9d6e1229d1cdbdb888af94',
        0, ''),
    'stat fixture:E2': (
        '985af86f909725dcbb9eec681113126178c33b0fb4405e63e47ac6c83fb48b6f',
        0, ''),
    'stat fixture:MIX': (
        '7d27bb5d87b8f8a76ebe2be7ea9e034b2cdd0c3fd4cbf3b95369a875aa2bfe21',
        0, ''),
    'stat fixture:OD3': (
        'ed8e933f5c3a3cb6e550101146e4e095ef313ca51bfda8db91d324b6d08f6d5e',
        0, ''),
    'stat fixture:ST2': (
        '33c98d6abbe8f0aa4858bfba3163be9e2e480c1aa1483f164f7d8fae5bea8ba3',
        0, ''),
    'stat fixture:TR1': (
        '4cc712b95f81a4d176eb20f1f3698dc5d09a343e048d5ccf8647edfadb7667c6',
        0, ''),
    'stat zoo:cyclic N=3x5': (
        'b1bc2d2d12c6d980fdfcccc152a1fb238778f75fae86257248c2ba59b398ea65',
        0, ''),
    'stat zoo:odometer K=3,p=0.3,d=3': (
        'd29f49f8aea7320b14569eef620be28f01331da1393c256b649d2145b1684bda',
        0, ''),
    'stat zoo:odometer d=2 out-of-space atom': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        2, ("error: function references atom ('00', '0') outside space "
         "'odometer(K=2, p=0.5, d=2)-space'\n")),
    'stat zoo:translation d=2 out-of-space atom': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        2, ('error: function references atom (0, 0, 0) outside space '
         "'translation(d=2)-space'\n")),
    'verdict fixture:C4': (
        '9269b551935b6d78482cb832b784a8e55a4f9d9c2dbe18580b4dc0b65500544b',
        0, ''),
    'verdict fixture:E2': (
        '764712f0f591415dd32322560a49f9bef96c8b037addf72a654ad54064a2f925',
        0, ''),
    'verdict fixture:MIX': (
        'fb8b04919ba435fd20eb264fa15af7da46d4f1803602277dd568b2bf56c51c29',
        0, ''),
    'verdict fixture:OD3': (
        '6f6fb6f4583db898b075f9b91add82a09eb95e9207fbf54db4a5d4cbbe634b8f',
        0, ''),
    'verdict fixture:ST2': (
        'aa5d8cfe41a8772033c2c5b68a88f9bf3c1bb02b354f8e7c8b5c16a10ba6de12',
        0, ''),
    'verdict fixture:TR1': (
        '85e6505ef838fdd366ba5bf9033086707b8f625ec0570c18cab3769782b5cf9d',
        0, ''),
    'zoo list': (
        'eb045f6e045116aed0d1818657a39c87c6a44a16f2d2f4da7e326683fac0a344',
        0, ''),
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes(case, capsys):
    code = cli.main(list(CASES[case]))
    out, err = capsys.readouterr()
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (digest, code, err) == GOLDEN[case]
