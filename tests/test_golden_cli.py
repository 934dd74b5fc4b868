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
        'dfc619181fca53dd3ec52872a3a2276cef13db37ee94376f4f10da2d0ef5aea7',
        0, ''),
    'cocycle-check fixture:E2': (
        '45257cdfa6609f51f3fc9398915decc9352bcd8d9c186612c7041d68ad4360d0',
        0, ''),
    'cocycle-check fixture:MIX': (
        '592eeaa3698a7c85adbfc47c9266ca046752417c4d2a2dfa48ebaf73406d36c1',
        0, ''),
    'cocycle-check fixture:OD3': (
        '4f9d9130c2c199b84a8c1cb7312f086867d95e00d683cc25a6e63796bc27b638',
        0, ''),
    'cocycle-check fixture:ST2': (
        '7a556ce14cfeebcdaaad3a5110bcd94ff11c0be052aa48306610195941a0ee49',
        0, ''),
    'cocycle-check fixture:TR1': (
        '8a2ecc45c19d91401903be4f6f93919a36f1a4a7a0d1b8fd0d82959374fd5fc9',
        0, ''),
    'cocycle-check zoo:cyclic N=2x3x2': (
        '06a9f1b97e12e22ba811e8dc36aa8dab5e8a3da701fd527c2053091b762a92a2',
        0, ''),
    'duality-check fixture:C4': (
        '14f263bf4dede630bcd47cc70ac274dbb8d94ef8d95a9a41592697019f77f3f9',
        0, ''),
    'duality-check fixture:E2': (
        'ac22add4bba2c1fbdec71dee8a8677948804b939fdbf8f15a66fe1255fbc9731',
        0, ''),
    'duality-check fixture:MIX': (
        'c40116158a0ea75b68dd20703c8b51df45c9d8eba577ff6d4b7183bd8d9b99f9',
        0, ''),
    'duality-check fixture:OD3': (
        '39e5aa4c15e3f357090ff9a5d2b236c1cfa0094858658fa21a3c6033790400f0',
        0, ''),
    'duality-check fixture:ST2': (
        '1ea509dd8c63c3b3fcf361fccd59e3bd953effac7eb9d3cf463acfffc9e56e01',
        0, ''),
    'duality-check fixture:TR1': (
        '218fb79f5fc76722dd0e0bef18918d0dfae73c11761e543b60ccdc7c292be15f',
        0, ''),
    'hopf fixture:C4': (
        '8c6c82bfb8e0d212ab1469bd165749c28e058af972e4115054ac878a72f87aa8',
        0, ''),
    'hopf fixture:E2': (
        '81ef723e28348013605cf5c80a9f5f737925b5fc3bffafd760db028359f1dec6',
        0, ''),
    'hopf fixture:MIX': (
        '329a0885594e538a146d497d6fc7fc98bd3bf098429bcd5d374368a4bdac8bd9',
        0, ''),
    'hopf fixture:OD3': (
        '0b92e3324a506889b736b8ddc656b49d7ac1123d8df02de377c42c998c4396ed',
        0, ''),
    'hopf fixture:ST2': (
        'e216344c3958d9f2090b5de98025f36fe3a492449812e5ba3069fd1c72ad2058',
        0, ''),
    'hopf fixture:TR1': (
        '2e70e2256c5c401094ae4cafcee12c2db379c8a4c7b772500429870f083a7d1b',
        0, ''),
    'hopf zoo:stabilizer d=3,active=0x2': (
        '46b47f740f3286a2262f38ca5d186bdff47ebe9f6bdf4df327afaad184505086',
        0, ''),
    'hopf zoo:translation d=3': (
        'c4254d010e4553fcdf719f03400b705f43e4e2c2f0cc67b2aea734a369590fe7',
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
        'e3eed5fee94ecbfdafb9b46490fc1fe11d0c981ad2bd01b32e958db8927017cd',
        0, ''),
    'krengel zoo:translation tau=1x2,d=1': (
        '3a515266bf47c910998283012fbd4a787f71dc1faff7b93ff1c5963a1e8d9f53',
        0, ''),
    'maharam-verify fixture:C4': (
        '61a77d4681c74528159fd24bfe19f259093bf6301db2aebd2a342ebcde3ca5d2',
        0, ''),
    'maharam-verify fixture:E2': (
        '8a534a27a93f6888179180c0ac37b4b940e236d68fbdc5b65f520885ff1eb387',
        0, ''),
    'maharam-verify fixture:MIX': (
        '3ac44b2c949dc59b579fffa15dc09a6c5d9576e51457914301d25fd1ca1b2851',
        0, ''),
    'maharam-verify fixture:OD3': (
        '5281404efa0aa4cf264ddcefc069fd239dda3f6d24f2776df55f25bf74475ca8',
        0, ''),
    'maharam-verify fixture:ST2': (
        '95d151707d8c0037180303d743b89a62e0116476b7f404ac50a123ae30e13e04',
        0, ''),
    'maharam-verify fixture:TR1': (
        '392fa740ad2ddd0c2b555d6642955f30796961950e08992e436da8c6d42a0db1',
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
        '5a81ca5a1e0db62618460db31190336ebe48e196ea9f1848611f42bd01b55b93',
        0, ''),
    'verdict fixture:E2': (
        '49b26dd6e92217e20489d758eb920534063d9e5503638f67c3509df60570a016',
        0, ''),
    'verdict fixture:MIX': (
        '6e282868b22bcfa4b3e76d36b4ca2ae5cfc92a42f2ffae9ed18f1374c874ed68',
        0, ''),
    'verdict fixture:OD3': (
        '6c085159f29a5e6665850ba0132f656778ea6ade7d00cae5062fd3af32f8aa22',
        0, ''),
    'verdict fixture:ST2': (
        '4b4c1d95f8b53571690c45346986bed05146d491ae2e6d248a58805aaa4366d2',
        0, ''),
    'verdict fixture:TR1': (
        'f04fa8958d9b927fdc42f4972000b9df99d99b4ee3d8534e9ccf47bdcde65d66',
        0, ''),
    'zoo list': (
        'fac81ef429aae996a92868d3e5cdf697b8f66dc19a078a8b5cc6a286a007df05',
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
