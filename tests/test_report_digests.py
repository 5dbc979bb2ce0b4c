"""Byte identity of classify reports, verify-theorem output, DOT export
and check-presentation output.

The SHA-256 digests below pin the exact bytes of a corpus of reports and
of ``export-dot`` and ``check-presentation`` runs, so a change to how
classes are found, how graphs are held or how an order is enumerated
cannot change what is printed.  To re-record them after an intended
change of output, run this file as a script
(``PYTHONPATH=src:tests python tests/test_report_digests.py``) and paste
what it prints.
"""
import contextlib
import hashlib
import io
import math

import pytest

import cayleyclass as cc
from cayleyclass import cli
from cayleyclass.dicyclic_theory import applicable_variants
from conftest import builtin_groups, coxeter_sn

SETTINGS = [(length, mode, minimal_only)
            for length in (1, 2)
            for mode in ("directed", "undirected")
            for minimal_only in (False, True)]

LENGTH_THREE = [
    ("dicyclic:30", 3, "directed", True),
    ("dicyclic:45", 3, "directed", True),
    ("perm:5:(1,2);(1,2,3,4,5)", 3, "directed", False),
]

# reports that walk deep into the stabilizer tree: Q8 x Q8 needs four
# generators, so at length 3 every leaf is walked and none qualifies
DEEP_TREE = [
    ("product:dicyclic:2,dicyclic:2", 4, "directed", True),
    ("product:dicyclic:2,dicyclic:2", 3, "directed", False),
    ("perm:4:(1,2);(1,2,3,4)", 3, "undirected", True),
    ("dihedral:10", 3, "undirected", False),
]

# undirected reports whose classes only the pairwise undirected search
# can join: (descriptor, length, minimal_only, class count, total)
UNDIRECTED_SEARCH = [
    ("perm:5:(1,2);(1,2,3,4,5)", 2, False, 20, 6840),
    ("perm:5:(1,2);(1,2,3,4,5)", 2, True, 20, 6840),
    ("dicyclic:20", 3, True, 8, 30720),
    ("dicyclic:24", 3, True, 12, 73728),
]


# (group, sequence) pairs for export-dot, each run directed and undirected:
# labels of order > 2, order-2 labels, a loop, and a permutation group
DOT_CASES = [
    ("dicyclic:3", "a*x,x"),
    ("dihedral:4", "x,a*x"),
    ("cyclic:1", "e"),
    ("perm:4:(1,2);(1,2,3,4)", "(1,2),(1,2,3,4)"),
]
DOT_RUNS = [(group, seq, flags) for group, seq in DOT_CASES for flags in ((), ("--undirected",))]

# CLI runs over the text the parsers read: perm descriptors with spaces
# around and inside their generators, products with renamed generators,
# cycle sequences with spaces, and a presentation
PARSE_RUNS = [
    *(("info", "--group", descriptor, "--format", "json") for descriptor in (
        "perm:5:(1,2) ;(1,2,3,4,5)",
        "perm:4: (1,2);(1,2,3,4)",
        "product:perm:3:(1,2) ,cyclic:2",
        "perm:4:(1, 2);( 1,2,3,4 )",
        "perm:4:(1,2)(3,4);(1,2,3,4)",
        "product:perm:3:(1,2,3);(1,2),cyclic:2",
    )),
    ("info", "--group", "product:dicyclic:2,dicyclic:2"),
    ("export-dot", "--group", "product:dicyclic:2,dicyclic:2", "--seq", "g1*g3,g2"),
    ("export-dot", "--group", "perm:4:(1,2);(1,2,3,4)", "--seq", "(1,2),(1, 2,3,4)",
     "--undirected"),
    ("check-presentation", "<u,v | u^2=v^2, u^4, u^2*(u^3*v)^3>", "--expect", "12"),
]

# Todd-Coxeter through the CLI: the benchmark's three presentations, S6
# under a small coset cap, an order that fails, an enumeration that
# exceeds its cap, and every morphism check the benchmark runs
PRESENTATION_RUNS = [
    ("check-presentation", coxeter_sn(8), "--expect", "40320"),
    ("check-presentation", "<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>", "--expect", "1024"),
    ("check-presentation", "<a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4>", "--expect", "168"),
    ("check-presentation", coxeter_sn(6), "--max-cosets", "1000", "--expect", "720"),
    ("check-presentation", "<g|g^5>", "--expect", "6"),
    ("check-presentation", "<u,v|>", "--max-cosets", "50"),
    *(("check-morphisms", "--n", str(n), "--variant", "n" if v == n else str(v))
      for n in range(3, 13) for v in applicable_variants(n)),
]

# orders that check-presentation proves by Schreier-Sims over all
# generators but the last (the Coxeter presentations) or finds over the
# trivial subgroup (PSL(2,7), a^512, g^5 and the free group above, and
# the README example): the Coxeter presentations of S4-S7 with no cap,
# and the README example as the README spells it
ORDER_RUNS = [
    *(("check-presentation", coxeter_sn(n), "--expect", str(math.factorial(n)))
      for n in range(4, 8)),
    ("check-presentation", "<u,v|u^2=v^2,u^4,u^2*(u^3*v)^3>", "--expect", "12"),
]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def builtin_reports(group):
    """The reports of one group at lengths 1-2, both modes and minimal
    settings, joined."""
    return "".join(cc.classify(group, length, mode, minimal_only).to_json()
                   for length, mode, minimal_only in SETTINGS)


def verify_theorem_output():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-theorem", "--n-range", "2..12", "--format", "json"])
    return f"exit {code}\n" + out.getvalue()


def cli_output(*argv):
    """Exit code, stdout and stderr of one CLI run, joined."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"exit {code}\n" + out.getvalue() + "\n--- stderr\n" + err.getvalue()


def export_dot_output(group, seq, flags):
    return cli_output("export-dot", "--group", group, "--seq", seq, *flags)


def dot_key(group, seq, flags):
    return " ".join(("export-dot", group, seq, *flags))


def current_digests():
    found = {g.descriptor: digest(builtin_reports(g)) for g in builtin_groups(24)}
    for descriptor, length, mode, minimal_only in LENGTH_THREE + DEEP_TREE:
        report = cc.classify(cc.from_descriptor(descriptor), length, mode, minimal_only)
        found[f"{descriptor} {length} {mode} {minimal_only}"] = digest(report.to_json())
    for descriptor, length, minimal_only, _, _ in UNDIRECTED_SEARCH:
        report = cc.classify(cc.from_descriptor(descriptor), length, "undirected", minimal_only)
        found[f"{descriptor} {length} undirected {minimal_only}"] = digest(report.to_json())
    found["verify-theorem 2..12 json"] = digest(verify_theorem_output())
    for run in DOT_RUNS:
        found[dot_key(*run)] = digest(export_dot_output(*run))
    for argv in PARSE_RUNS + PRESENTATION_RUNS + ORDER_RUNS:
        found[" ".join(argv)] = digest(cli_output(*argv))
    return found


# recorded from the code before the tree walk started at the first k-set
DIGESTS = {
    'cyclic:1': '1cbe6c5d7ee8385dd53a5fbc33a55e453258664fafc5b7f86f28cce78b6194b9',
    'cyclic:2': '0d1d9ebd69e3b0e5bac827fe05e1e0165c86c7bdc0af808e5dfba669e0b5b156',
    'cyclic:3': '6b0a52b4bad7ae48f0e684668b6aabaf6e629554f474056e7557131683d7921d',
    'cyclic:4': 'a795422177ebfe91b768e652a29bc57c1d5a7eacbf035e14e04c4e6a52b5de6a',
    'cyclic:5': '81a6d8855f98b2c41d51adbf7afee5b1ed7cfe7b01de206205a1b07d2789f931',
    'cyclic:6': '3f4fc624fc9752d441a81b7513a6de23dc3398989a5c2b224544984b66fe80c1',
    'cyclic:7': '5dec88dce2185cb9e4a0ccdb59e3573b7d29b8b233a54bb4fca7362592b4d1de',
    'cyclic:8': 'cb587314bf0d4d7de9d1058ad91de74f4076dfe870baad8a0088d67d3f9c2d49',
    'cyclic:9': '44994a00ad9faf8b808db98831f83c4b261266de6ff65ef7e3b16a37d3dfc80c',
    'cyclic:10': '4459fbd29fb14fcf96910e98727eea35206c6c7c372130ab4f4467aac5f6119b',
    'cyclic:11': '37db6e470a7da6325a015b938f7aba4d79304f3a5be236d058036bdbdcaf3547',
    'cyclic:12': '0cdb17859af434fa76b0738d8bb73ded34c4f503ec3d646c7e1b6906829d72a9',
    'cyclic:13': '33db803d09b494438edcc1c7485834287f85278ae7f1d19920bc5e3376afbe78',
    'cyclic:14': '095a7cafdb1e608af7fb37888f85162e623db85266765254ed0c4c19d8148331',
    'cyclic:15': '9f4bd3a159bc980f047c15614fcbd0c1a003b2e47e739e71360b129e0dd56200',
    'cyclic:16': 'face51f28eb068b145cdbe3c2f3a2a0607776d1088dc37491d06adffdd7fef09',
    'cyclic:17': '78a8e562f9f1a344785f51033bef89ab998eefd48c3f7c3a27efd7798d989829',
    'cyclic:18': '89838520d0ea5ef8cf9a25edae0e0aeb1281aced5e1ab8560412303fe2dd3f13',
    'cyclic:19': '0ae1b86c2b0d24467cc0219ad70e92713311677989152565e837dbabfc3b0a70',
    'cyclic:20': '63c4ae1234877f0d06f407e2bc9c1691634ed6cfa899ca4b0808c0c71590bd6e',
    'cyclic:21': '815dbbcf168f515f92bdbcebef6f11c2db1562dcf4b5c3a49f21b39e67ab08cd',
    'cyclic:22': '40950322f3f9de6bb05fff1e33e4c8c319dd4daa65699298fe133b427ad38376',
    'cyclic:23': 'fe5741bd041e4cc4f5d1b4d9880ff10bb67b8896cc2c32e672faac4ebc95c88a',
    'cyclic:24': 'c1835fff2a18b559c920a7f352cea52d4107d972d466bfb534af3df5a8c864a8',
    'dihedral:3': 'dd7907a9d89c3a7e50af60c5bd38478c4ccd8525dc0db0775eaedd97b4fa4be3',
    'dihedral:4': '8159d96d8abbf2539b100390919ee8c12c8e1c0bc52401a85fafd033117f980a',
    'dihedral:5': 'e7dd698852f2f002ceafd355b36309894db747f949c310ed860f4be3b2049fd7',
    'dihedral:6': '6a2033f84bd32d0ac60a5d07f19231eb96d80e1ac0658a9ea31cfb9495190fde',
    'dihedral:7': 'de7af11b9da8468828bd561be3ad0624300bbf5f7126b442c0f0242d5312872e',
    'dihedral:8': '5b21a74b06cee3df7d630287b63e50c1f0126b18771ab64cbfe455605cf3b51d',
    'dihedral:9': '2f62cf34a97b4bfa6874a31d8b9eb2669b33a376274a9f7caa00b8c42fb10dc5',
    'dihedral:10': 'b0b93833136f2eec250605c2f65b0dab7c4ff2434ff88c6d874a668af46b3c57',
    'dihedral:11': '4671fba3201b694e6a2288491337e6f75e765e8c44542d1158589af63b9e454f',
    'dihedral:12': '9dfd208782a2ed45300b05938b2fd086230c59284b09605591a6b3557c809529',
    'dicyclic:2': '9712a18e9b168dc3b8e8dda34c36c14798feca6a02e5d5277fab0c9464c69a61',
    'dicyclic:3': '5d6ba24dd8e766e848b16e56a9d069d078bb86085863ae525697a3e0d4911507',
    'dicyclic:4': 'cfa61bf871c82a071de9d3ec8d0dcba8c4411f57a568e2900bce58601c6e913b',
    'dicyclic:5': '69228aba4027a8261ea323c4e04b09a4a9c4231478846722c0105267e1cf3764',
    'dicyclic:6': 'ceaf85e5ccf5c4604d9c1518663277117df76dc9e075c7953ee6219a4b1f7cc4',
    'product:cyclic:2,cyclic:2': 'e4c6040c8b753c847d42086259997160643bfad94e44f2763d02b4e21c8b2cc7',
    'product:cyclic:4,cyclic:2': '0811ce79a4dcf65fc0ac6d1b3aaab28fe0b7a82fe9a886b091657c49589cd7e9',
    'product:cyclic:2,product:cyclic:2,cyclic:2': 'dbfbf990c85c9123f3720007bb814cca87943e75c73b4896420aad82137bce56',
    'product:cyclic:3,product:cyclic:2,cyclic:2': '51315b02dbfe59cf9e1d7ee7a0cd3018a2808d4fd60202ca3009d41968e22622',
    'perm:3:(1,2,3);(1,2)': 'bc81b00b8f2feaec03a100b7b2fbc1335032b18eb5ee36039b87fdb8abc87da1',
    'perm:4:(1,2,3);(2,4,3)': '59c0215018049ec2333d7c944f81f30faa6278e9bf6c8c6d7d5ae2daf19e9eb0',
    'perm:4:(1,2);(1,2,3,4)': '80ef5b6581bea4cb684292d9b5a822cc9cbc3cf01edd0fbd49531fbe23a25204',
    'dicyclic:30 3 directed True': '122f2210a57bf941c9f18109ba1e10b90348a08fdda1a48660b015f0207b82f0',
    'dicyclic:45 3 directed True': 'ec8be5650f28199073248d7828069a244865b5a3b728f0d43577b4f2ad93bbe3',
    'perm:5:(1,2);(1,2,3,4,5) 3 directed False': 'ea9d9dedf7beb7a1f9088fba74bf1f9274fff5e26294b76f5c81d8ac270f6a07',
    # recorded from the code that held Aut(G) as a second type beside
    # its stabilizer-tree nodes
    'product:dicyclic:2,dicyclic:2 4 directed True': '1960c418d8a9123a41ca718816499d953102e3ce2fc52a2f47d8f1f2f82fc489',
    'product:dicyclic:2,dicyclic:2 3 directed False': '285e6be8f19f0433bfe21d9ed91b1bbfd7e71d02433d8152cdca91863c17faf8',
    'perm:4:(1,2);(1,2,3,4) 3 undirected True': '26e52c33174416e30fefb347c58594da258cffcdf0de8c3809ae408d83049f53',
    'dihedral:10 3 undirected False': 'd35820628340e479545b142801665a36dcaef945832fa2c99530c0930089c60b',
    # recorded from the code whose undirected search branched at the
    # first pair with neither end mapped
    'perm:5:(1,2);(1,2,3,4,5) 2 undirected False': '1617c2fb0a1fd20a18e2f91ca579f265e450d18288ee38af48e0a0cf72d08216',
    'perm:5:(1,2);(1,2,3,4,5) 2 undirected True': '232bd0d4b3b49ec80522864cc51ec5c58fba3bae937985307ae0b8907250e2e1',
    'dicyclic:20 3 undirected True': '5353fd4a5a8f4dc51979b2c188281d2311bb0a870e0f98ded1f955bd841ecc25',
    'dicyclic:24 3 undirected True': 'a2b6a618d279079c8ac45783d6499eb3aad4669d11929edd99e9f0f31a70fda2',
    'verify-theorem 2..12 json': 'd1ad8c410ed866c2da605c53dad5c324769a11c86f4e6ad9cb68e37851a45b6f',
    # recorded from the code that held undirected graphs as a second type
    'export-dot dicyclic:3 a*x,x': '8fb03e475173f961052b304978230808f0ffa391811f453441b35cc8f40681c0',
    'export-dot dicyclic:3 a*x,x --undirected': 'f44cf086393dce98658ea307f3381ae3f366a0c295cd08cc8fc726f8af9a5d73',
    'export-dot dihedral:4 x,a*x': 'b95d9854bc02fc8631545a6c78f2fc2f46759f8f8e7b0659d5a13401e25f20c6',
    'export-dot dihedral:4 x,a*x --undirected': '8a53d77c258e8281a7f9fbb6b540c7a6c9069137d4d3c6861a608d550b44d39e',
    'export-dot cyclic:1 e': '98093ea4f3b0dc4862cbd4885a194f10e34836fa056d8d280dae8e3da3b5581b',
    'export-dot cyclic:1 e --undirected': '8101c37b900dddcc6109bf00fc028988b44aa3577a569436fa47ce1c80b124e6',
    'export-dot perm:4:(1,2);(1,2,3,4) (1,2),(1,2,3,4)': '90e8f4b519b91e4756972f2a2b9ff6b7e87c1a4242961582cd59e5bce4aaf437',
    'export-dot perm:4:(1,2);(1,2,3,4) (1,2),(1,2,3,4) --undirected': '71b97e9e8e7458d79043733268ee16eae6e708f8b0fd21679bd1a3d251f27cd0',
    # recorded from the code that scanned names, integers and cycles
    # character by character
    'info --group perm:5:(1,2) ;(1,2,3,4,5) --format json': '984a9edc81a820585a6e41e318b9d4b747d6b9f9668c401647ac9ecc31b2126e',
    'info --group perm:4: (1,2);(1,2,3,4) --format json': 'aa0d86405432a61dbe2ed506b0d1df6dc643155a180becd1daab4bf9fa4da142',
    'info --group product:perm:3:(1,2) ,cyclic:2 --format json': '6bee0a614d0ca1b336d3418da7e06fbcb195e326a18382bf82d4f3f4ab751403',
    'info --group perm:4:(1, 2);( 1,2,3,4 ) --format json': 'aa0d86405432a61dbe2ed506b0d1df6dc643155a180becd1daab4bf9fa4da142',
    'info --group perm:4:(1,2)(3,4);(1,2,3,4) --format json': 'fef3c51a88f4221aa0462e47c02033744bc9678b8379c4f169d241bbd66140d4',
    'info --group product:perm:3:(1,2,3);(1,2),cyclic:2 --format json': 'b4c9e079fff582d0462b614e3b47f992d2f284546679b0167bb21d7c664cb1cc',
    'info --group product:dicyclic:2,dicyclic:2': '56d4ba57488e00edeb9f8b41383691c6f099928c9e210edc8d4688a649ef521a',
    'export-dot --group product:dicyclic:2,dicyclic:2 --seq g1*g3,g2': '5fcff2063edf18a12a89ab9156f8d14b502867bfe5477583b8f20b383f0e171b',
    'export-dot --group perm:4:(1,2);(1,2,3,4) --seq (1,2),(1, 2,3,4) --undirected': '71b97e9e8e7458d79043733268ee16eae6e708f8b0fd21679bd1a3d251f27cd0',
    'check-presentation <u,v | u^2=v^2, u^4, u^2*(u^3*v)^3> --expect 12': '85c97c1d911746cd7b59b3746369b9525229996736cee1973a0658c27f5af286',
    # recorded from the code that enumerated cosets over a list of rows
    'check-presentation <s1,s2,s3,s4,s5,s6,s7 | s1^2, s2^2, s3^2, s4^2, s5^2, s6^2, s7^2, (s1*s2)^3, (s2*s3)^3, (s3*s4)^3, (s4*s5)^3, (s5*s6)^3, (s6*s7)^3, (s1*s3)^2, (s1*s4)^2, (s1*s5)^2, (s1*s6)^2, (s1*s7)^2, (s2*s4)^2, (s2*s5)^2, (s2*s6)^2, (s2*s7)^2, (s3*s5)^2, (s3*s6)^2, (s3*s7)^2, (s4*s6)^2, (s4*s7)^2, (s5*s7)^2> --expect 40320': '0f73176f6c4c7d5c0492987e87e05579431589811a75853603dca128c9be97cd',
    'check-presentation <a,x | a^512, x^2=a^256, x^-1*a*x=a^-1> --expect 1024': 'b0cd2accc32b451925645dc7c0d3ad524aee9433f7899f1b1bc113bc7a68e856',
    'check-presentation <a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4> --expect 168': 'a34ecdc30a35958b8eb3dcdfc2845dc8605b4ffbac97ce8660b66cd81271f44b',
    'check-presentation <s1,s2,s3,s4,s5 | s1^2, s2^2, s3^2, s4^2, s5^2, (s1*s2)^3, (s2*s3)^3, (s3*s4)^3, (s4*s5)^3, (s1*s3)^2, (s1*s4)^2, (s1*s5)^2, (s2*s4)^2, (s2*s5)^2, (s3*s5)^2> --max-cosets 1000 --expect 720': '5da6ee016f5755be7d55ae3b8ffa78143e0cb848b5f24c9628ea17ac28ecc46e',
    'check-presentation <g|g^5> --expect 6': '0000f86108a2b4846b4b0c5e433c52833741da742c4ee825f000565a637ada80',
    'check-presentation <u,v|> --max-cosets 50': '77c462c8164d647ca9adc9ba484ffaba68c17260023870f64608f76311a91651',
    # recorded from the code that enumerated every order over the
    # trivial subgroup
    'check-presentation <s1,s2,s3 | s1^2, s2^2, s3^2, (s1*s2)^3, (s2*s3)^3, (s1*s3)^2> --expect 24': '5e48e22cd1ebe1f8491cdd5e0f0cbd9b3ccb9d0a1f4751036a31bf810fe19f0e',
    'check-presentation <s1,s2,s3,s4 | s1^2, s2^2, s3^2, s4^2, (s1*s2)^3, (s2*s3)^3, (s3*s4)^3, (s1*s3)^2, (s1*s4)^2, (s2*s4)^2> --expect 120': '916da2857e84a3d568081ac3043601e0d3e9de8a647f9854f17cd86908985718',
    'check-presentation <s1,s2,s3,s4,s5 | s1^2, s2^2, s3^2, s4^2, s5^2, (s1*s2)^3, (s2*s3)^3, (s3*s4)^3, (s4*s5)^3, (s1*s3)^2, (s1*s4)^2, (s1*s5)^2, (s2*s4)^2, (s2*s5)^2, (s3*s5)^2> --expect 720': '5da6ee016f5755be7d55ae3b8ffa78143e0cb848b5f24c9628ea17ac28ecc46e',
    'check-presentation <s1,s2,s3,s4,s5,s6 | s1^2, s2^2, s3^2, s4^2, s5^2, s6^2, (s1*s2)^3, (s2*s3)^3, (s3*s4)^3, (s4*s5)^3, (s5*s6)^3, (s1*s3)^2, (s1*s4)^2, (s1*s5)^2, (s1*s6)^2, (s2*s4)^2, (s2*s5)^2, (s2*s6)^2, (s3*s5)^2, (s3*s6)^2, (s4*s6)^2> --expect 5040': '7e16298300130e9256724f6fab6f811c6490477e77fda72571d1e6f1e4f40e01',
    'check-presentation <u,v|u^2=v^2,u^4,u^2*(u^3*v)^3> --expect 12': '85c97c1d911746cd7b59b3746369b9525229996736cee1973a0658c27f5af286',
    'check-morphisms --n 3 --variant 0': '7f6df49ee52994bb7b977ae3eeea5f9d8acb001952d7784c194b6986590cc3cd',
    'check-morphisms --n 3 --variant 1': '62d402f1cfc61eb207450071ea12b917f05f7fabf9776f6021d6ccc039382369',
    'check-morphisms --n 3 --variant n': '4cefdac66cec99f36f4721ecd6ddbc45dc9f9880596f257e8a535f20803f3ca8',
    'check-morphisms --n 4 --variant 1': '6258a5454beafedc2ce5ca5a112a2c1ec018df8695cd23ef1e9b53fa9d1649e6',
    'check-morphisms --n 5 --variant 0': '12ab433acdb4374d1d6fc27c94f971c7e92b4568f90492d758403e0ecc64e6b6',
    'check-morphisms --n 5 --variant 1': '3145d967d9eabb4619097534edbb49444be09febfed0152140ffa293dbf50ed9',
    'check-morphisms --n 5 --variant n': '7da4053397228ef67518770cb3692fd596bb385ae336d96dbfb73406d2b0f4de',
    'check-morphisms --n 6 --variant 1': 'af664d4d7ebeab08ddfd76d83f37e81ab9684fb23f66599fe1ae7609ded62beb',
    'check-morphisms --n 7 --variant 0': '73c7b704ac6bdecdca495371e5a453732f2ed2ac759c8240aba01270040ad833',
    'check-morphisms --n 7 --variant 1': '89950ef1b116fb74e2be558ddace99c9f6b8b11b4455014b35a4a3d098cbbde1',
    'check-morphisms --n 7 --variant n': '78eabafd92aef44ad466d6e8642160c8f766c71767e18b19aa06b60387378ea9',
    'check-morphisms --n 8 --variant 1': '88833cdd3d5fdb62b70a5fffa06a0770b5a37f0b084e1bcabe54b6f51010a010',
    'check-morphisms --n 9 --variant 0': '2fc8ce138cffe6d67395c1e85a80d21aa94e64e852b8f8cb1ea9031bcd17478b',
    'check-morphisms --n 9 --variant 1': 'e2c74de05e254be029a07a4d83f02891666bd568470d46657d03877f65cdf75d',
    'check-morphisms --n 9 --variant n': '06936b0cc3d8669a7740408feffa056ff843ff24ba133f6e96dc2e6998da3d50',
    'check-morphisms --n 10 --variant 1': 'cdf3b38fe3562a9c399ae17d508c88267eeec1429d7777dbf886582a3337a60d',
    'check-morphisms --n 11 --variant 0': '6bc4d284534956f63823c730d9cfa977c0e2be7723e51cd44eb9a28e9388628d',
    'check-morphisms --n 11 --variant 1': '7f019960944c1a5223d17f7013d44f9deef59e6ecd7fe4bc1514bcf68d64f700',
    'check-morphisms --n 11 --variant n': '84db1c50f9b87db3f36d2f0267093f10d6f09a15b21879b689a2e1583df9f514',
    'check-morphisms --n 12 --variant 1': 'd3dd2794ef792c4374604101963078b48c2fc612cdc613f0a200fff6692cdc79',
}


@pytest.mark.parametrize("group", builtin_groups(24), ids=lambda g: g.descriptor)
def test_builtin_group_reports_are_byte_identical(group):
    assert digest(builtin_reports(group)) == DIGESTS[group.descriptor]


@pytest.mark.parametrize("descriptor, length, mode, minimal_only", LENGTH_THREE)
def test_length_three_reports_are_byte_identical(descriptor, length, mode, minimal_only):
    report = cc.classify(cc.from_descriptor(descriptor), length, mode, minimal_only)
    key = f"{descriptor} {length} {mode} {minimal_only}"
    assert digest(report.to_json()) == DIGESTS[key]


@pytest.mark.parametrize("descriptor, length, mode, minimal_only", DEEP_TREE)
def test_deep_tree_reports_are_byte_identical(descriptor, length, mode, minimal_only):
    report = cc.classify(cc.from_descriptor(descriptor), length, mode, minimal_only)
    key = f"{descriptor} {length} {mode} {minimal_only}"
    assert digest(report.to_json()) == DIGESTS[key]


@pytest.mark.parametrize("descriptor, length, minimal_only, count, total", UNDIRECTED_SEARCH)
def test_undirected_search_reports_are_byte_identical(descriptor, length, minimal_only, count,
                                                      total):
    report = cc.classify(cc.from_descriptor(descriptor), length, "undirected", minimal_only)
    assert (len(report.classes), report.total) == (count, total)
    key = f"{descriptor} {length} undirected {minimal_only}"
    assert digest(report.to_json()) == DIGESTS[key]


def test_verify_theorem_output_is_byte_identical():
    assert digest(verify_theorem_output()) == DIGESTS["verify-theorem 2..12 json"]


@pytest.mark.parametrize("group, seq, flags", DOT_RUNS, ids=[dot_key(*run) for run in DOT_RUNS])
def test_export_dot_output_is_byte_identical(group, seq, flags):
    assert digest(export_dot_output(group, seq, flags)) == DIGESTS[dot_key(group, seq, flags)]


@pytest.mark.parametrize("argv", PARSE_RUNS, ids=" ".join)
def test_parse_runs_are_byte_identical(argv):
    assert digest(cli_output(*argv)) == DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("argv", PRESENTATION_RUNS, ids=" ".join)
def test_presentation_runs_are_byte_identical(argv):
    assert digest(cli_output(*argv)) == DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("argv", ORDER_RUNS, ids=" ".join)
def test_order_runs_are_byte_identical(argv):
    assert digest(cli_output(*argv)) == DIGESTS[" ".join(argv)]


if __name__ == "__main__":
    for key, value in current_digests().items():
        print(f"    {key!r}: {value!r},")
