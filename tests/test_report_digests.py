"""Byte identity of classify reports, verify-theorem output and DOT export.

The SHA-256 digests below pin the exact bytes of a corpus of reports and
of ``export-dot`` runs, so a change to how classes are found or how
graphs are held cannot change what is printed.  To
re-record them after an intended change of output, run this file as a
script (``PYTHONPATH=src:tests python tests/test_report_digests.py``)
and paste what it prints.
"""
import contextlib
import hashlib
import io

import pytest

import cayleyclass as cc
from cayleyclass import cli
from conftest import builtin_groups

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


# (group, sequence) pairs for export-dot, each run directed and undirected:
# labels of order > 2, order-2 labels, a loop, and a permutation group
DOT_CASES = [
    ("dicyclic:3", "a*x,x"),
    ("dihedral:4", "x,a*x"),
    ("cyclic:1", "e"),
    ("perm:4:(1,2);(1,2,3,4)", "(1,2),(1,2,3,4)"),
]
DOT_RUNS = [(group, seq, flags) for group, seq in DOT_CASES for flags in ((), ("--undirected",))]


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


def export_dot_output(group, seq, flags):
    """Exit code, stdout and stderr of one export-dot run, joined."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["export-dot", "--group", group, "--seq", seq, *flags])
    return f"exit {code}\n" + out.getvalue() + "\n--- stderr\n" + err.getvalue()


def dot_key(group, seq, flags):
    return " ".join(("export-dot", group, seq, *flags))


def current_digests():
    found = {g.descriptor: digest(builtin_reports(g)) for g in builtin_groups(24)}
    for descriptor, length, mode, minimal_only in LENGTH_THREE + DEEP_TREE:
        report = cc.classify(cc.from_descriptor(descriptor), length, mode, minimal_only)
        found[f"{descriptor} {length} {mode} {minimal_only}"] = digest(report.to_json())
    found["verify-theorem 2..12 json"] = digest(verify_theorem_output())
    for run in DOT_RUNS:
        found[dot_key(*run)] = digest(export_dot_output(*run))
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


def test_verify_theorem_output_is_byte_identical():
    assert digest(verify_theorem_output()) == DIGESTS["verify-theorem 2..12 json"]


@pytest.mark.parametrize("group, seq, flags", DOT_RUNS, ids=[dot_key(*run) for run in DOT_RUNS])
def test_export_dot_output_is_byte_identical(group, seq, flags):
    assert digest(export_dot_output(group, seq, flags)) == DIGESTS[dot_key(group, seq, flags)]


if __name__ == "__main__":
    for key, value in current_digests().items():
        print(f"    {key!r}: {value!r},")
