"""Byte-identity guard: `solve`, `export-dsf` and `classify` output on
fixed inputs.

Each solve or export case runs the CLI on the worked example or on a
seeded random instance and hashes stdout with the `timing_ms` and
`out_dir` lines removed, followed by any `--out` CSV files in name order.
The hashes pin witness choice, row order, column order and report
numbers.  Each classify case hashes the whole document, pinning the
components, their dominant relations and the hardness certificate.  A
change that alters any of them must say so and update these tables.
"""
import hashlib
import re

import pytest

from witness_lab.cli import main
from witness_lab.generators import gen_random_db
from witness_lab.qparser import parse_query
from witness_lab.storage import write_database

from corpus import CATALOG, WIDE_TEXT, WORKED_TEXT

VOLATILE = re.compile(r'^ *"(timing_ms|out_dir)": .*\n', re.MULTILINE)

# id, argv after the query and data paths, query text, (rows, pool, seed) or None
# for the worked example, expected sha256
CASES = [
    ("worked-auto", [], WORKED_TEXT, None,
     "35c1dce0aa9e3d10a04c4a614c9389abb4518007a62c1adb71c38d62e0f82755"),
    ("worked-oracle-out", ["--algo", "oracle", "--out"], WORKED_TEXT, None,
     "4dabf16584dbda5b121a27a68dbbb80a30adb059ff5986353c7f278f51cc013b"),
    ("exact-0", ["--algo", "exact"], "Q(A, C) :- R1(A, B), R2(A, B), R3(C, D)", (40, 6, 0),
     "4121cc85add9125478bd4ce4124def7e34dbcb4d26acdd5f8970ff49d76f1223"),
    ("exact-1-out", ["--algo", "exact", "--out"], "Q(A, B, C) :- R1(A, B), R2(B, C), R3(A, C)",
     (60, 5, 1), "4d7e4377ae852f75ed20ffaeb9ab822d056a4c6a9b057c4fadd09d78b6ad2952"),
    ("approx-0", ["--algo", "approx"], "Q(A, B) :- R1(A, C), R2(A, B), R3(B, C)", (40, 6, 0),
     "fe26c8b87faf870d8c288812f456ce505d82eee5d621987d014e1db20d0d4373"),
    ("approx-1", ["--algo", "approx"], "Q(A) :- R1(A, B), R2(B)", (30, 8, 1),
     "ead6abcdc769d66b4e19cf5fcbe441a237a2955638cb7368daf87e51eee9e538"),
    ("greedy-0", ["--algo", "greedy"], "Q(A, C) :- R1(A, B), R2(B, C)", (40, 6, 0),
     "31b0d8efee182c930d15be68126b2169d47f9a16a25d7e7b809abe5ff043dacb"),
    ("greedy-1", ["--algo", "greedy"], "Q(A1, A2, A3) :- R1(A1, B), R2(A2, B), R3(A3, B)",
     (25, 4, 1), "bcae7d17554c5b6af344310dc0cd7736133ec2145a37cc5b423e6ee990cd7814"),
    # two pieces: greedy covers the component {R1, R2}, and R3 is head-only
    ("greedy-disconnected", ["--algo", "greedy"], "Q(A, C, E) :- R1(A, B), R2(B, C), R3(E)",
     (30, 5, 3), "c4e541eadee45b12c1dc29ad17cafcd57f1cbc329b85c60f1e9ffe1486489292"),
    # the component {R1, R2} is smaller than its piece; 15 tuples, the optimum
    ("greedy-linked", ["--algo", "greedy"], "Q(A1, A2) :- R1(B), R2(A2, B), R3(A1, A2)",
     (12, 4, 1), "8caba35de767cb2738846162226af7e33ed9b5cf40fc493ea97e8d1c11264112"),
    ("baseline-0", ["--algo", "baseline"], "Q(A, D) :- R1(A, B), R2(B, C), R3(C, D)",
     (40, 6, 0), "861e38d59ae9c031388c1e7dd9c2d5722000dca80acb1db80b058bc7e6dbb0c4"),
    ("baseline-1-out", ["--algo", "baseline", "--out"], WORKED_TEXT, (20, 4, 1),
     "7adac529a4308821515d8139c59c4a7e82633a3df35aaa484a38db832d93a645"),
    ("oracle-0", ["--algo", "oracle"], "Q(A, C) :- R1(A, B), R2(B, C)", (12, 4, 0),
     "f04efc0b22365fb6c1cfbd99e4453c6c8b0c2c0e3495dd2d364cff7108d9bdd8"),
    ("oracle-1", ["--algo", "oracle"], "Q(A) :- R1(A, B), R2(B, C), R3(C)", (9, 3, 1),
     "6d6daf2edcdf064d742ea856fac8c8703e70b9e48d0d0fbbfc40655e3bcf9cc3"),
    # attributes listed out of name order, so output columns differ from row order
    ("unsorted-exact-out", ["--algo", "exact", "--out"],
     "Q(C, A) :- R1(B, A), R2(A, B), R3(D, C)", (40, 6, 2),
     "726097b1cbb31f0f59c859be0ffbd5ff9b5cf406f7c97af3e2e70e6e71d732e7"),
    ("unsorted-greedy-out", ["--algo", "greedy", "--out"], "Q(C, A) :- R1(B, A), R2(C, B)",
     (40, 6, 2), "11d28431ed570347ca766ee78673390b9e4ca4cc8d91a20224c13d90349a3bb8"),
    ("unsorted-oracle", ["--algo", "oracle"], "Q(C, A) :- R1(B, A), R2(C, B)", (12, 4, 2),
     "1d641776e59ed3f51b7d9740d16593cb1856319c0e489132ae65efc20ab35da8"),
    ("export-dsf", ["export-dsf"], "Q(A1, A4) :- R1(A1, A2), R2(A3, A2), R3(A3, A4)",
     (30, 5, 0), "6c9b5f00d09bcc975d9784ca7f55b292df2ec0c8ed61963769850e13fddeff2c"),
    # chain-ordered atoms, each source with many targets
    ("export-dsf-many-targets", ["export-dsf"],
     "Q(A1, A4) :- R1(A1, A2), R2(A2, A3), R3(A3, A4)", (120, 12, 1), "546c3f96c4e54b3a1c54bb53dd8d57bf07b3a092be037adf6f08b7834e6483de"),
]


def _instance(tmp_path, text, spec, data_dir):
    if spec is None:
        return data_dir / "worked" / "query.txt", data_dir / "worked"
    query = parse_query(text)
    rows, pool, seed = spec
    data = tmp_path / "data"
    write_database(query, gen_random_db(query, rows, pool, seed).database, data)
    (data / "query.txt").write_text(text + "\n")
    return data / "query.txt", data


def output_digest(capsys, tmp_path, data_dir, argv, text, spec) -> str:
    qpath, data = _instance(tmp_path, text, spec, data_dir)
    out_dir = tmp_path / "out"
    if argv[:1] == ["export-dsf"]:
        command = ["export-dsf", str(qpath), str(data)]
    else:
        command = ["solve", str(qpath), str(data)] + argv
        if command[-1] == "--out":
            command.append(str(out_dir))
    assert main(command) == 0
    digest = hashlib.sha256(VOLATILE.sub("", capsys.readouterr().out).encode())
    for path in sorted(out_dir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("argv, text, spec, expected",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_output_bytes_unchanged(capsys, tmp_path, data_dir, argv, text, spec, expected):
    assert output_digest(capsys, tmp_path, data_dir, argv, text, spec) == expected


# catalog name, expected sha256 of `witness-lab classify` stdout
CLASSIFY_CASES = [
    ("worked", "bff977ec0075cd56179ca76ee53d1a7d646d74485e6722f9c3a33659c0f675f5"),
    ("cover", "c0cc31a49494b20c39b0f2c2818634e273f18aa491f4a9ca8ce22a2ee845b65d"),
    ("matrix", "7b9603d785d5a59b3869cf90cf045582f1045d616dabd4f77c7531e4c10efebc"),
    ("pyramid", "501daed77898963cc19bb8fe47e438c9bf72b3fe2e2700899e9db7ab82787771"),
    ("line3", "5f5c5c4ffe2977f35ada6468954017b4aa62e8afec1a2e5656f6b3b45e1c2dd6"),
    ("triangle", "8a9632be9008ccabe5bb156c4fff1b211cbd47bd12480afc36233a54d309e2d1"),
    ("star3", "003a351bb5f9df3edfdf10574d70602c006c8f5055b2e1cb559d9eecd2acac00"),
    ("acyclic_list", "b1c3b838d08204cb0ba7074344a0292766d8a103642fbb3b8497524b50201af5"),
    ("two_hop_tail", "608d383d27a292203124eb89c6dfb638e0e39afab7e116fda78e52757f3b7f44"),
    ("boolean_edge", "d66f1ccb98595de0773987f5f3b8939f4cbd105bbd82cd9548495d4f936ce103"),
    ("wide", "9002cc392e122bbe294e27aadb97816bd3a705380054b742b2597ae341bafa69"),
]
QUERY_TEXTS = {name: text for name, text, _ in CATALOG} | {"wide": WIDE_TEXT}


@pytest.mark.parametrize("name, expected", CLASSIFY_CASES, ids=[c[0] for c in CLASSIFY_CASES])
def test_classify_bytes_unchanged(capsys, tmp_path, name, expected):
    qpath = tmp_path / "query.txt"
    qpath.write_text(QUERY_TEXTS[name] + "\n")
    assert main(["classify", str(qpath)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected
