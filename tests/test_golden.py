"""Golden reports: the CLI's JSON, CSV and stdout bytes for a fixed set of runs.

Each run goes through ``cli.main`` in-process with ``--format both``; the
SHA-256 digests of the two report files and of the console summary must
match the recorded ones.  A refactor that is meant to keep every bit fails
here, naming the run and the output whose bytes moved.  After an intended
output change, regenerate the table with

    PYTHONPATH=src python tests/test_golden.py

and log the change.
"""
import hashlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from auglag import cli

# (problem, inner) pairs at n = 8 (eq-qp-analytic has n = 4) that the CLI
# supports; the three unsupported pairs exit 2 and are tested in test_cli.
SOLVES = [
    ("simplex-cos-8", "gd-fixed"),
    ("simplex-cos-8", "gd-backtracking"),
    ("eq-cos-8", "gd-fixed"),
    ("eq-cos-8", "gd-backtracking"),
    ("eq-cos-8", "cubic-newton"),
    ("eq-rosenbrock-8", "gd-backtracking"),
    ("eq-rosenbrock-8", "cubic-newton"),
    ("dup-eq-8", "gd-fixed"),
    ("dup-eq-8", "gd-backtracking"),
    ("eq-qp-analytic", "gd-fixed"),
    ("eq-qp-analytic", "gd-backtracking"),
    ("eq-qp-analytic", "cubic-newton"),
]
RUNS = {
    f"solve-{problem}-{kind}": ["solve", "--problem", problem, "--inner", kind, "--eps", "1e-3"]
    for problem, kind in SOLVES
}
RUNS["sweep-eq-qp-analytic"] = [
    "sweep", "--problem", "eq-qp-analytic", "--eps-grid", "1e-2,1e-3,1e-4"
]
# Runs at the sizes the benchmark solves, where numpy's reductions over c(x),
# grad f and J^T coeff take their unrolled and blocked paths, and the cubic
# model's eigendecomposition and secular sums run at n = 32 and 64.
for problem, kind, eps in (
    ("simplex-cos-32", "gd-fixed", "1e-4"),
    ("dup-eq-64", "gd-fixed", "1e-4"),
    ("eq-rosenbrock-32", "gd-backtracking", "1e-3"),
    ("eq-cos-64", "cubic-newton", "1e-4"),
    ("eq-rosenbrock-32", "cubic-newton", "1e-3"),
):
    RUNS[f"solve-{problem}-{kind}-eps{eps}"] = [
        "solve", "--problem", problem, "--inner", kind, "--eps", eps
    ]

# run -> (json, csv, stdout) SHA-256 digests
GOLDEN = {
    "solve-dup-eq-64-gd-fixed-eps1e-4": (
        "48c9e16d8afcc52eb2fcd7685f95fd78a721f8ef9ed51a6ed7ce787a1bd8c87b",
        "e8349ac1f46d3c09e84eed9d61ce5bd0f1e6e8920f32524abb69d5d58ea4fbc9",
        "64c1888d4b0663961802d83620ba3aa4083e1417e1e4810272cadc543039671d",
    ),
    "solve-dup-eq-8-gd-backtracking": (
        "e1bf4f48024c5a0caac5b58737347a4d74bbc13bb385aad717ae491d9b185d8e",
        "2c2155579f9489518f269f72a517d33d7e8b1677b90832f2255e5fa096944373",
        "b26c2d5b80f74357dbf63e67afacf754d0087598f46d7d3dadaf845e975874b3",
    ),
    "solve-dup-eq-8-gd-fixed": (
        "fa2c947ef106752e685cc95d5497738a16508a280a9a066e36c78da09bb335ee",
        "88c585dd5dd563482a7983c5c85613f92e849a8f2e82794304726d302cbcdb5a",
        "7e6ad6509bb818ef4172bebae7ffc6231ee1f6f2f9aab645f3976914449c9c4d",
    ),
    "solve-eq-cos-64-cubic-newton-eps1e-4": (
        "dd233017846ec9f32c0ab608274e9e44ffddb89a63edac12beebaeb057a2ec01",
        "5bd601c8274c0f2076b92a8bfaceb8916382fd08eb62969baa0b5917f9370ccc",
        "f1248d9159b341488484f8e9b1a506a3e4e33dd575307d1b2e2a907963e240c5",
    ),
    "solve-eq-cos-8-cubic-newton": (
        "1f3ab3e77becaa2aec0f3e9c267be2215639a90d9d266640b70373b56043c292",
        "a4bfdf2165ec44cd721dbc34dadb464226d7fc9d13193ce60113a382ceb664cf",
        "4f99c324267414ae08aecac6b0daa8ac849fac649aef019debab4c07b7d1e517",
    ),
    "solve-eq-cos-8-gd-backtracking": (
        "0fb2a3e2f92ee2454839613d7c4942f9e06ee6170392018bc97bc2ce816c223d",
        "9bac905dc4a420b603a3cb63ed2cdf0dca2dcf83782b9c6c73fa83c56442310b",
        "f645f18d84ac6b136d920ae5bcd38ded24214021384d1169abb00b8acc7258b0",
    ),
    "solve-eq-cos-8-gd-fixed": (
        "a6e1ad215ec3344073249dd2e0aa3d5b797e2afef21b50505d88f615bfe9b3f6",
        "2a9ea7a266f7377049050a1612b91461a4db899386e247669422b79bbd47fb8a",
        "3d870c455557f2a7e263935f3fa2140842619af398b33415fc7d65a4139e534c",
    ),
    "solve-eq-qp-analytic-cubic-newton": (
        "a7462d920595357c66b9560b97851d31a99d34bb6b9e5fa60daaa9f448b8dec1",
        "7d4661d1461ac37838d0a22ba572aa5e9f83a3c86271d783c63ac2bcc771b57c",
        "061d382ab961d85b32b7939a21550fb48ae21c91ea5d5d0cc40f98a30818a34c",
    ),
    "solve-eq-qp-analytic-gd-backtracking": (
        "e5468ed5d7071f2bfc10f22e15fcb897fc2a12e03ce112fe8d961e148610e810",
        "b5986ac96aa7e938ad710b3de15b67f5e5c8cbad29008c5fdf83e757e389bd6c",
        "1b67786e112633d2141fcdc7c358892a88ca96ff2a47786e0e675ca79c9106df",
    ),
    "solve-eq-qp-analytic-gd-fixed": (
        "0396b754bc2e4d3272dcd98471ee39bd05e2aec5957ad4af54b74d601a8d8f22",
        "1cd38e9243bd7b91fcf33923b764ef047a3fa121a1ad54a90768ed0b907c9687",
        "061d382ab961d85b32b7939a21550fb48ae21c91ea5d5d0cc40f98a30818a34c",
    ),
    "solve-eq-rosenbrock-32-cubic-newton-eps1e-3": (
        "2ffd4d32d6857970f01187f79033e3ff7a077d65208b59dff2cccaa468c5ca34",
        "885accefc8a1da76fa4bd3690a326b78488d40651a81cafdf7403636d4bfc079",
        "969d29c6efa3e9267cb5a282263adf9daf44296767fb77ee4a0b28e64784124f",
    ),
    "solve-eq-rosenbrock-32-gd-backtracking-eps1e-3": (
        "7cd501022fb8101e5d28338b9a517fd25934fdd30c021e4c0f0b04e1f6e80e05",
        "d6ca935f41a225cd860f414ad3abf5ecc58d5975380ee3d368936ef3b8ebde92",
        "fa827c2e8e8126db771882e32bf443d27a8d131253120db5c0672329b653635f",
    ),
    "solve-eq-rosenbrock-8-cubic-newton": (
        "9ec8b0821eb094659f20609fe556723dece46e2feb33ce0a4698daac8368250a",
        "4511acab41f0bd68778af13e179d1433901dd0f76dd6687347969c7045b7485e",
        "f55cfad37082937260b11442add43a9b4964baf37eace783375e2ae803234fe3",
    ),
    "solve-eq-rosenbrock-8-gd-backtracking": (
        "b3a4c4a68ba627a9fed30dca75aac6d14c10454bcfa08cea8b3ade54a614eada",
        "4c9574824b30ca1e99b6a6acde51a40fd863380e64800ed24e6ed3a768cd487a",
        "c7301036f88e0bcf21017a7b89ef44fd90dd46ed6cea2e8b8c49184238e0af8d",
    ),
    "solve-simplex-cos-32-gd-fixed-eps1e-4": (
        "72f95d924c5e5b48c93a8c8cbe5c4ba7227c099c695bf16c214d35d76902c033",
        "3452e9088a1a7f60ed1599603dee278e71983aab1d210a882f2ef604269e9e9c",
        "b0d5366dadb4182ca22a2c27fe2ec5234507f5c2a5b6ddfed9ba0220075ef809",
    ),
    "solve-simplex-cos-8-gd-backtracking": (
        "fd91a84336598e32e320aeb4bfc08800a2b899e52fde333c6a102e722b1a0723",
        "f20fb2e0247047f2f0988ae567b94c250920f0e3ba3fc2ba182536a2eb7c5920",
        "5a482dc836c4dafdfbf9842ced52dffdcaa86ebdfd7a07364f0ebc62129bee47",
    ),
    "solve-simplex-cos-8-gd-fixed": (
        "4116621bf682c7ef2efbe17993dba67596de7dc302d7c3da1cc73be907532059",
        "d472170a52c85d0e4ab0b568745f5f569b87f976b78bd328c518759a28b57d7f",
        "aa4dd628ce30ee7512e79ec695da37e09809de5f2f41a624cec61178adfe87d0",
    ),
    "sweep-eq-qp-analytic": (
        "60ed4b8cdffd85bede3d25df1444dec8a29a35dd1aca8bf77dedb589777263a2",
        "25d64964af85d63d5c1894b61e7ab3105be9d9285776be00d813945679163e3c",
        "8b4cece7b6443950c170cfeaebade56381f8bb743f21dea12b6678bc39acf5e7",
    ),
}


def run_digests(name: str, out_dir: Path) -> tuple[int, tuple[str, str, str]]:
    """Exit code and (json, csv, stdout) digests of one run written under out_dir."""
    stem = out_dir / name
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(RUNS[name] + ["--format", "both", "--out", str(stem)])
    outputs = (
        stem.with_suffix(".json").read_bytes(),
        stem.with_suffix(".csv").read_bytes(),
        buf.getvalue().encode("utf-8"),
    )
    return code, tuple(hashlib.sha256(data).hexdigest() for data in outputs)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_unchanged(name, tmp_path):
    code, digests = run_digests(name, tmp_path)
    assert code == cli.EXIT_OK
    moved = [
        output
        for output, got, want in zip(("json", "csv", "stdout"), digests, GOLDEN[name])
        if got != want
    ]
    assert moved == [], f"{name}: the bytes of {', '.join(moved)} moved"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in sorted(RUNS):
            code, digests = run_digests(name, Path(tmp))
            if code != cli.EXIT_OK:
                sys.exit(f"{name} exited {code}")
            print(f'    "{name}": (')
            for digest in digests:
                print(f'        "{digest}",')
            print("    ),")
        print("}")
