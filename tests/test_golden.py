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
        "4848391afcd0b4467083ef360719dd6aca0159c24e09dcaf89077e7f21520f3d",
        "0a544d12a8d7ec19a8471dd9ad3bf8ecaf9c36d52b2c95897b2b619e69f8309e",
        "64c1888d4b0663961802d83620ba3aa4083e1417e1e4810272cadc543039671d",
    ),
    "solve-dup-eq-8-gd-backtracking": (
        "68fa6c510857acc8203ce0ebeee9bb426a276ad16f05139646725cc679afea79",
        "b36a3a86e0e62971fabf3225ea62165d122ae385abd659506e1554a4261d9d57",
        "b26c2d5b80f74357dbf63e67afacf754d0087598f46d7d3dadaf845e975874b3",
    ),
    "solve-dup-eq-8-gd-fixed": (
        "9be4d17366f533039d641eaf2a476ff104afaf54e19f5872c1e1dd09af9b86e8",
        "74405c6a4e04208d5381076b42e23317d67b5d3416ee29b6386205b0c437777a",
        "7e6ad6509bb818ef4172bebae7ffc6231ee1f6f2f9aab645f3976914449c9c4d",
    ),
    "solve-eq-cos-64-cubic-newton-eps1e-4": (
        "266228abe1c4665a2863bec30c7916a4d660586b204aa2a6150a808174046cd3",
        "a3296a16476cd8eef121a6d96f42480f8ded52c35a71f545f9b4de790ae0d3fa",
        "f1248d9159b341488484f8e9b1a506a3e4e33dd575307d1b2e2a907963e240c5",
    ),
    "solve-eq-cos-8-cubic-newton": (
        "5f7d21f9e2d02582ccf4001cdd4316d8ee398253144ec7df9ea4f1dffadc4aee",
        "0aedf3bbc0a412827c3836d0a695b7bac47d30c980ba5d31b7b8969b0285306c",
        "4f99c324267414ae08aecac6b0daa8ac849fac649aef019debab4c07b7d1e517",
    ),
    "solve-eq-cos-8-gd-backtracking": (
        "6ebbe40d5f923d7370665d4e501c242ae4333ab1bcc60430074c293af4b382bd",
        "23ccb5e9725a6b2123f51c22273731c32e4b99a027a91f8d0688552b28f2d1c9",
        "f645f18d84ac6b136d920ae5bcd38ded24214021384d1169abb00b8acc7258b0",
    ),
    "solve-eq-cos-8-gd-fixed": (
        "48c5dffdda966c1eca4059553a8c82c0aba8772234cd20b4a8202b744fe665a8",
        "ee0c415153cf2843afe449967dd1177cf8de081d50fb6719d27df17dd340f741",
        "3d870c455557f2a7e263935f3fa2140842619af398b33415fc7d65a4139e534c",
    ),
    "solve-eq-qp-analytic-cubic-newton": (
        "52d5d620bf662d8de6ddbd358126fa9c7db4ec08f8fe9df1b5811b7106de6566",
        "b6e53f0c253028f55635993cd73da5541fc5423524ac7701aab3bf5c6d6cbf72",
        "061d382ab961d85b32b7939a21550fb48ae21c91ea5d5d0cc40f98a30818a34c",
    ),
    "solve-eq-qp-analytic-gd-backtracking": (
        "c28b2c7339e5201af19e7107a3f4fa9051307f391064884a79ee435148d478da",
        "5da34a6ee146b02044d4996dc00968f0293800cf650bf5b8f1ed2419340a4d94",
        "1b67786e112633d2141fcdc7c358892a88ca96ff2a47786e0e675ca79c9106df",
    ),
    "solve-eq-qp-analytic-gd-fixed": (
        "2f2465914a089dc3026479171b1286cb55ff9d26ea04d3277b59302938d12a5d",
        "b9ed2df3e8865e47788e78097b868deaa2fb0ea235aa7cd6c5f01eb2fe85c0f1",
        "061d382ab961d85b32b7939a21550fb48ae21c91ea5d5d0cc40f98a30818a34c",
    ),
    "solve-eq-rosenbrock-32-cubic-newton-eps1e-3": (
        "a39a1246f487bae0f0be780fdd0678ddd6a735a8c501a387356320e2eb4c88ef",
        "0d221594f6fd7b6edad4f504af111f5dcaa94219362f11136ac0844679b4b2a9",
        "969d29c6efa3e9267cb5a282263adf9daf44296767fb77ee4a0b28e64784124f",
    ),
    "solve-eq-rosenbrock-32-gd-backtracking-eps1e-3": (
        "af9c5572e8b58b47c7483a5e271e371f4776713c726fc16416dd46b015195281",
        "f4e5de29bcf4f4b2374475038e67f61033234756f8a19f979cd810a3b1bf824c",
        "fa827c2e8e8126db771882e32bf443d27a8d131253120db5c0672329b653635f",
    ),
    "solve-eq-rosenbrock-8-cubic-newton": (
        "68ee9a43e7167275302faa4c4fb03b75ab3c09f802cf52f73484a48ab27730f1",
        "ba62c0cf64d75c9a020bd4021ef5f90c9a66afe7a9de2e5728775c9a49a9a1ef",
        "f55cfad37082937260b11442add43a9b4964baf37eace783375e2ae803234fe3",
    ),
    "solve-eq-rosenbrock-8-gd-backtracking": (
        "d926506799d6d6d7608bc327add8c8fc0b46d3f0b53ad9ae6f525c6c6f5fbe0b",
        "1da7b9d11b8f6cda27fa2db2ef1968697760138429acc47fd8846665327fc201",
        "c7301036f88e0bcf21017a7b89ef44fd90dd46ed6cea2e8b8c49184238e0af8d",
    ),
    "solve-simplex-cos-32-gd-fixed-eps1e-4": (
        "185363a0362ffd037c349ab4f9a849a9995eea6806a9706b18cef813ac597565",
        "8103a12123fc99caa423628b1c55ed2e6972cb1af79f0e1e63b0d7859bcb39b7",
        "b0d5366dadb4182ca22a2c27fe2ec5234507f5c2a5b6ddfed9ba0220075ef809",
    ),
    "solve-simplex-cos-8-gd-backtracking": (
        "63829de8e44c8f32f53d1f604df6e2bf5dcc7d1c9941a11dfe85d8e91ea0ffd6",
        "3131f845e6ae454bf7e5938a9e17ab50512409a8a82a251a8460d3ea5019ce17",
        "5a482dc836c4dafdfbf9842ced52dffdcaa86ebdfd7a07364f0ebc62129bee47",
    ),
    "solve-simplex-cos-8-gd-fixed": (
        "5db330c910cfc894a4f585713fdd7ed1ddf312273a1157ccc6d255002118f4bc",
        "3f0231d7cff2e59d287e757dd5b15e6780a4a6e24478963dd5d2b5e706767362",
        "aa4dd628ce30ee7512e79ec695da37e09809de5f2f41a624cec61178adfe87d0",
    ),
    "sweep-eq-qp-analytic": (
        "b41bb8026f608fefba6477afa7db83a889810352732f7152a349397b85ea3ca6",
        "c907cb0a979940b6ec2e0c518b3cd31cbba06aacc07f85ba6dab56dbd7c9ac6e",
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
