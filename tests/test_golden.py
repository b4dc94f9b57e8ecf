"""Golden reports: the CLI's JSON, CSV and stdout bytes for a fixed set of runs.

Each run goes through ``cli.main`` in-process with ``--format both``; the
SHA-256 digests of the two report files and of the console summary must
match the recorded ones.  A refactor that is meant to keep every bit fails
here, naming the run and the output whose bytes moved.  After an intended
output change, regenerate the table with

    PYTHONPATH=src python tests/test_golden.py

which prints a ``# moved: ...`` comment after each run whose outputs
moved, and log the change.
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
        "4bd25578db9ac0d13c8ed04311e30cce7cef66649881445cfc4aafc88b071b9e",
        "be23c13b2c66ac87121982de8986108b1037155731928d992d8edb6222bc967c",
        "b3e5bdc138c6db922ee500fa7831dc8a66e287ffb73c8299ef53edde1c6cbfb3",
    ),
    "solve-dup-eq-8-gd-fixed": (
        "9be4d17366f533039d641eaf2a476ff104afaf54e19f5872c1e1dd09af9b86e8",
        "74405c6a4e04208d5381076b42e23317d67b5d3416ee29b6386205b0c437777a",
        "7e6ad6509bb818ef4172bebae7ffc6231ee1f6f2f9aab645f3976914449c9c4d",
    ),
    "solve-eq-cos-64-cubic-newton-eps1e-4": (
        "03672ad5201e18d81d916e3c97753568f7b8af81bd5d423c2885130c33a3708f",
        "39efe66c13abb2e20b24c2d2012b1637ed63dcd7e185348fd709f227384e46c8",
        "12fb2c89d4ba69625609cb775b0f3ac7d6a46ccf1f727fe1502406211e3ec41b",
    ),
    "solve-eq-cos-8-cubic-newton": (
        "89c4fda6710c30af21114f19d020fdae07391f8d9dfba8106cd49f260dff21ee",
        "f735a408be04db3dd3976c7adf2d4958323de9faeaf2fff09cfed8ef7e8716b7",
        "10ef109cfd134716f88bbd4145d73b928741cb398f3b11f39609b173e9d3eeb3",
    ),
    "solve-eq-cos-8-gd-backtracking": (
        "3857d180f2d323e4d436da3561f9cc3a88b7a640e9ba1b65cd2638265592c133",
        "71617cdcdc803398b0758e888901fb17acded03d75f781beb7361e3c94c7bfb5",
        "9183e9db60621dc4e2b0b4edece335959c5e866e22dde0cce79d9ee36e5a8a08",
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
        "f3ab43bc8bc1fe04cf8c0c77655fd2fb0a8c3aa8d7e2fc378817e0a85bae98cf",
        "03401a3b16f33fcad0f9a068bcd35fe431b195feff44cadb57a179efabaaaec0",
        "8ccdb2519cd0eae8eab31e6c02365af082051d8837d3fb8924a069c33e5d65fd",
    ),
    "solve-eq-qp-analytic-gd-fixed": (
        "2f2465914a089dc3026479171b1286cb55ff9d26ea04d3277b59302938d12a5d",
        "b9ed2df3e8865e47788e78097b868deaa2fb0ea235aa7cd6c5f01eb2fe85c0f1",
        "061d382ab961d85b32b7939a21550fb48ae21c91ea5d5d0cc40f98a30818a34c",
    ),
    "solve-eq-rosenbrock-32-cubic-newton-eps1e-3": (
        "8ee19321339cc515ba1d6c1e87372a193331b5f1fe2a6f8fbf39f791c41403f6",
        "81162b6744fdf089fd29f9b379065c34f79efb71237a551bf132702dc22446df",
        "166ec5e46e7f437f7ab44fd1c6bae45fee9dce0618c8ad6511ceefc0c83eae55",
    ),
    "solve-eq-rosenbrock-32-gd-backtracking-eps1e-3": (
        "3c0c8ef512d4174de7a07c3eb01ca74c8350000198a9eebac62205ab33ea1026",
        "1812792dd5f0680c05a7cf7ece05929a8419be933d84d7b7b367d15714231548",
        "8546496029c9d32002bc6415830acaed7ba4f382dea01079078f73a00ad200d3",
    ),
    "solve-eq-rosenbrock-8-cubic-newton": (
        "acc2bceefbce3d0013203c6e677d1130bd7e4e39d7319ebda8d6027f5503bdd8",
        "53b62284131b1f29fcfcc91172ebcfbfc9e5a93e75080195541e7c5ad47e6c75",
        "120aeb47b8288ce575a94ce0385c7ceef062c6d220b214a4bd590a73acf957c6",
    ),
    "solve-eq-rosenbrock-8-gd-backtracking": (
        "7701c2fb971599abe30cad06c4b70e6b65d85b891f0029acbcf0e5c065fc3462",
        "763b4a67731d3d78855b3720e3dc4644cb4923df51431f8084fdf49c982edb98",
        "1726055fc565dc6b5d2e9d503310e47b47cb8944daf9f87f1a72d5682e606ed1",
    ),
    "solve-simplex-cos-32-gd-fixed-eps1e-4": (
        "185363a0362ffd037c349ab4f9a849a9995eea6806a9706b18cef813ac597565",
        "8103a12123fc99caa423628b1c55ed2e6972cb1af79f0e1e63b0d7859bcb39b7",
        "b0d5366dadb4182ca22a2c27fe2ec5234507f5c2a5b6ddfed9ba0220075ef809",
    ),
    "solve-simplex-cos-8-gd-backtracking": (
        "4d59af617c73147f356a74dc6a2edca57e19456b64b7c029da5bd421f423bff2",
        "8d2269945bee132ce5b8c3c5e3c8c137f8169e0a29725349c1c500dd8c035ff5",
        "f190096e31dbcc9b7d037139c1d15bd42f8be1986a61718b361d879cb12eac23",
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


def moved_outputs(name: str, digests: tuple[str, str, str]) -> list[str]:
    """The outputs of run ``name`` whose digests differ from ``GOLDEN`` (all three for a new run)."""
    pinned = GOLDEN.get(name, (None, None, None))
    return [output for output, got, want in zip(("json", "csv", "stdout"), digests, pinned) if got != want]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_unchanged(name, tmp_path):
    code, digests = run_digests(name, tmp_path)
    assert code == cli.EXIT_OK
    moved = moved_outputs(name, digests)
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
            moved = moved_outputs(name, digests)
            if moved:
                print(f"    # moved: {', '.join(moved)}")
        print("}")
