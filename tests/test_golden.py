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
        "3b097f8aa0fce2d30ce1e28a7b8d75a7b5b02e8c8bdc4d164015eafd50289340",
        "0a544d12a8d7ec19a8471dd9ad3bf8ecaf9c36d52b2c95897b2b619e69f8309e",
        "64c1888d4b0663961802d83620ba3aa4083e1417e1e4810272cadc543039671d",
    ),
    "solve-dup-eq-8-gd-backtracking": (
        "aae76aa12a770b8be85b122d82ee7098b01ff2ab81d61e0fe2dd855939297ba8",
        "be23c13b2c66ac87121982de8986108b1037155731928d992d8edb6222bc967c",
        "b3e5bdc138c6db922ee500fa7831dc8a66e287ffb73c8299ef53edde1c6cbfb3",
    ),
    "solve-dup-eq-8-gd-fixed": (
        "465a879dabd26d1339a5edd9fb5f480789017cad571c14fd334846b16629bc34",
        "74405c6a4e04208d5381076b42e23317d67b5d3416ee29b6386205b0c437777a",
        "7e6ad6509bb818ef4172bebae7ffc6231ee1f6f2f9aab645f3976914449c9c4d",
    ),
    "solve-eq-cos-64-cubic-newton-eps1e-4": (
        "d5c2268b463bfff124b3e23084a5d1e692699e5e259cbeb7a51009c1a1e2d75b",
        "39efe66c13abb2e20b24c2d2012b1637ed63dcd7e185348fd709f227384e46c8",
        "12fb2c89d4ba69625609cb775b0f3ac7d6a46ccf1f727fe1502406211e3ec41b",
    ),
    "solve-eq-cos-8-cubic-newton": (
        "cbc0d4a60741e4ac270c0609ce531cc880319a1bbb883f245326565a3253b9d5",
        "f735a408be04db3dd3976c7adf2d4958323de9faeaf2fff09cfed8ef7e8716b7",
        "10ef109cfd134716f88bbd4145d73b928741cb398f3b11f39609b173e9d3eeb3",
    ),
    "solve-eq-cos-8-gd-backtracking": (
        "efb3b825876b184c6ce38a25f53bf31d29fca774ab0d3d6f13e8d74b5b331330",
        "71617cdcdc803398b0758e888901fb17acded03d75f781beb7361e3c94c7bfb5",
        "9183e9db60621dc4e2b0b4edece335959c5e866e22dde0cce79d9ee36e5a8a08",
    ),
    "solve-eq-cos-8-gd-fixed": (
        "84917842e4fda13744c91832ea64e007930c22ddc9b0d05310c9df18931e5b78",
        "ee0c415153cf2843afe449967dd1177cf8de081d50fb6719d27df17dd340f741",
        "3d870c455557f2a7e263935f3fa2140842619af398b33415fc7d65a4139e534c",
    ),
    "solve-eq-qp-analytic-cubic-newton": (
        "7912b7ae1b179fc0f4cba8385ee721b0b94d385c7657941e78ef0bb6ce0d007d",
        "b6e53f0c253028f55635993cd73da5541fc5423524ac7701aab3bf5c6d6cbf72",
        "061d382ab961d85b32b7939a21550fb48ae21c91ea5d5d0cc40f98a30818a34c",
    ),
    "solve-eq-qp-analytic-gd-backtracking": (
        "15b0e9190d8f6d422df780e5d7c2a270e6427234abefd657907610c6baae00c7",
        "03401a3b16f33fcad0f9a068bcd35fe431b195feff44cadb57a179efabaaaec0",
        "8ccdb2519cd0eae8eab31e6c02365af082051d8837d3fb8924a069c33e5d65fd",
    ),
    "solve-eq-qp-analytic-gd-fixed": (
        "bd7ad10e4dc55d5f9785f3648196920c735010fd046288948ac92a00e29a2053",
        "b9ed2df3e8865e47788e78097b868deaa2fb0ea235aa7cd6c5f01eb2fe85c0f1",
        "061d382ab961d85b32b7939a21550fb48ae21c91ea5d5d0cc40f98a30818a34c",
    ),
    "solve-eq-rosenbrock-32-cubic-newton-eps1e-3": (
        "c7cab36c2b839f19082a37be24adf6cd105a9e466e1c8feb865bc0a3027a65f9",
        "81162b6744fdf089fd29f9b379065c34f79efb71237a551bf132702dc22446df",
        "166ec5e46e7f437f7ab44fd1c6bae45fee9dce0618c8ad6511ceefc0c83eae55",
    ),
    "solve-eq-rosenbrock-32-gd-backtracking-eps1e-3": (
        "83e2f8d6b8deb3b09cbd656a4d229d7da21c64a7c23a2184031f095a256afe75",
        "1812792dd5f0680c05a7cf7ece05929a8419be933d84d7b7b367d15714231548",
        "8546496029c9d32002bc6415830acaed7ba4f382dea01079078f73a00ad200d3",
    ),
    "solve-eq-rosenbrock-8-cubic-newton": (
        "fbe7bd6c7e7598016cb583a4a5209d1cadaea0453a5251fb60dabdb51169ac47",
        "53b62284131b1f29fcfcc91172ebcfbfc9e5a93e75080195541e7c5ad47e6c75",
        "120aeb47b8288ce575a94ce0385c7ceef062c6d220b214a4bd590a73acf957c6",
    ),
    "solve-eq-rosenbrock-8-gd-backtracking": (
        "383113cea832020c70f54819062ae2cfa053224d15ab3f3e2c1eebd9828e5d4f",
        "763b4a67731d3d78855b3720e3dc4644cb4923df51431f8084fdf49c982edb98",
        "1726055fc565dc6b5d2e9d503310e47b47cb8944daf9f87f1a72d5682e606ed1",
    ),
    "solve-simplex-cos-32-gd-fixed-eps1e-4": (
        "7a5ea30d71a0c12c8d2a85cdd9294ee3f513e0b643216b26972ae237a03ab0eb",
        "8103a12123fc99caa423628b1c55ed2e6972cb1af79f0e1e63b0d7859bcb39b7",
        "b0d5366dadb4182ca22a2c27fe2ec5234507f5c2a5b6ddfed9ba0220075ef809",
    ),
    "solve-simplex-cos-8-gd-backtracking": (
        "ea6baa5eeeaf0e96007ed2d457e6c7e2e169acb52277a8aa2625d0108dde9f1b",
        "8d2269945bee132ce5b8c3c5e3c8c137f8169e0a29725349c1c500dd8c035ff5",
        "f190096e31dbcc9b7d037139c1d15bd42f8be1986a61718b361d879cb12eac23",
    ),
    "solve-simplex-cos-8-gd-fixed": (
        "9ed88d142f5a498bb9540c9d4a8792f003f94901c23eaa115f51813e4f7913f6",
        "3f0231d7cff2e59d287e757dd5b15e6780a4a6e24478963dd5d2b5e706767362",
        "aa4dd628ce30ee7512e79ec695da37e09809de5f2f41a624cec61178adfe87d0",
    ),
    "sweep-eq-qp-analytic": (
        "f4b27aafe0ba20e76917528fbedb24082e027b2d142125484b43f5b93cacbee0",
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
