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
        "d04c44b86afe8762d7ef36bec39c75ad3b6e976dcf1c6761234fd210d07281bc",
        "e8349ac1f46d3c09e84eed9d61ce5bd0f1e6e8920f32524abb69d5d58ea4fbc9",
        "64c1888d4b0663961802d83620ba3aa4083e1417e1e4810272cadc543039671d",
    ),
    "solve-dup-eq-8-gd-backtracking": (
        "dca7abac2edac41307b8e7316ee3a07615b63a2114148f1d82ca17a21ff93fde",
        "f468d9c3553434acc281cc654da8747b626bfa9aedd0d9c2d03d609f6b093f33",
        "b26c2d5b80f74357dbf63e67afacf754d0087598f46d7d3dadaf845e975874b3",
    ),
    "solve-dup-eq-8-gd-fixed": (
        "433a17377bb6af09f5583ccb470c3b0fc5853e673b38b85b9ba1c652c9fa6ac9",
        "88c585dd5dd563482a7983c5c85613f92e849a8f2e82794304726d302cbcdb5a",
        "7e6ad6509bb818ef4172bebae7ffc6231ee1f6f2f9aab645f3976914449c9c4d",
    ),
    "solve-eq-cos-64-cubic-newton-eps1e-4": (
        "f02fd9d9b249e334403d83d26fd15bc663760b203bad0bfd0b85b960f3bba7fe",
        "5bd601c8274c0f2076b92a8bfaceb8916382fd08eb62969baa0b5917f9370ccc",
        "f1248d9159b341488484f8e9b1a506a3e4e33dd575307d1b2e2a907963e240c5",
    ),
    "solve-eq-cos-8-cubic-newton": (
        "6d5b48a3fe5476e41e1c6e36ebb72b5b3c5cb4fa071ff9a2f58d6bb3dff3cd57",
        "a4bfdf2165ec44cd721dbc34dadb464226d7fc9d13193ce60113a382ceb664cf",
        "4f99c324267414ae08aecac6b0daa8ac849fac649aef019debab4c07b7d1e517",
    ),
    "solve-eq-cos-8-gd-backtracking": (
        "48bff6d5fd97c275dad5f238b9e08af3eff0eacafdd15feffcd26955047ca887",
        "6ff6bdad5db26b1f07255a048e1286a613ca6bc11fb9cfe3d64ab1dd8dba855f",
        "f645f18d84ac6b136d920ae5bcd38ded24214021384d1169abb00b8acc7258b0",
    ),
    "solve-eq-cos-8-gd-fixed": (
        "4f9fae95fbdbd09df06581f2c25d082e3f70149a14a3bc191e5cd1644bee5d67",
        "2a9ea7a266f7377049050a1612b91461a4db899386e247669422b79bbd47fb8a",
        "3d870c455557f2a7e263935f3fa2140842619af398b33415fc7d65a4139e534c",
    ),
    "solve-eq-qp-analytic-cubic-newton": (
        "056810cbed8a22e4d0d098e666b37511e4e81f6529c530a164342a45fcdeffc2",
        "7d4661d1461ac37838d0a22ba572aa5e9f83a3c86271d783c63ac2bcc771b57c",
        "061d382ab961d85b32b7939a21550fb48ae21c91ea5d5d0cc40f98a30818a34c",
    ),
    "solve-eq-qp-analytic-gd-backtracking": (
        "0129deefee12005e06c811913d6b0d07d7f623d1a27f60dbb4081aff0ff10a56",
        "38ddfa1846f8f347abc07a8fcb280d3a22bb0b48112f739af43e0532b24daeda",
        "1b67786e112633d2141fcdc7c358892a88ca96ff2a47786e0e675ca79c9106df",
    ),
    "solve-eq-qp-analytic-gd-fixed": (
        "591316a01809ce7ad235825b2ff0402f71ee6e25ff1cf106b18e28df4a700cb7",
        "1cd38e9243bd7b91fcf33923b764ef047a3fa121a1ad54a90768ed0b907c9687",
        "061d382ab961d85b32b7939a21550fb48ae21c91ea5d5d0cc40f98a30818a34c",
    ),
    "solve-eq-rosenbrock-32-cubic-newton-eps1e-3": (
        "8bc6c666db7d896c13f856db13418e81d994bf169318bc4471ba3db7016b72c0",
        "885accefc8a1da76fa4bd3690a326b78488d40651a81cafdf7403636d4bfc079",
        "969d29c6efa3e9267cb5a282263adf9daf44296767fb77ee4a0b28e64784124f",
    ),
    "solve-eq-rosenbrock-32-gd-backtracking-eps1e-3": (
        "cb78b9bf450fbf41c8ace67da11e69733ddcd73f1c4c2aaf34c6d862877bb797",
        "b0e213fcc5c3c9e2adea24c614dc15c507d40288220308d1a849df07641f33b4",
        "8df04873a76c436ee3487d2f2ab55efd8147fa08d845ce416695e9441499bca9",
    ),
    "solve-eq-rosenbrock-8-cubic-newton": (
        "e2dcc6f3755974596dd361228a22a2bba49649dd82a8804833cb5f1204d33bad",
        "4511acab41f0bd68778af13e179d1433901dd0f76dd6687347969c7045b7485e",
        "f55cfad37082937260b11442add43a9b4964baf37eace783375e2ae803234fe3",
    ),
    "solve-eq-rosenbrock-8-gd-backtracking": (
        "bda86ad9c7eced43f01bfc210cc1fa6c0b87c1686317e984094598e857f8131c",
        "53475317fd466ff6d06afcf90381b06de3aec9101d377b14f21d9e6430d0ee91",
        "a44b6cd85bb342eea3fb4b18ad187f76386077f63a94d9d8f7ccfe37281de215",
    ),
    "solve-simplex-cos-32-gd-fixed-eps1e-4": (
        "9fcfbef8ecc3d75f3eecf175d8f6789780da10327ef43fc2e818f398dfd2452b",
        "3452e9088a1a7f60ed1599603dee278e71983aab1d210a882f2ef604269e9e9c",
        "b0d5366dadb4182ca22a2c27fe2ec5234507f5c2a5b6ddfed9ba0220075ef809",
    ),
    "solve-simplex-cos-8-gd-backtracking": (
        "48a2d1bface07de1ac54533cd0ea7f4e4e6a69cb422fbe1b67b885f557e209d2",
        "2957f01eaf9e57d964b06685a632b9003b3346f52529c2444cdd9bd6b018bd07",
        "5a482dc836c4dafdfbf9842ced52dffdcaa86ebdfd7a07364f0ebc62129bee47",
    ),
    "solve-simplex-cos-8-gd-fixed": (
        "10a4e2096de84f7c04cfe8012295fffe585e29f4bb87ed76d0ce481a3b65fd3f",
        "d472170a52c85d0e4ab0b568745f5f569b87f976b78bd328c518759a28b57d7f",
        "aa4dd628ce30ee7512e79ec695da37e09809de5f2f41a624cec61178adfe87d0",
    ),
    "sweep-eq-qp-analytic": (
        "1bd6bd854ac527b70bff05fea09e056c4ea25716b6850f0cf73c1e4781e6edcc",
        "619f20fff20a67ab5c7ac449edc58cda5fd3b6c488a85f039083a15d07f9f8de",
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
