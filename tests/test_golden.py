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
        "8660639a8dbde5c7dfdbf567b8c33dea03c7845947f91f044de85745d903bb29",
        "292df41057bb715ced0d61cc3e886c4416637fb512a7d465d373b0403f588e70",
        "e5c53d19e899de09187d1b9cd4e626b2b5cd651ed5b1c24709efe3cecf044921",
    ),
    "solve-dup-eq-8-gd-backtracking": (
        "dca7abac2edac41307b8e7316ee3a07615b63a2114148f1d82ca17a21ff93fde",
        "f468d9c3553434acc281cc654da8747b626bfa9aedd0d9c2d03d609f6b093f33",
        "b26c2d5b80f74357dbf63e67afacf754d0087598f46d7d3dadaf845e975874b3",
    ),
    "solve-dup-eq-8-gd-fixed": (
        "30e50fd9a846f4646b94e8ed496e5c537af97c1c70d58fcb2414cbfad2130dd9",
        "75a4d2840ef1b88edc7bb0983adf5de4fb7a139ac43008ed453dbef1e0834f03",
        "e724d1d6754efcd458efdf8f4f3c96b7ee47505ec64f873091a1e89944f3b9b5",
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
        "ae63a03df7cd9b4ce1812404b8eab28b9be5743e251ea136cc46b6bc8efb2ce0",
        "1008d7704507dc89a9a42eeda005d94449fd92d9d27183e1b1af27c8457dcec9",
        "4091a4451d0cd0b990cbd25c9b3bf5955eb8b74fd443ab041233c2e0ed1083a8",
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
        "14f59834577c8c1e29d31d5b877075bf1cad04c1d1277e303706766a1debc608",
        "3d65ecbe30b0348c581a8825bf267412b0464244c5ef3a865de8afbde53e8dc9",
        "b1c454c1ef0c9b972c1910e27e6be3e5b78f35ee1542508948ffeddb32399684",
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
        "0d42c55e396437b7117848caee0a242b23730e6110a0e408f7810f7be9c6a1c4",
        "033a9846b1c0d205a5db41dcb4b5918ad88fa96dd04b6801bc7095d4d5545634",
        "eb54b295927c8f2f0bafdca7d55090cb04172412c7a14363a3d2f9a69002779f",
    ),
    "solve-simplex-cos-8-gd-backtracking": (
        "48a2d1bface07de1ac54533cd0ea7f4e4e6a69cb422fbe1b67b885f557e209d2",
        "2957f01eaf9e57d964b06685a632b9003b3346f52529c2444cdd9bd6b018bd07",
        "5a482dc836c4dafdfbf9842ced52dffdcaa86ebdfd7a07364f0ebc62129bee47",
    ),
    "solve-simplex-cos-8-gd-fixed": (
        "e5211bbcba1c05cf306d10538c830d875e1135e8fce0b24cc19e03929919044f",
        "67359fbf61257e629e0af7f298d9f7307e3a1f812e470db30c4605f45dbf4c46",
        "7a411d21e8cfcdb977855f02a2d34aa5fda329e001d618cff65e3dc63ad7f2e4",
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
