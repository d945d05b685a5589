"""Frozen sha256 digests of every output of small CLI runs.

A change meant to keep the reports byte-identical must keep these digests:
every file that --format both --plot writes, and stdout.  The bits depend on
numpy's rounding of exp and log, which may differ between numpy builds and
CPUs (the digests were recorded with numpy 2.4 on x86-64 with AVX-512).
After such an upgrade, re-record them from a run of the previous release;
after a code change, a mismatch shows which report moved.
"""

import hashlib

import pytest

from rtgmi.cli import main

# a Bartlett window: its zero extension is PSD at every path length
TABLE = "lag,re,im\n" + "".join(f"{k},{1 - k / 65!r},0.0\n" for k in range(65))
_AR1 = ["--model", "ar1", "--alpha", "0.99"]
_SIM = ["simulate", "--model", "ar1", "--alpha", "0.9", "--constellation",
        "bpsk", "--snr-db", "3", "--L", "3", "--K", "16", "--rate-fraction",
        "0.4", "--trials", "20", "--gmi-K", "20000", "--predictor-order", "8"]

RUNS = {
    "capacity": ["capacity", "--constellation", "bpsk", "--snr-db", "3",
                 "--samples", "40000", "--quadrature"],
    "gmi_ar1": ["gmi", *_AR1, "--constellation", "qpsk", "--snr-db", "0",
                "--K", "20000"],
    "gmi_clarke": ["gmi", "--model", "clarke", "--doppler", "0.05",
                   "--constellation", "8psk", "--snr-db", "2", "--K", "3000"],
    "gmi_tabulated": ["gmi", "--model", "tabulated", "--table", "table.csv",
                      "--constellation", "bpsk", "--snr-db", "-3",
                      "--K", "20000"],
    "ladder": ["ladder", *_AR1, "--constellation", "qpsk", "--snr-db", "0",
               "--L", "4", "--samples", "20000", "--predictor-order", "8"],
    "sweep": ["sweep", "--constellation", "8psk", "--snr-db=-6:3:6",
              "--samples", "10000"],
    "simulate_genie": _SIM + ["--genie", "--seed", "2026"],
    "simulate_decision_directed": _SIM + ["--seed", "2027"],
}

DIGESTS = {
    'capacity': {
        'capacity.csv':
            '5b074b43a3b35dc01e7413ec608412cc35dae067fa3ab8d37f6a6e6c5185d3e9',
        'report.json':
            '6737fb781e18bc6e99aa7d9bf2426aadc23a990dcb2b0d8af1a3e698fd0aa4fd',
        'stdout':
            '8b6e6b31ec58e33fd523edd3d11ea6f78b9698a98a5205fc2d999794ec7b2b1c',
    },
    'gmi_ar1': {
        'lambda_curve.csv':
            '461d5979a470b5f545ad174bbab24fab57447193e6b43838ba2cf91d493ee6c9',
        'lambda_curve.svg':
            '46f35d7eccdffbf4c2aeb58e87f2060b382780cca7cd7a77fce4ecf044324131',
        'report.json':
            'd69647509ac338cd593bec6ff6981874e88cdba0839368f1ffb270ee8527ccbb',
        'stdout':
            'ec4fb273296414023cf3a380d38d5883427f6b531d3c2d628740c289f56c8a1a',
    },
    'gmi_clarke': {
        'lambda_curve.csv':
            '198234a156bbd1ed69fc84a7742ad46ea1b46ecca9aef2117bed5c879c4c908b',
        'lambda_curve.svg':
            'df265717753678919cda824e25f5ae5ac2d97c864cb7c935bf5d6e6e5fff3fc9',
        'report.json':
            '56d6aa44b1ae8434f5840ab06b42faaa692d5c465558101b55288398829f10fc',
        'stdout':
            'cb06572cdd6fd022958bd5f634f70259d4d85f277be99fde6ad13d648d246951',
    },
    'gmi_tabulated': {
        'lambda_curve.csv':
            '868ed84d2dfe0d264803acab491ef1e332a6c70ff75bb4eb34cec562c23ef53e',
        'lambda_curve.svg':
            'b8d45f9347e7b4d316f3fc6ba4df6309f47029aefed5bc3e5ecec1b7fcf86732',
        'report.json':
            '49be5d4856243e8ece5c00bd3debcfb58abc6092882fc68eff7537f0ed257879',
        'stdout':
            'a1393f53629b33cad3c08a45b3d8389268fbfde43786308f8d928b6d9b020ee9',
    },
    'ladder': {
        'ladder.csv':
            'a3d85a64efd7b719fecf2f996bcef6f753bf6954c71db73b936e23b08e4d4545',
        'ladder.svg':
            'c947be78878cabb69bd76a43652e60158e5921c8ddaf0b97d1de328f34fcbaa4',
        'report.json':
            'ce1ac08dcbb1906aac9cc8a81e117e4b465f73bbacd656d6077e470cbb0cc61c',
        'stdout':
            'b4b6b966c034abc339d35cf4a08b2bad1363154e4272e807c52e7e2c27bc44dd',
    },
    'simulate_decision_directed': {
        'report.json':
            'b83049565eb6b5ef1501ebc89b90e4d2411683a35e094555e0701702f3b37756',
        'simulate.csv':
            'bfa1c69ba652c160c0894c8df989cf4c6d6131db2c8427bb542be1f391edc747',
        'simulate.svg':
            '7749e29707cc41c36685caf22675cd85bac87afb33114372cc58a2ef48ff701b',
        'stdout':
            '2558669257fbd22a1109e251a6df282e377859389d7593afbfc40725c36d7119',
    },
    'simulate_genie': {
        'report.json':
            '0b09445945a495bb9a26663630f43d417a209615b8f87c3260fb7a9092c9818b',
        'simulate.csv':
            '800572f53fe996f41166d577ef6119d84b7176c20955c061fed7d950111b817f',
        'simulate.svg':
            '64c864d337d79ab1d30153f5f9903b4b1fb6489893a1c283fd0369fa8c86a1af',
        'stdout':
            '9a9f1c4921ef148527a7715b339003d6eec3df6bcce940cf88d52d84e354d240',
    },
    'sweep': {
        'report.json':
            '67a65697f235f7b17c1073818d1e5273c774b685d667234ab298b8f9787a335d',
        'stdout':
            'ddf901df17d870eb69e805139516d85a4ff15541cb6b601ead153b348423830e',
        'sweep.csv':
            '9bcb6d5526633c0a2e34351b185ab6e06bbd2aba490f2ad279ec40556d4e77f7',
        'sweep.svg':
            '1df32753298989db857c754795ebc63f71f726b3d3d191f8ccf8bd7313b0ce82',
    },
}


def _digests(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.csv").write_text(TABLE)
    assert main(argv + ["--output-dir", "out", "--format", "both",
                        "--plot"]) == 0
    files = {"stdout": capsys.readouterr().out.encode()}
    files.update((p.name, p.read_bytes()) for p in (tmp_path / "out").iterdir())
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(files.items())}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_the_frozen_digests(tmp_path, capsys, monkeypatch, run):
    assert _digests(tmp_path, capsys, monkeypatch, RUNS[run]) == DIGESTS[run]
