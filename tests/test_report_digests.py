"""Frozen sha256 digests of every output of small CLI runs.

A change meant to keep the reports byte-identical must keep these digests:
every file that --format both --plot writes, and stdout.  The bits depend on
numpy's rounding of exp and log, which may differ between numpy builds and
CPUs (the digests were recorded with numpy 2.4 on x86-64 with AVX-512).
After such an upgrade, re-record them from a run of the previous release;
after a code change, a mismatch shows which report moved.

The bits also depend on the BLAS thread count.  The digests were recorded
with OpenBLAS's default thread count; under OPENBLAS_NUM_THREADS=1 (the
benchmark's pin) the gmi_clarke report.json hashes differently, because the
Cholesky factor of the Clarke covariance rounds differently on one thread.
The simulate_clarke_genie paths are short enough to hash alike on one and
on two threads.
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


def _sim(**values):
    """_SIM with the named options set to other values."""
    argv = list(_SIM)
    for option, value in values.items():
        argv[argv.index(f"--{option}") + 1] = value
    return argv


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
    # a rate near capacity makes about half the genie trials fail, so the
    # chosen rows, and with them the codebooks and the decoder, move the
    # report
    "simulate_genie_errors": _sim(**{"rate-fraction": "0.9"})
    + ["--genie", "--seed", "2030"],
    "simulate_decision_directed": _SIM + ["--seed", "2027"],
    # Clarke paths come from the Cholesky factor, 40 trials make two full
    # batches and a partial one, and a rate near capacity makes decodes fail
    "simulate_clarke_genie": ["simulate", "--model", "clarke", "--doppler",
                              "0.05"]
    + _sim(**{"rate-fraction": "0.9", "trials": "40"})[5:]
    + ["--genie", "--seed", "2031"],
    # a ternary alphabet takes the rejecting draw, and an odd K starts rows
    # in the middle of a 64-bit word
    "simulate_ternary": _sim(constellation="3") + ["--seed", "2028"],
    "simulate_qpsk_odd_k": _sim(constellation="qpsk", K="15")
    + ["--seed", "2029"],
}

DIGESTS = {
    'capacity': {
        'capacity.csv':
            '5b074b43a3b35dc01e7413ec608412cc35dae067fa3ab8d37f6a6e6c5185d3e9',
        'report.json':
            'e41407db784c726331029260eea4f92847a4e947c1e167008858d1a3aa5c62d0',
        'stdout':
            '8b6e6b31ec58e33fd523edd3d11ea6f78b9698a98a5205fc2d999794ec7b2b1c',
    },
    'gmi_ar1': {
        'lambda_curve.csv':
            '461d5979a470b5f545ad174bbab24fab57447193e6b43838ba2cf91d493ee6c9',
        'lambda_curve.svg':
            '46f35d7eccdffbf4c2aeb58e87f2060b382780cca7cd7a77fce4ecf044324131',
        'report.json':
            'fd840649d79edcdbeeaf6c8063f0472bddd7d22c469480cb0e48aa71bd224ed6',
        'stdout':
            'ec4fb273296414023cf3a380d38d5883427f6b531d3c2d628740c289f56c8a1a',
    },
    'gmi_clarke': {
        'lambda_curve.csv':
            '198234a156bbd1ed69fc84a7742ad46ea1b46ecca9aef2117bed5c879c4c908b',
        'lambda_curve.svg':
            'df265717753678919cda824e25f5ae5ac2d97c864cb7c935bf5d6e6e5fff3fc9',
        'report.json':
            '5f1f729d57796718e231aa62f256108669a310e5b40ba873d2059346db607d75',
        'stdout':
            'cb06572cdd6fd022958bd5f634f70259d4d85f277be99fde6ad13d648d246951',
    },
    'gmi_tabulated': {
        'lambda_curve.csv':
            '868ed84d2dfe0d264803acab491ef1e332a6c70ff75bb4eb34cec562c23ef53e',
        'lambda_curve.svg':
            'b8d45f9347e7b4d316f3fc6ba4df6309f47029aefed5bc3e5ecec1b7fcf86732',
        'report.json':
            '7e1996216e9eb6bd427634cc5b8e7a093c6c92328a18a65ded1bb3f68e94969c',
        'stdout':
            'a1393f53629b33cad3c08a45b3d8389268fbfde43786308f8d928b6d9b020ee9',
    },
    'ladder': {
        'ladder.csv':
            'eac39314e4b89a68619673b2c201b163a72d42df6a85ed9d6d7af2526d1e6e78',
        'ladder.svg':
            'a85a5c129f6739850e9d4779b7e721f7266a64daacbe6a0f545636557009c319',
        'report.json':
            '766d83dc84cad94a120b31b2783a66bd3e283910ea8aa53f5ad0d3fde7235c52',
        'stdout':
            'b8e6e26c8655e731c7a57933900aaf170c127dd13607583792e02bf754633538',
    },
    'simulate_decision_directed': {
        'report.json':
            '88dc8bd694ceb7fc0dce80addd9e33773d7081b96897245a43ee894443c198f5',
        'simulate.csv':
            'd654ff4a343698f244aa71801eb9d2815f0d781bfcbac77fa897b32cfe813ac1',
        'simulate.svg':
            '49a4e3deb3f43cbbe6b66157f2b6c7c71ca56a2b93c816858cfd3472afd779e5',
        'stdout':
            'ac7622fbdea026ac232e5c1415dad5f9dde87d3e733e218e4bef62903c122fd3',
    },
    'simulate_clarke_genie': {
        'report.json':
            '20db7e4f93f467497cd4f58b72d663d29467a5d397f6f833e6df5a4844916ad7',
        'simulate.csv':
            'fca07574b8277de400ceabfb39c21dde1aedc96f1677f63db5495d24895d2384',
        'simulate.svg':
            'dd5ee6c03b25183594472e1e83a13b4757c6413f21bd6f9b4d32f8c07c1f2bed',
        'stdout':
            '6d63adbb95ac4a511d9f9333a28ccec99c4b1eca74fbdb600696df05d8e8e446',
    },
    'simulate_genie': {
        'report.json':
            '98504f9d4ccb9d89e5f4b206d042e03b21526ec516e2206615b390a134e6cbab',
        'simulate.csv':
            'eeb430da80a14bd0f0bc331b08a68eba7470168fef0204b879f9dc1fe0f60f43',
        'simulate.svg':
            '64c864d337d79ab1d30153f5f9903b4b1fb6489893a1c283fd0369fa8c86a1af',
        'stdout':
            '891bf00cbbc74dac7429e56776224b1e1636cf40f8198ab2eb7c19f51abb5b65',
    },
    'simulate_genie_errors': {
        'report.json':
            'c918f8680fca190eb26d70722cdb4e0d421ac6a7dfe12573c88072203f71ae5f',
        'simulate.csv':
            '7dd96a60bce2ebc9031a9055f400afbac5fa2c875679f3217c22ab00c0c31073',
        'simulate.svg':
            '5ce8b7e72a4cd9be74c555f7fd6c92249f85adc999c07c15a96ae0712a997b50',
        'stdout':
            '822d8448a971408f6f873919dcc6863bebdf4da334a74f9a336dc2547a55cbd1',
    },
    'simulate_qpsk_odd_k': {
        'report.json':
            '551795387a1a6834a86d111e2b2cfb115daf73f9b185a448631ba8723ee2c58c',
        'simulate.csv':
            'b86d240cf25f2a4cd3dd6a5c5b3376119aa115b8b1863c9a98f9c7ee1ef3ebae',
        'simulate.svg':
            '64c864d337d79ab1d30153f5f9903b4b1fb6489893a1c283fd0369fa8c86a1af',
        'stdout':
            '5f221dac3f7cdf42a3add71db33c440eabc00a2989a79f2576dc6db3e8ea477d',
    },
    'simulate_ternary': {
        'report.json':
            '17296411802c3ec94a47d1ea2d259371f2692986d6f7a1b5a7a28f937867dc26',
        'simulate.csv':
            'bbbe773431f2002ffd2b00a66566862dfd94135e216c660517c64cd7dd22b62b',
        'simulate.svg':
            '3451ded7ce660ab3b3b25444f4c7e6d5ea1267eac5fafdc62586623a24f08309',
        'stdout':
            '3ae14b6748ea374513ac920bc644db5d8bd7c6f3dfaa8a593864a149ace6c0b9',
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
