"""Frozen sha256 digests of every output of small CLI runs.

A change meant to keep the reports byte-identical must keep these digests:
every file that --format both --plot writes, and stdout.  The bits depend on
numpy's rounding of exp and log, which may differ between numpy builds and
CPUs (the digests were recorded with numpy 2.4 on x86-64 with AVX-512).
After such an upgrade, re-record them from a run of the previous release;
after a code change, a mismatch shows which report moved.

Run as a script, `PYTHONPATH=src python tests/test_report_digests.py`
prints the DIGESTS literal for the current code: each run goes in a fresh
temporary directory and is hashed as the test hashes it.

No digest depends on the BLAS thread count, and the test below checks the
Clarke runs under OPENBLAS_NUM_THREADS=1 (the benchmark's pin) as well as
at OpenBLAS's default.  AR(1) and tabulated synthesis make no BLAS call
(the AR(1) recursion is elementwise numpy, and a tabulated path is one
numpy FFT of a circulant embedding).  The Clarke factor comes from
elementwise Schur steps, and a Clarke path is one small BLAS product per
row block of the factor, each over at most block_step(n) rows; those
products round alike on one thread and on two, as the dense product of a
3000-sample path (gmi_clarke's) or of a batch of 16 paths of 771 samples
with the whole factor did not.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
    "capacity": ["capacity", "--constellation", "bpsk", "--snr-db", "3"],
    "gmi_ar1": ["gmi", *_AR1, "--constellation", "qpsk", "--snr-db", "0",
                "--K", "20000"],
    "gmi_clarke": ["gmi", "--model", "clarke", "--doppler", "0.05",
                   "--constellation", "8psk", "--snr-db", "2", "--K", "3000"],
    "gmi_tabulated": ["gmi", "--model", "tabulated", "--table", "table.csv",
                      "--constellation", "bpsk", "--snr-db", "-3",
                      "--K", "20000"],
    "ladder": ["ladder", *_AR1, "--constellation", "qpsk", "--snr-db", "0",
               "--L", "4", "--samples", "20000", "--predictor-order", "8"],
    "sweep": ["sweep", "--constellation", "8psk", "--snr-db=-6:3:6"],
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
            '522a87fc92164cc1f720506083fba96af44e8fa0d84c109dc47701b85b7809dc',
        'report.json':
            '3269b5f1b5856c1fa9dac38d517f47f76530075665e8e5863d95ffe6e95336a2',
        'stdout':
            'b62f100828a7a43bed47c8e00b54c7a557e153732cef2c7be8d274a017043fe8',
    },
    'gmi_ar1': {
        'lambda_curve.csv':
            '9da9284cd92c2ea2dea7ed4e0be88564758042ea0ed2a96d78cf9b7f7bd34758',
        'lambda_curve.svg':
            '46f35d7eccdffbf4c2aeb58e87f2060b382780cca7cd7a77fce4ecf044324131',
        'report.json':
            '7ec5d3bb95695d45cf8d0248bc26dd4c390eec34d241d4caa02f1c81ee0159e3',
        'stdout':
            'ec4fb273296414023cf3a380d38d5883427f6b531d3c2d628740c289f56c8a1a',
    },
    'gmi_clarke': {
        'lambda_curve.csv':
            '329c944ece68a64054f8a7c7603dc4cf4b5266db97a5d2215ea04422ba267e69',
        'lambda_curve.svg':
            'df265717753678919cda824e25f5ae5ac2d97c864cb7c935bf5d6e6e5fff3fc9',
        'report.json':
            '8840c993043e82d482c87c558508c4c4ac72db96cc4f6db111a6aca789771861',
        'stdout':
            'cb06572cdd6fd022958bd5f634f70259d4d85f277be99fde6ad13d648d246951',
    },
    'gmi_tabulated': {
        'lambda_curve.csv':
            'd70c4d5595769cba775032db05027fa391dc5105494596bbb82a7704a23f1eb1',
        'lambda_curve.svg':
            'f63b88e464bc46b14fb4a28defaf805c3961835085bdc088a14c7e5f3ec1a5d1',
        'report.json':
            'edbc7aae892145d2eb6533f237031ca5351afc373cd81ad98964ccd4656fb09e',
        'stdout':
            'ac3f3a0cfa6603ea116b242e03b70fa77aa16a50240a7856b762f11e7ec193dc',
    },
    'ladder': {
        'ladder.csv':
            'eac39314e4b89a68619673b2c201b163a72d42df6a85ed9d6d7af2526d1e6e78',
        'ladder.svg':
            'a85a5c129f6739850e9d4779b7e721f7266a64daacbe6a0f545636557009c319',
        'report.json':
            '7e7e97e8aff230f0dfe8e24b369eeb92c05547fcd92a228c890d6d0c56f4c0b6',
        'stdout':
            'b8e6e26c8655e731c7a57933900aaf170c127dd13607583792e02bf754633538',
    },
    'simulate_decision_directed': {
        'report.json':
            '3d5cf712cf404b2873088b322a126b13841a1d2bd1962774076eea61ff04a6a4',
        'simulate.csv':
            'e0c2ab3e0d838a96fa1239e9355ea16dd2abc4cb1db73980c2db07136e4396ea',
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
            'd78d702c0f5d4ddeb177a7e60908daf617c44a17f40c3610d44ead2592cc0de8',
        'simulate.csv':
            'a88142b59287ca397c092844c4d174d8976e429f29ff0e6f686ef3b40a4223b7',
        'simulate.svg':
            '64c864d337d79ab1d30153f5f9903b4b1fb6489893a1c283fd0369fa8c86a1af',
        'stdout':
            '891bf00cbbc74dac7429e56776224b1e1636cf40f8198ab2eb7c19f51abb5b65',
    },
    'simulate_genie_errors': {
        'report.json':
            '9dfb8c307b9012ce65ba533c15469549afc8901fff148665a869ab6654f6152e',
        'simulate.csv':
            '5ff2a30caa004df156ec2f74ae7f82640b5afea930dbbba14f6f43374120b81e',
        'simulate.svg':
            '5ce8b7e72a4cd9be74c555f7fd6c92249f85adc999c07c15a96ae0712a997b50',
        'stdout':
            '822d8448a971408f6f873919dcc6863bebdf4da334a74f9a336dc2547a55cbd1',
    },
    'simulate_qpsk_odd_k': {
        'report.json':
            'eccc9c21a84b6b4fcc18037abc89734007d614a04afb7459970a9a476cdddff5',
        'simulate.csv':
            'adfb8a1e607412cc3f5670f7d76958dc7aaaae87f116b6c153fb7cbebe126eea',
        'simulate.svg':
            '64c864d337d79ab1d30153f5f9903b4b1fb6489893a1c283fd0369fa8c86a1af',
        'stdout':
            '5f221dac3f7cdf42a3add71db33c440eabc00a2989a79f2576dc6db3e8ea477d',
    },
    'simulate_ternary': {
        'report.json':
            '094be39e8bd75e83cc61df25fe203b54e9387a82211f211aa1af929cb6b836ab',
        'simulate.csv':
            '5f6f506f4029391978419690c77fb581718df87048c148396058fec160a28af3',
        'simulate.svg':
            '3451ded7ce660ab3b3b25444f4c7e6d5ea1267eac5fafdc62586623a24f08309',
        'stdout':
            '3ae14b6748ea374513ac920bc644db5d8bd7c6f3dfaa8a593864a149ace6c0b9',
    },
    'sweep': {
        'report.json':
            '56cbe423b9a9042edd2c2777118daef272aed448b588e5d06bf2db19515e5436',
        'stdout':
            'a030138add2cd202142a7b15b7efb8de7f0f1abaa674f895d7c6ee94517a8972',
        'sweep.csv':
            '8159fa4e078f2b9dcdf61e9c2121f127b9163baffddfb9a154d7d99d1e5d57a7',
        'sweep.svg':
            '80edb30689881c17c54f8af2ecb956c3fc62c168e4e0826539803925d597dd74',
    },
}


def _digests(argv):
    """sha256 of stdout and of every file `argv` writes, run in the cwd."""
    Path("table.csv").write_text(TABLE)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--output-dir", "out", "--format", "both",
                            "--plot"])
    assert code == 0
    files = {"stdout": stdout.getvalue().encode()}
    files.update((p.name, p.read_bytes()) for p in Path("out").iterdir())
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(files.items())}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_the_frozen_digests(tmp_path, monkeypatch, run):
    monkeypatch.chdir(tmp_path)
    assert _digests(RUNS[run]) == DIGESTS[run]


def test_clarke_outputs_match_the_frozen_digests_on_one_blas_thread(tmp_path):
    # the byte-identical promise at the benchmark's thread pin: a fresh
    # interpreter under OPENBLAS_NUM_THREADS=1, each run in its own directory
    runs = ["gmi_clarke", "simulate_clarke_genie"]
    code = ("import json, os, sys\n"
            "from test_report_digests import RUNS, _digests\n"
            "home = os.getcwd()\n"
            "out = {}\n"
            "for run in sys.argv[1:]:\n"
            "    os.mkdir(run)\n"
            "    os.chdir(run)\n"
            "    out[run] = _digests(RUNS[run])\n"
            "    os.chdir(home)\n"
            "print(json.dumps(out))\n")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code, *runs], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {run: DIGESTS[run] for run in runs}


def _record():
    """The DIGESTS literal for the current code, laid out as above: the
    runs in DIGESTS in its order, then any new run."""
    lines = ["DIGESTS = {"]
    runs = [r for r in DIGESTS if r in RUNS] \
        + sorted(RUNS.keys() - DIGESTS.keys())
    for run in runs:
        with tempfile.TemporaryDirectory() as tmp:
            home = os.getcwd()
            os.chdir(tmp)
            try:
                digests = _digests(RUNS[run])
            finally:
                os.chdir(home)
        lines.append(f"    {run!r}: {{")
        for name, digest in digests.items():
            lines += [f"        {name!r}:", f"            {digest!r},"]
        lines.append("    },")
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    print(_record())
