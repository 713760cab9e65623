"""The exact text that zerotemp prints or writes for a few fixed potentials.

A change meant to leave every output as it is (a faster perron, say) must
keep these bytes.  The texts are pinned as text, not as a hash, so that a
failure shows the row and the cell that moved.  The tables are written out
in full in conftest.TABLES, and each config is serialized by json.dumps as
below: the digest line of each CSV is the sha256 of those bytes.
"""

import json

import pytest

from zerotemp.cli import EXIT_OK, main

from conftest import TABLES

GAMMA_GRIDS = {
    "n2": [64.0, 128.0, 256.0, 512.0],
    "n4": [128.0, 256.0, 512.0],
    "golden5": [64.0, 128.0, 256.0],
    "two zero blocks": [64.0, 128.0, 256.0, 512.0],
}
RUN_GRID = [4.0, 8.0]
RUN_REPORTS = ["gamma", "subaction", "measure"]
APPENDIX_ARGV = ["appendix", "--gamma", "-2", "--eta", "-1", "--beta-max", "64"]


def write_config(tmp_path, name, grid, reports) -> str:
    trans, table = TABLES[name]
    cfg = {
        "potential": {
            "kind": "locally-constant",
            "alphabet_size": len(trans),
            "transitions": trans,
            "table": table,
        },
        "beta_grid": grid,
        "reports": reports,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def gamma_output(tmp_path, capsys, name) -> str:
    assert main(["gamma", write_config(tmp_path, name, GAMMA_GRIDS[name], ["gamma"])]) == EXIT_OK
    return capsys.readouterr().out


def run_outputs(tmp_path, capsys) -> dict:
    """{file name: text} of `zerotemp run` on golden8, stdout included."""
    out = tmp_path / "out"
    config = write_config(tmp_path, "golden8", RUN_GRID, RUN_REPORTS)
    assert main(["run", config, "--output-dir", str(out)]) == EXIT_OK
    texts = {p.name: p.read_text() for p in sorted(out.iterdir())}
    texts["stdout"] = capsys.readouterr().out
    return texts


def appendix_output(capsys) -> str:
    assert main(APPENDIX_ARGV) == EXIT_OK
    return capsys.readouterr().out


def cells(text: str) -> list:
    """The text as rows of cells, so that an assertion names the one that moved."""
    return [line.split(",") for line in text.splitlines()]


@pytest.mark.parametrize("name", list(GAMMA_GRIDS))
def test_gamma_output_is_pinned(tmp_path, capsys, name):
    assert cells(gamma_output(tmp_path, capsys, name)) == cells(EXPECTED["gamma", name])


def test_run_outputs_are_pinned(tmp_path, capsys):
    texts = run_outputs(tmp_path, capsys)
    assert sorted(texts) == sorted(EXPECTED["run"])
    for file_name, text in texts.items():
        assert (file_name, cells(text)) == (file_name, cells(EXPECTED["run"][file_name]))


def test_appendix_output_is_pinned(capsys):
    assert cells(appendix_output(capsys)) == cells(EXPECTED["appendix"])


# recorded with the code as it stood before the working matrix of perron
# was formed at its own precision plus guard digits
EXPECTED = {
    ("gamma", "n2"): (
        "# config-sha256=85e4a348492be47356058192e71d490eeb4fb8ccf49fd4646a040fb2905c2750\n"
        "beta,pressure,gamma_hat,gamma_maxplus,h\n"
        "64,4.9422888578930573e-92,-3.2850000000000001,-3.2850000000000001,0\n"
        "128,2.4426219154853857e-183,-3.2850000000000001,-3.2850000000000001,0\n"
        "256,0,-3.2850000000000001,-3.2850000000000001,0\n"
        "512,0,-3.2850000000000001,-3.2850000000000001,0\n"
    ),
    ("gamma", "n4"): (
        "# config-sha256=3d726cb7977fafde2393ffed99c4012af87a5528073c1c2cfd09af33afd238c8\n"
        "beta,pressure,gamma_hat,gamma_maxplus,h\n"
        "128,2.4201415696980907e-280,-5.0300000000000002,-5.0300000000000002,0\n"
        "256,0,-5.0300000000000002,-5.0300000000000002,0\n"
        "512,0,-5.0300000000000002,-5.0300000000000002,0\n"
    ),
    ("gamma", "golden5"): (
        "# config-sha256=1a6ea93fb7b2936fb7109430a88f20a8625cc28d14b383b4ddaf488558827529\n"
        "beta,pressure,gamma_hat,gamma_maxplus,h\n"
        "64,1.4214374006642403e-185,-6.6504152123481246,-6.6449999999999996,0\n"
        "128,0,-6.6477076061740625,-6.6449999999999996,0\n"
        "256,0,-6.6463538030870311,-6.6449999999999996,0\n"
    ),
    ("gamma", "two zero blocks"): (
        "# config-sha256=b83f85803e5dae8e9fdb5d2f158f1748e328b3789739d7458ff2562be30c9f9b\n"
        "beta,pressure,gamma_hat,gamma_maxplus,h\n"
        "64,0.69314718055994529,-2,-2,0.69314718055994529\n"
        "128,0.69314718055994529,-2,-2,0.69314718055994529\n"
        "256,0.69314718055994529,-2,-2,0.69314718055994529\n"
        "512,0.69314718055994529,-2,-2,0.69314718055994529\n"
    ),
    "run": {
        "gamma.csv": (
            "# config-sha256=98b45d862a1d0d136cc0dd952b79650d118dbe01f8d6a0f8bb5a205319438059\n"
            "beta,pressure,gamma_hat,gamma_maxplus,h\n"
            "4,7.1679393644536435e-14,-7.5666432713699736,-7.4800000000000004,0\n"
            "8,7.2661306929779238e-27,-7.5233216987849527,-7.4800000000000004,0\n"
        ),
        "measure.csv": (
            "# config-sha256=98b45d862a1d0d136cc0dd952b79650d118dbe01f8d6a0f8bb5a205319438059\n"
            "beta,word,mass\n"
            "4,0,0.7500001243215082\n"
            "4,1,0.24999987567849194\n"
            "4,0000,0.50000024864294446\n"
            "4,0001,3.5839714644870745e-14\n"
            "4,0010,3.5839714914150113e-14\n"
            "4,0100,3.5839714914150113e-14\n"
            "4,0101,0.24999987567845611\n"
            "4,1000,3.5839714644870745e-14\n"
            "4,1001,2.6927936643356496e-22\n"
            "4,1010,0.24999987567845611\n"
            "8,0,0.75000000000008882\n"
            "8,1,0.24999999999991127\n"
            "8,0000,0.50000000000017752\n"
            "8,0001,3.6330653464902512e-27\n"
            "8,0010,3.6330653464902519e-27\n"
            "8,0100,3.6330653464902519e-27\n"
            "8,0101,0.24999999999991127\n"
            "8,1000,3.6330653464902512e-27\n"
            "8,1001,2.9004463461804579e-43\n"
            "8,1010,0.24999999999991127\n"
        ),
        "subaction.csv": (
            "# config-sha256=98b45d862a1d0d136cc0dd952b79650d118dbe01f8d6a0f8bb5a205319438059\n"
            "beta,node,v_hat,v_rec,calibration_residual\n"
            "4,0000,0,0,2.5052156349403276e-07\n"
            "4,0001,-1.4099999999998203,-1.4099999999999999,2.5052156349403276e-07\n"
            "4,0010,-5.4099999981214797,-5.4100000000000001,2.5052156349403276e-07\n"
            "4,0100,-3.3766432713699466,-3.2900000000000009,2.5052156349403276e-07\n"
            "4,0101,-1.3866435218914921,-1.3000000000000007,2.5052156349403276e-07\n"
            "4,1000,-4.9666432713699651,-4.8800000000000008,2.5052156349403276e-07\n"
            "4,1001,-7.0266432713699647,-6.9400000000000004,2.5052156349403276e-07\n"
            "4,1010,-1.3866435218915101,-1.3000000000000007,2.5052156349403276e-07\n"
            "8,0000,0,0,8.8817841970012523e-14\n"
            "8,0001,-1.4099999999999999,-1.4099999999999999,8.8817841970012523e-14\n"
            "8,0010,-5.4100000000000001,-5.4100000000000001,8.8817841970012523e-14\n"
            "8,0100,-3.3333216987849523,-3.2900000000000009,8.8817841970012523e-14\n"
            "8,0101,-1.3433216987850409,-1.3000000000000007,8.8817841970012523e-14\n"
            "8,1000,-4.9233216987849522,-4.8800000000000008,8.8817841970012523e-14\n"
            "8,1001,-6.9833216987849518,-6.9400000000000004,8.8817841970012523e-14\n"
            "8,1010,-1.3433216987850409,-1.3000000000000007,8.8817841970012523e-14\n"
        ),
        "summary.txt": (
            "# config-sha256=98b45d862a1d0d136cc0dd952b79650d118dbe01f8d6a0f8bb5a205319438059\n"
            "gamma: gamma_hat(8) = -7.523322, max-plus prediction -7.480000, h = 0.000000\n"
            "subaction: residual(8) = 8.882e-14, eigenspace dimension 1\n"
            "measure: at beta 8: [0]=0.750000, [1]=0.250000\n"
        ),
        "stdout": (
            "gamma: gamma_hat(8) = -7.523322, max-plus prediction -7.480000, h = 0.000000\n"
            "subaction: residual(8) = 8.882e-14, eigenspace dimension 1\n"
            "measure: at beta 8: [0]=0.750000, [1]=0.250000\n"
        ),
    },
    "appendix": (
        "# config-sha256=bf4c3c2abd60bde0f9327e74d59e82b225fa4fc423cdffa5410c98e813493026\n"
        "beta,lambda_tilde,h1_pert,p0,p_unpert,mu0_unpert,max_rel_err\n"
        "2,1.1377702260933886,7.52199947434704,0.017366997771968689,0.018149927917809738,0.5,1.9115486120191123e-16\n"
        "4,1.0183217810413157,54.616459531939462,0.00033512539944909731,0.00033540637289576885,0.5,3.9029044093085784e-16\n"
        "8,1.0003354626656538,2980.9583225043184,1.1253513672677673e-07,1.1253516838717682e-07,0.5,6.1020289677103376e-16\n"
        "16,1.0000001125351747,8886110.5205079839,1.2664165549093694e-14,1.2664165549094095e-14,0.5,1.6769047784694687e-15\n"
        "32,1.0000000000000127,78962960182680.688,1.6038108905486377e-28,1.6038108905486379e-28,0.5,1.3979687730844184e-16\n"
        "64,1,6.2351490808116167e+27,2.5722093726424153e-56,2.5722093726424148e-56,0.5,1.7602919838371997e-16\n"
        "appendix: p0(64) = 2.572e-56, closed-form agreement 1.760e-16\n"
    ),
}
