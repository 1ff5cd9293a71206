"""Golden bytes: every command's CSV on the shipped configs, at small sizes.

Each digest is the sha256 of the CSV the command wrote, with the exit code
it returned, recorded before the path-sum kernel and the regime tables
replaced the per-block closures.  A refactor that keeps the arithmetic must
keep every byte; one that changes it must say so and record new digests.
A case without a digest is a refusal: the command exits with its code and
writes no CSV.
"""

import functools
import hashlib

import pytest

from portsens import cli, paths, sensitivity
from portsens.cli import main
from portsens.paths import PathEnsemble

SMALL = ["--paths", "2000", "--steps", "32"]

CSV = {"value": "surface.csv", "sens": "sens.csv",
       "secondorder": "secondorder.csv", "norms": "norms.csv",
       "h1check": "h1.csv", "example1": "example1.csv",
       "example2": "example2.csv"}

GOLDEN = [
    ("value", "example1", 0,
     "848c5a64329ff1523a410d53e872335d0591dd11195c10524d0c6580c81ac623"),
    ("value", "deterministic2d", 0,
     "20d7a808286fc078a1e4a518be8aa3e33f7183054982b1b93a6134c14c365547"),
    ("sens", "example1", 0,
     "2b1fe675edc3d1f258e806ee0f340d5c328889ac6a7ae612318c9200a6a65416"),
    ("sens", "deterministic2d", 0,
     "805907b2880bc6c022eea4849410aa9c466fc050ada22679f37811df06515c3d"),
    # re-recorded when the decay check moved from the below-tangent part
    # to |residual|: only the slope and vacuous columns changed
    ("secondorder", "example1", 0,
     "3c2ff34e510cf7ab710b3e0726cddea437b54803e48317a9d56b09b971eb2c82"),
    ("secondorder", "deterministic2d", 0,
     "e966b6bf56fe00b061dd3f7b6370462095a554a6a8a785379895015c19ea7a7f"),
    ("norms", "example1", 2, None),  # log utility: refused, no CSV
    ("norms", "deterministic2d", 0,
     "9130ca4e6d905338f4313537501db7cfa913ba95e0200f32a94b2f2d190b5fc9"),
    ("norms", "norms", 0,
     "939c68238084b9ceeb7978e554a6f15baf81cffc589020d26742a9e6424c2e13"),
    ("h1check", "h1_kernel", 0,
     "881ca22758fdfa5a31bce16e005219cb56c38da2f6210f557015f75db49e51e0"),
    ("example1", None, 3,
     "7930a3e9b04f4367f7959653b5a2900cc6225c7b7dd0402adf311aa6fed48f4f"),
    ("example2", None, 0,
     "3d33f6f3b41d55c9667f3e57f9f7e9717b62f952378fdf814549e0d75e71bb13"),
]


IDS = [f"{c}-{g or 'flags'}" for c, g, _, _ in GOLDEN]


def csv_digest(argv, code, tmp_path, capsys):
    """sha256 of the CSV that ``portsens argv`` writes, after checking the
    exit code, or None if it wrote none."""
    assert main(argv + SMALL + ["--out", str(tmp_path)]) == code
    capsys.readouterr()
    path = tmp_path / CSV[argv[0]]
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.exists() else None


def command_argv(command, config):
    return [command] + (["--config", f"configs/{config}.ini"]
                        if config else [])


@pytest.mark.parametrize("command,config,code,digest", GOLDEN, ids=IDS)
def test_csv_bytes_match_golden(command, config, code, digest, tmp_path,
                                capsys):
    assert csv_digest(command_argv(command, config), code, tmp_path,
                      capsys) == digest


@pytest.mark.parametrize("command,config,code,digest", GOLDEN, ids=IDS)
def test_csv_bytes_match_golden_in_7_path_blocks(command, config, code,
                                                 digest, tmp_path, capsys,
                                                 monkeypatch):
    # the default block holds all 2000 short paths; 7-path blocks, fixed
    # through every ensemble's block_paths, make every pass cross block
    # boundaries, which must not move a byte
    seven = functools.partial(PathEnsemble, block_paths=7)
    monkeypatch.setattr(cli, "PathEnsemble", seven)
    monkeypatch.setattr(sensitivity, "PathEnsemble", seven)
    assert csv_digest(command_argv(command, config), code, tmp_path,
                      capsys) == digest


@pytest.mark.parametrize("command,config,code,digest", GOLDEN, ids=IDS)
def test_csv_bytes_match_golden_in_small_blocks(command, config, code,
                                                digest, tmp_path, capsys,
                                                monkeypatch):
    # a 3.5 kB scratch budget makes the computed blocks small, from 3 paths
    # (value and sens on example1.ini) to 14 (example2), with an uneven
    # last block; the sizes must not move a byte either
    monkeypatch.setattr(paths, "_SCRATCH_BYTES", 7 * 512)
    assert csv_digest(command_argv(command, config), code, tmp_path,
                      capsys) == digest
