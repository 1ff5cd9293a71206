"""Golden bytes: every command's CSV and summary on the shipped configs, at
small sizes.

Each CSV digest is the sha256 of the CSV the command wrote, with the exit
code it returned, recorded before the path-sum kernel and the regime tables
replaced the per-block closures.  Each summary digest is the sha256 of the
``<stem>_summary.txt`` it wrote, with the output directory of its final
``wrote`` line replaced by ``OUT``; the command must print exactly that
file.  A refactor that keeps the arithmetic must keep every byte; one that
changes it must say so and record new digests.  A case without digests is
a refusal: the command exits with its code and writes no CSV, no summary
and nothing to stdout.
"""

import csv
import functools
import hashlib
import json
import pathlib

import pytest

from portsens import cli, paths, sensitivity
from portsens.cli import main
from portsens.paths import PathEnsemble

SMALL = ["--paths", "2000", "--steps", "32"]

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# every command writes <stem>.csv and <stem>_summary.txt
STEM = {"value": "surface", "sens": "sens", "secondorder": "secondorder",
        "norms": "norms", "h1check": "h1", "example1": "example1",
        "example2": "example2"}

# (command, config, exit code, CSV digest, summary digest); every summary
# with a verdict was re-recorded when each verdict became one Check: main
# now ends the summary with one line per check in one format, "name =
# value (se), relation: ok" or ": FAIL", in place of each command's own
# wording.  h1check states no per-tau line unless a regime breaks, and
# norms names the Amemiya bound as implied by the j check and the Hölder
# pairing as an identity check.  Every CSV and exit code held.  The value
# summaries, with no verdict, held
GOLDEN = [
    # CSV re-recorded when quad and time sums of adapted tables came to be
    # read off regime counts: estimates and standard errors moved by at
    # most 6.2e-16 relative; the summary held.  CSV re-recorded when ito
    # sums of adapted tables came to be read off per-regime increment
    # sums: only se_weak moved, by at most 2.1e-16 relative; the summary
    # held
    ("value", "example1", 0,
     "9e332645a5f42e618e560112425484e633c5737cb8e2313c56ea7f8858e57b96",
     "415260c1cf3906452bbd15a9a31e30b459957db49ecb45296fb7e558f96e2d4d"),
    ("value", "deterministic2d", 0,
     "20d7a808286fc078a1e4a518be8aa3e33f7183054982b1b93a6134c14c365547",
     "2e593245c18dce7dc746ac00d2094f6f069e621c11b9d57f46cc0134069f14da"),
    # summaries re-recorded when sens began to read only the two steps it
    # combines and to name just those: the CSVs held.  CSV and summary
    # re-recorded when quad and time sums of adapted tables came to be read
    # off regime counts: the formulas held, the differences and their
    # standard errors moved by at most 1.6e-15 relative; on the strong
    # row the gap, itself a rounding-level number that the summary prints,
    # went from 1.1e-16 to 8.9e-16, and its 1.5e-11 tolerance moved by
    # 1.1e-5 relative.  CSV re-recorded when ito sums of adapted tables
    # came to be read off per-regime increment sums: only se_fd moved, by
    # at most 1.4e-16 relative, and the strong row's tolerance, by 1.7e-14;
    # the summary held
    ("sens", "example1", 0,
     "91f3bc0f86cf29c486251a6c7583bfd9b27e9481c7f772805d5b6d0d1d8aa587",
     "429c3ae44084655220e715e0851e999a02db3b77379e1704aedb6ad438567384"),
    # summary re-recorded when sens began to state weak - strong for a
    # deterministic market and direction, one line (-0.0167947, 2.33
    # sigma: ok); the CSV held
    ("sens", "deterministic2d", 0,
     "805907b2880bc6c022eea4849410aa9c466fc050ada22679f37811df06515c3d",
     "c278df8e1c136db627622bed6a0735318c6ba093e6d037ad0e19b4a9d20e026f"),
    # re-recorded when the decay check moved from the below-tangent part
    # to |residual|: only the slope and vacuous columns changed
    # CSV re-recorded when quad and time sums of adapted tables came to be
    # read off regime counts: slopes moved by at most 6.4e-15 relative and
    # residuals, differences of nearly equal values, by 9.0e-14; the
    # summary held
    ("secondorder", "example1", 0,
     "9b6fd24f7411815a98f2a2d71c0273f9f190bac2b99190b1ec58602b9e32c234",
     "be2876b2186d89388edf9623b8caaccee4697ecf13c73b1b49bbec18e3ac53e7"),
    ("secondorder", "deterministic2d", 0,
     "e966b6bf56fe00b061dd3f7b6370462095a554a6a8a785379895015c19ea7a7f",
     "2f1eb92ea6e9650256e70a2628cb6a2faf3e6c85befb0e26144528d9ed02693f"),
    ("norms", "example1", 2, None, None),  # log utility: refused, no CSV
    ("norms", "deterministic2d", 0,
     "9130ca4e6d905338f4313537501db7cfa913ba95e0200f32a94b2f2d190b5fc9",
     "99bbadcb1f063ae03d16e5b2e8974d0d2bb0d8c13f51a4ef3acfa2cae00b7df7"),
    ("norms", "norms", 0,
     "939c68238084b9ceeb7978e554a6f15baf81cffc589020d26742a9e6424c2e13",
     "0ce49356bb36d8972074d438e2fef5d868ef31662a65bce3610d52d73b46b89f"),
    ("h1check", "h1_kernel", 0,
     "881ca22758fdfa5a31bce16e005219cb56c38da2f6210f557015f75db49e51e0",
     "55b151db1176b5f7f010210ede38ecaef46c6280cb60b471d82ef7c25886990f"),
    ("example1", None, 3,
     "7930a3e9b04f4367f7959653b5a2900cc6225c7b7dd0402adf311aa6fed48f4f",
     "426bf90d292abfb215639500e418f7c2c48acf10823b1bd93c9788445b24353e"),
    # CSV re-recorded when path_sums began to gather constant tables
    # densely, as every other table: the deterministic row's value and
    # sigmas moved by at most 5.6e-16 relative; the summary held
    ("example2", None, 0,
     "475119681610224e4ccf49e64f8dff63b8f8a8213d5f4c45437b6c701e9d1be3",
     "9389becb9e8da74b687dce0ad94a542620195a525211b09f0566bbc555f69982"),
]


IDS = [f"{c}-{g or 'flags'}" for c, g, *_ in GOLDEN]
CASE = "command,config,code,csv_digest,summary_digest"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(argv, code, tmp_path, capsys):
    """sha256 of the CSV and of the summary that ``portsens argv`` writes,
    None for each it did not write, after checking the exit code and that
    stdout is the summary."""
    assert main(argv + SMALL + ["--out", str(tmp_path)]) == code
    stdout = capsys.readouterr().out
    stem = STEM[argv[0]]
    csv_path = tmp_path / f"{stem}.csv"
    summary_path = tmp_path / f"{stem}_summary.txt"
    summary = summary_path.read_text() if summary_path.exists() else ""
    assert stdout == summary
    return (_sha256(csv_path.read_bytes()) if csv_path.exists() else None,
            _sha256(summary.replace(f"wrote {tmp_path}", "wrote OUT")
                    .encode()) if summary_path.exists() else None)


def command_argv(command, config):
    return [command] + (["--config", f"configs/{config}.ini"]
                        if config else [])


@pytest.mark.parametrize(CASE, GOLDEN, ids=IDS)
def test_csv_bytes_match_golden(command, config, code, csv_digest,
                                summary_digest, tmp_path, capsys):
    assert digests(command_argv(command, config), code, tmp_path,
                   capsys) == (csv_digest, summary_digest)


@pytest.mark.parametrize(CASE, GOLDEN, ids=IDS)
def test_csv_bytes_match_golden_in_7_path_blocks(command, config, code,
                                                 csv_digest, summary_digest,
                                                 tmp_path, capsys,
                                                 monkeypatch):
    # the default block holds all 2000 short paths; 7-path blocks, fixed
    # through every ensemble's block_paths, make every pass cross block
    # boundaries, which must not move a byte
    seven = functools.partial(PathEnsemble, block_paths=7)
    monkeypatch.setattr(cli, "PathEnsemble", seven)
    monkeypatch.setattr(sensitivity, "PathEnsemble", seven)
    assert digests(command_argv(command, config), code, tmp_path,
                   capsys) == (csv_digest, summary_digest)


@pytest.mark.parametrize(CASE, GOLDEN, ids=IDS)
def test_csv_bytes_match_golden_in_small_blocks(command, config, code,
                                                csv_digest, summary_digest,
                                                tmp_path, capsys,
                                                monkeypatch):
    # a 3.5 kB scratch budget makes the computed blocks small, 4 paths on
    # the sign-switching market where a pass reads per-regime increment
    # sums (example2 and example1.ini), 6 for example1, which only counts,
    # and 7 on deterministic ones, with an uneven last block; the sizes
    # must not move a byte either
    monkeypatch.setattr(paths, "_SCRATCH_BYTES", 7 * 512)
    assert digests(command_argv(command, config), code, tmp_path,
                   capsys) == (csv_digest, summary_digest)


@pytest.mark.parametrize(CASE, GOLDEN, ids=IDS)
def test_exit_code_and_verdict_columns_follow_the_checks(
        command, config, code, csv_digest, summary_digest, tmp_path,
        capsys):
    # main exits 3 iff a summary check line fails.  Each verdict cell of
    # the CSV is its check's, in row order: secondorder's one decay check
    # stands on every row, and sens's weak - strong check has no row
    argv = command_argv(command, config) + SMALL + ["--out", str(tmp_path)]
    assert main(argv) == code
    checks = [(line, line.endswith(": ok"))
              for line in capsys.readouterr().out.splitlines()
              if line.endswith((": ok", ": FAIL"))]
    assert (code == 3) == any(not ok for _, ok in checks)
    csv_path = tmp_path / f"{STEM[command]}.csv"
    if not csv_path.exists():  # a refusal writes nothing
        assert code == 2 and not checks
        return
    with open(csv_path, newline="") as fh:
        records = list(csv.DictReader(fh))
    cells = [rec[col] == "true" for rec in records
             for col in ("verdict", "ok", "passed") if rec.get(col)]
    want = [ok for line, ok in checks
            if not (command == "sens" and line.startswith("  weak - strong"))]
    if command == "secondorder":
        want *= len(records)
    assert cells == want


@pytest.mark.parametrize("name", ["switch-adapted", "norms-incomplete",
                                  "sens-det2d"])
def test_benchmark_bytes_match_its_reference(name, tmp_path, monkeypatch,
                                             capsys):
    # the benchmark refuses a change whose CSV at a workload's default seed
    # differs from the digest in perfbench/reference.json; run each
    # byte-checked workload's command line here, in-process, against it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    work = WORKLOADS[name]
    assert main(work.argv(work.default_seed, str(tmp_path))) in (0, 3)
    capsys.readouterr()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert _sha256((tmp_path / work.csv).read_bytes()) \
        == reference["digests"][name]
