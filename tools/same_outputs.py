"""Check that two source trees write the same bytes through the command line.

Usage: python tools/same_outputs.py OLD_SRC NEW_SRC

Runs one fixed, small matrix of `python -m unlinkeval.cli` commands with
each tree first on PYTHONPATH, every command in a fresh process and its own
directory:

- `protocol` for every scheme, with every linkage function the scheme
  supports and an out_dir (report.json, score CSVs, SVGs);
- `protocol` with distinct-samples mated pairs and non_mated_all_pairs;
- `protocol` on block re-mapping with every linkage function and
  constant_key, and `synth --constant-key` on Bloom filters: one key
  repeated K times, whose key pairs all share the identity relative key;
- `synth` for every scheme;
- `eval --out --plot` and `compare --kde --out` on one synth output;
- `eval --out` on three copies of that output's score files that the tool
  writes itself: a headerless single column, which the loader converts
  with np.loadtxt; one with CRLF line ends, an upper-case header and
  padded labels, which it parses line by line; and one file in that form
  holding both sides, named as both, which it streams once per side.

For every command it compares the exit code, stdout (with the run
directory and the source tree replaced by placeholders) and the sha256 of
every file in the command's directory.  Stderr is not compared: warnings
name the tree's own files.  Prints each difference, and exits 1 if there
is any or if a command exits non-zero in either tree (every command of
the matrix should succeed), 0 otherwise.  With the same tree twice
(`src src`) it checks that two processes write the same bytes.  Standard
library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = {"n_subjects": 20, "samples_per_subject": 3, "template_bits": 256,
          "intra_flip_rate": 0.1, "seed": 5}
GEOMETRY = {"k": 10, "block_size": 16, "bloom_width": 16, "bloom_height": 4}
# large enough that the cross-key pic_hd pass (45 relative keys, 5.4M words
# of XOR-popcount) reaches protocol.THREAD_MIN_WORDS and is split over the
# host's cores, where every other pass runs on the calling thread
ALL_PAIRS_CORPUS = dict(CORPUS, n_subjects=40, template_bits=1024)

# scheme: (its synth name, the linkage functions it supports)
SCHEMES = {
    "xor-salt": ("xor", ["pic_hd", "hamming_weight", "reconstruction"]),
    "block-remap": ("block", ["pic_hd", "hamming_weight", "permuted_xor", "reconstruction"]),
    "bloom-filter": ("bloom", ["pic_hd", "hamming_weight", "reconstruction"]),
    "none": ("none", ["pic_hd", "hamming_weight", "reconstruction"]),
}

# the synth output that eval and compare read
SCORES = "../synth-block/out/"
EVAL_COPY = ["eval", "--mated", "mated.csv", "--nonmated", "nonmated.csv", "--out", "out"]
EVAL_COMBINED = ["eval", "--mated", "scores.csv", "--nonmated", "scores.csv", "--out", "out"]


def write_config(config: dict):
    """A step that writes config.json into a command's directory."""
    return lambda where: (where / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")


def copy_scores(header: str, row, names=("mated.csv", "nonmated.csv")):
    """A step that writes each side of the synth output into a command's
    directory, to the file of the same place in names: the header, then
    every data row rewritten by row(score, label).  Sides given the same
    name share one file, mated rows first."""
    def write(where: Path):
        texts = {}
        for side, name in zip(("mated", "nonmated"), names):
            lines = (where / SCORES / f"{side}.csv").read_text(encoding="utf-8").splitlines()
            texts[name] = texts.get(name, header) + "".join(row(*line.split(",")) for line in lines[1:])
        for name, text in texts.items():
            (where / name).write_bytes(text.encode("utf-8"))
    return write


def commands() -> list:
    """(name, step that prepares the command's directory or None, cli
    arguments) of every command, in run order."""
    runs = []
    for scheme, (_, functions) in SCHEMES.items():
        config = {"linkage_functions": functions, "scheme": scheme, "corpus": CORPUS, "out_dir": "out",
                  "allow_approximate_bloom": True, **GEOMETRY}
        runs.append((f"protocol-{scheme}", write_config(config), ["protocol", "config.json"]))
    config = {"linkage_functions": SCHEMES["block-remap"][1], "scheme": "block-remap", "corpus": ALL_PAIRS_CORPUS,
              "out_dir": "out", "mated_pairing": "distinct-samples", "non_mated_all_pairs": True, **GEOMETRY}
    runs.append(("protocol-all-pairs", write_config(config), ["protocol", "config.json"]))
    config = {"linkage_functions": SCHEMES["block-remap"][1], "scheme": "block-remap", "corpus": CORPUS,
              "out_dir": "out", "constant_key": True, **GEOMETRY}
    runs.append(("protocol-constant-key", write_config(config), ["protocol", "config.json"]))
    synth = ["synth", "--function", "pic_hd", "--subjects", str(CORPUS["n_subjects"]),
             "--samples", str(CORPUS["samples_per_subject"]), "--bits", str(CORPUS["template_bits"]),
             "--keys", str(GEOMETRY["k"]), "--seed", str(CORPUS["seed"]),
             "--block-size", str(GEOMETRY["block_size"]), "--out", "out"]
    for name, _ in SCHEMES.values():
        runs.append((f"synth-{name}", None, [*synth, "--scheme", name]))
    runs.append(("synth-constant-key", None, [*synth, "--scheme", "bloom", "--constant-key"]))
    runs.append(("eval", None, ["eval", "--mated", SCORES + "mated.csv", "--nonmated", SCORES + "nonmated.csv",
                                "--out", "out", "--plot"]))
    runs.append(("compare", None, [
        "compare", "--accuracy-mated", SCORES + "accuracy_mated.csv",
        "--accuracy-nonmated", SCORES + "accuracy_nonmated.csv", "--crosskey-mated", SCORES + "mated.csv",
        "--crosskey-nonmated", SCORES + "nonmated.csv", "--kde", "--out", "out",
    ]))
    # the same scores in the form the loader converts with np.loadtxt, and
    # in a form that only its line parser reads, one file per side or both
    # sides in one
    padded = ("SCORE,LABEL\r\n", lambda score, label: f"{score}, {label} \r\n")
    runs.append(("eval-headerless", copy_scores("", lambda score, label: f"{score}\n"), EVAL_COPY))
    runs.append(("eval-padded", copy_scores(*padded), EVAL_COPY))
    runs.append(("eval-padded-combined", copy_scores(*padded, names=("scores.csv", "scores.csv")), EVAL_COMBINED))
    return runs


def run_tree(src: Path, root: Path) -> dict:
    """Every command's exit code, stdout and written files' digests, run from src in root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    results = {}
    for name, prepare, args in commands():
        where = root / name
        where.mkdir()
        if prepare is not None:
            prepare(where)
        done = subprocess.run([sys.executable, "-m", "unlinkeval.cli", *args], cwd=where, env=env,
                              capture_output=True, text=True)
        stdout = done.stdout.replace(str(where), "<run>").replace(str(src), "<src>")
        files = {str(path.relative_to(where)): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(where.rglob("*")) if path.is_file()}
        results[name] = {"exit": done.returncode, "stdout": stdout, "files": files}
    return results


def differences(old: dict, new: dict) -> list:
    """One line per command output that differs between the two runs."""
    lines = []
    for name in old:
        a, b = old[name], new[name]
        for key in ("exit", "stdout"):
            if a[key] != b[key]:
                lines.append(f"{name}: {key} differs: {a[key]!r} vs {b[key]!r}")
        for path in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(path) != b["files"].get(path):
                lines.append(f"{name}: {path} differs (sha256 {a['files'].get(path)} vs {b['files'].get(path)})")
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_src, new_src = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for side, src in (("old", old_src), ("new", new_src)):
            (Path(tmp) / side).mkdir()
            runs.append(run_tree(src, Path(tmp) / side))
    lines = differences(*runs)
    for line in lines:
        print(line)
    files = sum(len(result["files"]) for result in runs[0].values())
    failed = sorted({name for run in runs for name, result in run.items() if result["exit"] != 0})
    print(f"{len(runs[0])} commands, {files} files: " + (f"{len(lines)} differences" if lines else "identical"))
    if failed:
        print(f"exited non-zero: {', '.join(failed)}")
    return 1 if lines or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
