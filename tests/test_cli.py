import json
import os
import shutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import unlinkeval as ue
from unlinkeval.cli import main
from unlinkeval.errors import KeyCountWarning, StatisticalAdequacyWarning
from unlinkeval.protocol import SCHEMA_VERSION, ScoreEngine, synthetic_engine

warnings.simplefilter("ignore", StatisticalAdequacyWarning)
warnings.simplefilter("ignore", KeyCountWarning)


@pytest.fixture
def gaussian_csvs(tmp_path):
    rng = np.random.default_rng(77)
    mated = tmp_path / "mated.csv"
    non_mated = tmp_path / "nonmated.csv"
    mated.write_text("\n".join(repr(float(v)) for v in rng.normal(0.3, 0.05, 1200)) + "\n")
    non_mated.write_text("\n".join(repr(float(v)) for v in rng.normal(0.7, 0.05, 1200)) + "\n")
    return mated, non_mated


class TestEval:
    def test_prints_d_sys_and_writes_artifacts(self, gaussian_csvs, tmp_path, capsys):
        mated, non_mated = gaussian_csvs
        out = tmp_path / "out"
        rc = main(["eval", "--mated", str(mated), "--nonmated", str(non_mated),
                   "--out", str(out), "--plot"])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("D_sys = ")
        float(line.split("=")[1])  # exactly one numeric field, 4 decimals
        assert len(line.split("=")[1].strip().split(".")[1]) == 4
        for name in ("profile.json", "densities.json", "baselines.json", "linkability.svg"):
            assert (out / name).exists(), name

    def test_separated_scores_are_fully_linkable(self, gaussian_csvs, capsys):
        mated, non_mated = gaussian_csvs
        rc = main(["eval", "--mated", str(mated), "--nonmated", str(non_mated)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "D_sys = 1.0000" in out

    @pytest.fixture
    def lattice_csvs(self, tmp_path):
        # three score levels with ratios 3, 1, 1/3: no infinities anywhere,
        # so the prior alone decides how much of the mass is linkable
        mated = [0.4] * 600 + [0.5] * 400 + [0.6] * 200
        non_mated = [0.4] * 200 + [0.5] * 400 + [0.6] * 600
        mp, nmp = tmp_path / "lm.csv", tmp_path / "lnm.csv"
        mp.write_text("\n".join(repr(float(v)) for v in mated) + "\n")
        nmp.write_text("\n".join(repr(float(v)) for v in non_mated) + "\n")
        return mp, nmp

    def test_default_prior_is_worst_case(self, lattice_csvs, capsys):
        mated, non_mated = lattice_csvs
        # LR = 3 on half the mated mass: D = 0.5 there, 0.25 overall
        assert main(["eval", "--mated", str(mated), "--nonmated", str(non_mated)]) == 0
        assert "D_sys = 0.2500" in capsys.readouterr().out

    def test_explicit_omega_scales_linkability(self, lattice_csvs, capsys):
        mated, non_mated = lattice_csvs
        # LR*omega = 1.5 -> D = 0.2 on half the mated mass
        assert main(["eval", "--mated", str(mated), "--nonmated", str(non_mated),
                     "--omega", "0.5"]) == 0
        assert "D_sys = 0.1000" in capsys.readouterr().out

    def test_subjects_flag_sets_prior(self, lattice_csvs, capsys):
        mated, non_mated = lattice_csvs
        # omega = 1e-6 pushes every finite ratio under the activation threshold
        assert main(["eval", "--mated", str(mated), "--nonmated", str(non_mated),
                     "--subjects", "1000001"]) == 0
        assert "D_sys = 0.0000" in capsys.readouterr().out

    def test_nonpositive_omega_is_a_usage_error(self, gaussian_csvs, capsys):
        mated, non_mated = gaussian_csvs
        rc = main(["eval", "--mated", str(mated), "--nonmated", str(non_mated),
                   "--omega", "0"])
        assert rc == 2
        assert "omega must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("subjects", ["1", "1" + "0" * 400])
    def test_bad_subject_count_is_a_usage_error(self, gaussian_csvs, capsys, subjects):
        mated, non_mated = gaussian_csvs
        rc = main(["eval", "--mated", str(mated), "--nonmated", str(non_mated),
                   "--subjects", subjects])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: n_enrolled ")

    def test_omega_and_subjects_conflict(self, gaussian_csvs, capsys):
        mated, non_mated = gaussian_csvs
        rc = main(["eval", "--mated", str(mated), "--nonmated", str(non_mated),
                   "--omega", "1", "--subjects", "10"])
        assert rc == 2

    @pytest.mark.parametrize("options", [[], ["--bins", "10"], ["--kde"]], ids=["auto-bins", "bins-10", "kde"])
    def test_scores_beyond_the_float_range_are_exit_2(self, score_csv, capsys, options):
        mated, non_mated = score_csv([1e308, -1e308], [0.1, 0.2])
        rc = main(["eval", "--mated", str(mated), "--nonmated", str(non_mated), *options])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: scores from -1e+308 to 1e+308 span more than a float64 grid can hold; rescale them\n")

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        rc = main(["eval", "--mated", str(tmp_path / "no.csv"),
                   "--nonmated", str(tmp_path / "no.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_plot_requires_out(self, gaussian_csvs, capsys):
        mated, non_mated = gaussian_csvs
        rc = main(["eval", "--mated", str(mated), "--nonmated", str(non_mated), "--plot"])
        assert rc == 2


class TestSynth:
    def test_writes_score_files_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = main(["synth", "--scheme", "xor", "--function", "pic_hd",
                   "--subjects", "6", "--samples", "2", "--bits", "256",
                   "--keys", "4", "--seed", "3", "--out", str(out)])
        assert rc == 0
        for name in ("mated.csv", "nonmated.csv", "accuracy_mated.csv",
                     "accuracy_nonmated.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["k"] == 4
        assert manifest["n_mated"] == 6 * 6 * 4  # subjects * key pairs * sample grid
        # each file holds one side of the engine's tables, its rows ascending
        corpus = ue.CorpusConfig(n_subjects=6, samples_per_subject=2, template_bits=256,
                                 intra_flip_rate=0.1, seed=3)
        engine = synthetic_engine(corpus, 4, "xor-salt")
        for prefix, tables in (("", ue.cross_database_scores(engine, "pic_hd")),
                               ("accuracy_", ue.same_key_scores(engine, "pic_hd"))):
            for side, table in (("mated", tables.mated), ("nonmated", tables.non_mated)):
                header, *rows = (out / f"{prefix}{side}.csv").read_text().splitlines()
                assert header == "score,label"
                assert rows == [f"{v!r},{side}" for v in np.repeat(table.values, table.counts).tolist()]

    def test_deterministic_across_runs(self, tmp_path, capsys):
        args = ["synth", "--scheme", "block", "--function", "pic_hd",
                "--subjects", "4", "--samples", "2", "--bits", "256",
                "--keys", "3", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("mated.csv", "nonmated.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("bits", ["64", "100"])
    def test_xor_salting_needs_no_other_schemes_geometry(self, tmp_path, capsys, bits):
        """One 64-bit block has one order, and 100 bits fill neither block."""
        rc = main(["synth", "--scheme", "xor", "--function", "pic_hd", "--subjects", "5",
                   "--bits", bits, "--out", str(tmp_path / "x")])
        assert rc == 0
        assert json.loads((tmp_path / "x" / "manifest.json").read_text())["template_bits"] == int(bits)
        rc = main(["synth", "--scheme", "block", "--function", "pic_hd", "--subjects", "5",
                   "--bits", bits, "--out", str(tmp_path / "y")])
        assert rc == 2

    def test_single_key_is_an_error(self, tmp_path, capsys):
        rc = main(["synth", "--scheme", "xor", "--function", "pic_hd",
                   "--subjects", "4", "--samples", "2", "--bits", "256",
                   "--keys", "1", "--seed", "3", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_bloom_reconstruction_needs_experimental(self, tmp_path, capsys):
        base = ["synth", "--scheme", "bloom", "--function", "reconstruction",
                "--subjects", "4", "--samples", "2", "--bits", "512",
                "--keys", "3", "--seed", "3"]
        rc = main(base + ["--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        rc = main(base + ["--experimental", "--out", str(tmp_path / "y")])
        assert rc == 0

    def test_zero_block_size_is_one_line_exit_2(self, tmp_path, capsys):
        rc = main(["synth", "--scheme", "block", "--function", "pic_hd",
                   "--subjects", "4", "--samples", "2", "--bits", "256",
                   "--keys", "3", "--block-size", "0", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == "error: block_size must be a positive integer, got 0\n"

    def test_negative_seed_is_exit_2_naming_the_field(self, tmp_path, capsys):
        rc = main(["synth", "--scheme", "xor", "--function", "pic_hd",
                   "--subjects", "4", "--samples", "2", "--bits", "256",
                   "--keys", "3", "--seed", "-3", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -3\n"

    @pytest.mark.parametrize("earlier_run", [False, True], ids=["empty", "earlier-run"])
    def test_failed_scoring_leaves_no_score_files(self, tmp_path, monkeypatch, capsys, earlier_run):
        """Out of memory at the 21st non-mated block of the cross-key tally.
        Files of an earlier complete run in --out go too; other files stay."""
        from unlinkeval import kernels, scores

        out = tmp_path / "synth"
        argv = ["synth", "--scheme", "xor", "--function", "pic_hd",
                "--subjects", "12", "--samples", "2", "--bits", "256",
                "--keys", "6", "--seed", "3", "--out", str(out)]
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        if earlier_run:
            assert main(argv) == 0
            assert len(list(out.iterdir())) == 6
        capsys.readouterr()
        real = ScoreEngine.distinct_subjects

        def exhausted(*args):
            for n, block in enumerate(real(*args)):
                if n == 20:
                    raise MemoryError("Unable to allocate 1.00 TiB")
                yield block

        monkeypatch.setattr(ScoreEngine, "distinct_subjects", exhausted)
        monkeypatch.setattr(kernels, "TILE_ROWS", 2)
        monkeypatch.setattr(scores, "CSV_BLOCK", 5)
        rc = main(argv)
        assert rc == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.00 TiB\n"
        assert [path.name for path in out.iterdir()] == ["notes.txt"]

    def test_out_naming_a_file_reports_the_mkdir_error(self, tmp_path, capsys):
        """The cleanup cannot remove files under a file; the error that
        failed the run is the one reported, and the file stays."""
        out = tmp_path / "taken"
        out.write_text("kept\n")
        rc = main(["synth", "--scheme", "xor", "--function", "pic_hd", "--subjects", "4",
                   "--bits", "256", "--keys", "3", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and "Not a directory" not in err
        assert out.read_text() == "kept\n"

    def test_writing_rows_warns_of_no_estimate(self, tmp_path, capsys):
        """synth writes rows and estimates nothing, so it warns of no small
        side; run_protocol on the same corpus warns once per small side."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synth", "--scheme", "xor", "--function", "pic_hd", "--subjects", "6",
                         "--keys", "6", "--bits", "256", "--out", str(tmp_path / "synth")]) == 0
        assert [str(w.message) for w in caught] == []
        corpus = ue.CorpusConfig(n_subjects=6, samples_per_subject=4, template_bits=256,
                                 intra_flip_rate=0.1, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ue.run_protocol(ue.ProtocolConfig(linkage_functions=("pic_hd",), k=6, corpus=corpus))
        small = [str(w.message).split(";")[0] for w in caught if w.category is StatisticalAdequacyWarning]
        # the same-key accuracy sides, then the cross-key non-mated one
        assert small == ["mated side has 216 scores", "nonmated side has 90 scores", "nonmated side has 225 scores"]

    def test_permuted_xor_needs_block_scheme(self, tmp_path, capsys):
        rc = main(["synth", "--scheme", "xor", "--function", "permuted_xor",
                   "--subjects", "4", "--samples", "2", "--bits", "256",
                   "--keys", "3", "--seed", "3", "--out", str(tmp_path / "x")])
        assert rc == 2


class TestCompare:
    def test_table_and_artifacts(self, tmp_path, capsys):
        synth_dir = tmp_path / "synth"
        assert main(["synth", "--scheme", "xor", "--function", "pic_hd",
                     "--subjects", "8", "--samples", "2", "--bits", "512",
                     "--keys", "4", "--seed", "5", "--out", str(synth_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "cmp"
        rc = main(["compare",
                   "--accuracy-mated", str(synth_dir / "accuracy_mated.csv"),
                   "--accuracy-nonmated", str(synth_dir / "accuracy_nonmated.csv"),
                   "--crosskey-mated", str(synth_dir / "mated.csv"),
                   "--crosskey-nonmated", str(synth_dir / "nonmated.csv"),
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        for label in ("EER_accuracy", "EER_crosskey", "EER_rtmr",
                      "KL(mated||nonmated)", "D_sys"):
            assert label in text
        for name in ("comparison.json", "det_comparison.svg",
                     "rtmr_comparison.svg", "linkability.svg"):
            assert (out / name).exists(), name
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["schema_version"] == SCHEMA_VERSION == 1
        assert 0.0 <= doc["d_sys"] <= 1.0


    def test_kde_of_a_constant_side_that_reaches_no_bin_is_exit_2(self, tmp_path, capsys):
        # a constant side's fallback bandwidth is 1e-6, far narrower than a
        # bin: every kernel term underflows at the bin centres
        rng = np.random.default_rng(5)
        mated, non_mated = tmp_path / "m.csv", tmp_path / "nm.csv"
        mated.write_text("0.3037\n" * 2000)
        non_mated.write_text("".join(f"{float(v)!r}\n" for v in rng.normal(0.5, 0.1, 3000)))
        argv = ["compare", "--accuracy-mated", str(mated), "--accuracy-nonmated", str(non_mated),
                "--crosskey-mated", str(mated), "--crosskey-nonmated", str(non_mated)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--out", str(tmp_path / "hist")]) == 0
            capsys.readouterr()
            assert main(argv + ["--kde", "--out", str(tmp_path / "kde")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: every kernel term of the mated scores underflows at the bin centres")
        assert "bandwidth 1e-06 against a bin width of" in err
        assert err.count("\n") == 1


class TestCrossCommandAgreement:
    """compare on synth's four score files and run_protocol on the same
    corpus, keys and linkage function report the same assessment."""

    SHARED = ("d_sys", "kl", "profile", "densities", "eer_crosskey", "eer_accuracy", "eer_rtmr")

    def test_compare_and_protocol_agree(self, tmp_path, capsys):
        synth_dir, out = tmp_path / "synth", tmp_path / "cmp"
        assert main(["synth", "--scheme", "xor", "--function", "pic_hd", "--subjects", "30",
                     "--keys", "6", "--seed", "11", "--out", str(synth_dir)]) == 0
        assert main(["compare",
                     "--accuracy-mated", str(synth_dir / "accuracy_mated.csv"),
                     "--accuracy-nonmated", str(synth_dir / "accuracy_nonmated.csv"),
                     "--crosskey-mated", str(synth_dir / "mated.csv"),
                     "--crosskey-nonmated", str(synth_dir / "nonmated.csv"),
                     "--out", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())

        corpus = ue.CorpusConfig(n_subjects=30, samples_per_subject=4, template_bits=1024,
                                 intra_flip_rate=0.1, seed=11)
        report = ue.run_protocol(ue.ProtocolConfig(
            linkage_functions=("pic_hd",), k=6, scheme="xor-salt", corpus=corpus,
        ))
        entry = report.per_function["pic_hd"]
        for key in self.SHARED:
            assert entry[key] == comparison[key], key
        assert entry["eer_accuracy"] is not None and entry["eer_rtmr"] is not None


class TestProtocol:
    def _write_config(self, tmp_path, out_name="out"):
        cfg = {
            "linkage_functions": ["pic_hd", "hamming_weight"],
            "k": 6,
            "scheme": "xor-salt",
            "corpus": {"n_subjects": 6, "samples_per_subject": 2,
                       "template_bits": 256, "intra_flip_rate": 0.1, "seed": 8},
            "out_dir": out_name,
        }
        path = tmp_path / "protocol.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_runs_and_reports(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        rc = main(["protocol", str(cfg)])
        assert rc == 0
        out_text = capsys.readouterr().out
        assert "report written to" in out_text
        assert "D_sys = " in out_text
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema_version"] == 1

    def test_byte_identical_reports(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert main(["protocol", str(cfg)]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["protocol", str(cfg)]) == 0
        second = (tmp_path / "out" / "report.json").read_bytes()
        assert first == second

    def test_boolean_corpus_seed_is_exit_2_naming_it(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"seed": 8', '"seed": true'))
        assert main(["protocol", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got True\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        rc = main(["protocol", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_invalid_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["protocol", str(bad)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        text = cfg.read_bytes()
        cfg.write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["protocol", str(cfg)]) == 0
        assert "D_sys = " in capsys.readouterr().out
        # a second mark is text, which JSON does not allow
        cfg.write_bytes(b"\xef\xbb\xbf" * 2 + text)
        assert main(["protocol", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:1: config is not valid JSON: Unexpected UTF-8 BOM")

    @pytest.mark.parametrize("name, text, line, kind", [
        ("bad.json", '{"k": 3,}', 1, "JSON"),
        ("bad.toml", "k = 3\nk = 4\n", 2, "TOML"),
    ])
    def test_syntax_error_names_the_config(self, tmp_path, capsys, name, text, line, kind):
        if kind == "TOML":
            pytest.importorskip("tomllib")
        bad = tmp_path / name
        bad.write_text(text)
        assert main(["protocol", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: config is not valid {kind}: ")
        assert err.count("\n") == 1

    def test_toml_config_depends_on_runtime(self, tmp_path, capsys):
        toml = tmp_path / "protocol.toml"
        toml.write_text('linkage_functions = ["pic_hd"]\nk = 6\n')
        rc = main(["protocol", str(toml)])
        try:
            import tomllib  # noqa: F401
        except ImportError:
            assert rc == 2
            assert "TOML" in capsys.readouterr().err
        else:
            # parses, then fails validation: no corpus and no score files
            assert rc == 2


class TestEncodingErrors:
    """A file that is not UTF-8 is named, with the line of its first bad byte."""

    @pytest.mark.parametrize("ends", ["\n", "\r\n", "\r"])
    def test_compare_names_the_score_file(self, gaussian_csvs, tmp_path, capsys, ends):
        mated, non_mated = gaussian_csvs
        bad = tmp_path / "bad.csv"
        rows = ["score,label", "0.1,mated", "0.2,mated", "0.8,nonmated"]
        bad.write_bytes(ends.join(rows).encode() + ends.encode() + b"0.9,non\xffmated" + ends.encode())
        rc = main(["compare", "--accuracy-mated", str(mated), "--accuracy-nonmated", str(non_mated),
                   "--crosskey-mated", str(mated), "--crosskey-nonmated", str(bad)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}:5: not UTF-8 text: byte 0xff\n"

    def test_protocol_names_the_config(self, tmp_path, capsys):
        cfg = TestProtocol._write_config(TestProtocol(), tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b'"pic_hd"', b'"pic_\xe9hd"', 1))
        assert main(["protocol", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:1: not UTF-8 text: byte 0xe9")


class TestOutOfMemory:
    @pytest.mark.parametrize("message", ["Unable to allocate 5.99 GiB for an array", ""])
    def test_memory_error_is_exit_2_with_one_line(self, gaussian_csvs, monkeypatch, capsys, message):
        import unlinkeval.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError(message) if message else MemoryError()

        monkeypatch.setattr(cli, "load_score_set", exhausted)
        mated, non_mated = gaussian_csvs
        rc = main(["compare", "--accuracy-mated", str(mated), "--accuracy-nonmated", str(non_mated),
                   "--crosskey-mated", str(mated), "--crosskey-nonmated", str(non_mated), "--kde"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")

    def test_memory_error_in_protocol_is_exit_2(self, tmp_path, monkeypatch, capsys):
        import unlinkeval.cli as cli

        def exhausted(cfg):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(cli, "run_protocol", exhausted)
        cfg = TestProtocol._write_config(TestProtocol(), tmp_path)
        assert main(["protocol", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.00 TiB\n"


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("unlink-eval") is None,
                        reason="console script not on PATH")
    def test_console_script_help(self):
        proc = subprocess.run(["unlink-eval", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "protocol" in proc.stdout

    def test_numpy_ma_is_never_imported(self, tmp_path):
        # a bare np.unique or np.setdiff1d imports numpy.ma, tens of
        # milliseconds of every run; the block re-mapping ring of 4 blocks
        # draws repeated keys, so the redraw runs too
        script = textwrap.dedent("""
            import sys, warnings
            from pathlib import Path
            import unlinkeval as ue
            from unlinkeval.cli import main
            warnings.simplefilter("ignore")
            out = Path(sys.argv[1])
            corpus = ue.CorpusConfig(n_subjects=8, samples_per_subject=2, template_bits=256,
                                     intra_flip_rate=0.1, seed=3)
            ue.run_protocol(ue.ProtocolConfig(
                linkage_functions=("pic_hd", "hamming_weight", "permuted_xor", "reconstruction"),
                k=4, scheme="block-remap", corpus=corpus, out_dir=str(out / "protocol"),
            ))
            scores = str(out / "protocol" / "pic_hd_scores.csv")
            assert main(["compare", "--accuracy-mated", scores, "--accuracy-nonmated", scores,
                         "--crosskey-mated", scores, "--crosskey-nonmated", scores,
                         "--kde", "--out", str(out / "compare")]) == 0
            assert "numpy.ma" not in sys.modules
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            cwd=Path(__file__).resolve().parents[1], env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_malformed_csv_in_a_fresh_process(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("score,label\n0.1,mated\n0.2,mated\n0.8,nonmated\n0.9,nonmated\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("score,label\n0.1,mated\n0.2,mated,0.3\n0.4,mated\n")
        proc = subprocess.run(
            [sys.executable, "-m", "unlinkeval.cli", "compare",
             "--accuracy-mated", str(bad), "--accuracy-nonmated", str(good),
             "--crosskey-mated", str(good), "--crosskey-nonmated", str(good), "--kde"],
            capture_output=True, text=True, timeout=120,
            cwd=Path(__file__).resolve().parents[1], env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 2
        assert f"{bad}:3:" in proc.stderr
