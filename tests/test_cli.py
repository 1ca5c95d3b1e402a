"""Command-line surface tests (run in-process through main)."""

import json
import warnings

import numpy as np
import pytest

from potd import cli, errors
from potd.cli import main
from potd.core import LabeledDataset
from potd.baselines import sir_fit
from potd.harness import (
    SplitConfig,
    accuracy,
    fit_method,
    knn_predict,
    load_csv_dataset,
    run_real_benchmark,
    save_csv_dataset,
    stratified_split,
)
from potd.synthetic import gen_cshape, gen_svm3d


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def model_csv(tmp_path):
    path = tmp_path / "model1.csv"
    assert run_cli(
        "gen", "--model", "I", "--n", "200", "--p", "6", "--seed", "5",
        "--dump", str(path),
    ) == 0
    return str(path)


@pytest.fixture
def cshape_csv(tmp_path):
    path = tmp_path / "cshape.csv"
    assert run_cli(
        "gen", "--model", "cshape", "--n-per-class", "150", "--seed", "2",
        "--dump", str(path),
    ) == 0
    return str(path)


FIT_HELP = """\
usage: potd fit [-h] --data DATA [--label-column LABEL_COLUMN]
                [--delimiter DELIMITER] --r R [--whiten | --no-whiten]
                [--solver {auto,exact,sinkhorn}] [--epsilon EPSILON]
                [--max-iterations MAX_ITERATIONS]
                [--marginal-tolerance MARGINAL_TOLERANCE] --output OUTPUT
                [--seed SEED] [--config CONFIG]
                [--log-level {debug,info,warning,error}]

options:
  -h, --help            show this help message and exit
  --data DATA           input CSV path
  --label-column LABEL_COLUMN
                        label column name or 0-based index (default: label)
  --delimiter DELIMITER
                        CSV field delimiter (default: ,)
  --r R                 number of directions to keep
  --whiten, --no-whiten
                        whiten predictors before fitting (default: on)
  --solver {auto,exact,sinkhorn}
                        coupling solver; auto picks exact below the size limit
                        (default: auto)
  --epsilon EPSILON     entropic regularization; default is 0.05 x median cost
  --max-iterations MAX_ITERATIONS
                        scaling iteration budget (default: 10000)
  --marginal-tolerance MARGINAL_TOLERANCE
                        L1 marginal tolerance for the regularized solver
                        (default: 1e-09)
  --output OUTPUT       basis CSV output path
  --seed SEED           RNG seed (default: 42)
  --config CONFIG       JSON file whose keys override the given flags
  --log-level {debug,info,warning,error}
                        logging verbosity (default: warning)
"""

GEN_HELP = """\
usage: potd gen [-h] --model {I,II,III,IV,cshape,svm3d} [--n N] [--p P]
                [--n-per-class N_PER_CLASS] [--noise-scale NOISE_SCALE]
                [--standardize {per-class,pooled,none}] --dump DUMP
                [--seed SEED] [--config CONFIG]
                [--log-level {debug,info,warning,error}]

options:
  -h, --help            show this help message and exit
  --model {I,II,III,IV,cshape,svm3d}
                        generator to draw from
  --n N                 sample size (default: 400)
  --p P                 ambient dimension (default: 10)
  --n-per-class N_PER_CLASS
                        per-class size for cshape/svm3d (default: 300)
  --noise-scale NOISE_SCALE
                        label-noise scale for the sign models (default: 0.2)
  --standardize {per-class,pooled,none}
                        cshape standardization (default: per-class)
  --dump DUMP           CSV output path
  --seed SEED           RNG seed (default: 42)
  --config CONFIG       JSON file whose keys override the given flags
  --log-level {debug,info,warning,error}
                        logging verbosity (default: warning)
"""


class TestHelpAndUsage:
    @pytest.mark.parametrize(
        "cmd",
        ["fit", "embed", "gen", "bench-synthetic", "bench-real", "oracle-check"],
    )
    def test_help_exits_zero(self, cmd, capsys):
        assert run_cli(cmd, "--help") == 0
        out = capsys.readouterr().out
        assert "--seed" in out

    def test_version(self, capsys):
        assert run_cli("--version") == 0

    def test_unknown_command_usage_error(self):
        assert run_cli("frobnicate") == 2

    @pytest.mark.parametrize(
        "cmd, text", [("fit", FIT_HELP), ("gen", GEN_HELP)], ids=["fit", "gen"]
    )
    def test_help_states_every_default_and_choice(self, cmd, text, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(cmd, "--help") == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "fit --data d.csv --r 1 --output b.csv --solver x",
                "argument --solver: invalid choice: 'x' (choose from 'auto', 'exact', 'sinkhorn')",
            ),
            (
                "gen --model cshape --dump d.csv --standardize x",
                "argument --standardize: invalid choice: 'x' "
                "(choose from 'per-class', 'pooled', 'none')",
            ),
        ],
        ids=["solver", "standardize"],
    )
    def test_choice_outside_the_list_exit_2(self, argv, message, capsys):
        argv = argv.split()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"potd {argv[0]}: error: {message}"

    NO_R = "potd fit: error: the following arguments are required: --r"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("fit --data {data} --output {out}", NO_R),
            ("fit --data {data} --auto-dim 0.9 --output {out}", NO_R),
            (
                "fit --data {data} --r 2 --auto-dim 0.9 --output {out}",
                "potd: error: unrecognized arguments: --auto-dim 0.9",
            ),
        ],
        ids=["no-r", "auto-dim-for-r", "auto-dim-beside-r"],
    )
    def test_fit_needs_r_exit_2(self, argv, message, model_csv, tmp_path, capsys):
        out = tmp_path / "basis.csv"
        assert run_cli(*argv.format(data=model_csv, out=out).split()) == 2
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert not out.exists()

    def test_config_solver_outside_the_modes_exit_2(self, model_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": "x"}))
        out = tmp_path / "basis.csv"
        assert run_cli(
            "fit", "--data", model_csv, "--r", "1", "--output", str(out), "--config", str(cfg)
        ) == 2
        assert capsys.readouterr().err == (
            "potd: error: invalid-input: config key 'solver' has invalid choice 'x'; "
            "choose from auto, exact, sinkhorn\n"
        )
        assert not out.exists()

    NEGATIVE_SEED = "seed must be a nonnegative integer"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("bench-synthetic --models I --methods PCA --n 60 --seed -1", NEGATIVE_SEED),
            ("bench-real --data {data} --methods PCA --dims 2 --seed -1", NEGATIVE_SEED),
            ("oracle-check --size 3 --seed -1", NEGATIVE_SEED),
            ("bench-real --data {data} --methods PCA --dims 2 --k 0", "K must be >= 1"),
            (
                "bench-real --data {data} --methods PCA --dims 2 --k 1000",
                "K=1000 exceeds training size 100",
            ),
            (
                "bench-real --data {data} --methods PCA --dims 2 --test-fraction 0.001",
                "test_fraction=0.001 leaves no test points",
            ),
            (
                "bench-real --data {data} --methods PCA,POTD --dims 0,-1,2",
                "dims must be >= 1, got 0",
            ),
        ],
        ids=[
            "bench-synthetic-seed",
            "bench-real-seed",
            "oracle-check-seed",
            "bench-real-k",
            "bench-real-k-above-train",
            "bench-real-empty-test",
            "bench-real-dims-below-one",
        ],
    )
    def test_negative_seed_or_k_below_one_exit_2(self, argv, message, model_csv, tmp_path, capsys):
        argv = argv.format(data=model_csv).split()
        out = tmp_path / "r.json"
        if argv[0] != "oracle-check":
            argv += ["--replications", "2", "--output", str(out)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"potd: error: invalid-input: {message}\n"
        # rejected before any replication runs, so no report is written
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            ("bench-real --data {data} --methods , --dims 2", "methods"),
            ("bench-real --data {data} --methods PCA --dims ,", "dims"),
            ("bench-synthetic --models , --methods PCA --n 60", "models"),
            ("bench-synthetic --models I --p-values , --methods PCA --n 60", "p_values"),
            ("bench-synthetic --models I --methods , --n 60", "methods"),
        ],
        ids=["bench-real-methods", "bench-real-dims", "models", "p-values", "methods"],
    )
    def test_empty_list_exit_2(self, argv, name, model_csv, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = argv.format(data=model_csv).split() + ["--replications", "1", "--output", str(out)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"potd: error: invalid-input: no {name} given\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("bench-real --data {data} --methods PCA,SIR,PCA --dims 2", "methods repeats 'PCA'"),
            ("bench-real --data {data} --methods PCA --dims 2,02", "dims repeats 2"),
            ("bench-synthetic --models I,I --methods PCA --n 60", "models repeats 'I'"),
            ("bench-synthetic --models I --p-values 10,10 --methods PCA --n 60",
             "p_values repeats 10"),
            ("bench-synthetic --models I --methods PCA,PCA --n 60", "methods repeats 'PCA'"),
        ],
        ids=["bench-real-methods", "bench-real-dims", "models", "p-values", "methods"],
    )
    def test_repeated_entry_exit_2(self, argv, message, model_csv, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = argv.format(data=model_csv).split() + ["--replications", "1", "--output", str(out)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"potd: error: invalid-input: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("column", ["7", "-1"])
    def test_label_column_index_out_of_range_exit_2(self, column, model_csv, tmp_path, capsys):
        # the file has seven columns: six features and the label
        out = tmp_path / "b.csv"
        argv = ["fit", "--data", model_csv, "--r", "1", "--output", str(out)]
        assert run_cli(*argv, "--label-column", column) == 2
        assert capsys.readouterr().err == (
            f"potd: error: dataset-schema: {model_csv}: label column index {column} "
            "out of range for 7 columns\n"
        )
        assert not out.exists()


class TestFit:
    def test_writes_orthonormal_basis(self, model_csv, tmp_path):
        out = tmp_path / "basis.csv"
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2", "--output", str(out)
        ) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "v1,v2"
        mat = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
        assert mat.shape == (6, 2)
        assert np.allclose(mat.T @ mat, np.eye(2), atol=1e-10)
        sv = (tmp_path / "basis.csv.singular_values.csv").read_text().splitlines()
        assert sv[0] == "singular_value"
        meta = json.loads((tmp_path / "basis.csv.meta.json").read_text())
        assert meta["config"]["r"] == 2

    def test_r_above_the_stack_rows_is_clamped(self, tmp_path):
        path = tmp_path / "two.csv"
        save_csv_dataset(LabeledDataset([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]], [1, 2]), str(path))
        out = tmp_path / "basis.csv"
        with pytest.warns(UserWarning, match="clamping r from 3 to 2"):
            assert run_cli(
                "fit", "--data", str(path), "--r", "3", "--no-whiten", "--output", str(out)
            ) == 0
        assert out.read_text().splitlines()[0] == "v1,v2"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "fit", "--data", str(tmp_path / "nope.csv"), "--r", "2",
            "--output", str(tmp_path / "b.csv"),
        )
        assert code == 2
        assert "dataset not found" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["nan", "NaN", ""])
    def test_missing_label_exit_2(self, missing, tmp_path, capsys):
        rows = [f"{i},{i % 7},{'a' if i < 20 else 'b'}" for i in range(39)]
        path = tmp_path / "nan_label.csv"
        path.write_text("\n".join(["x1,x2,label", *rows, f"1.0,2.0,{missing}"]) + "\n")
        code = run_cli(
            "fit", "--data", str(path), "--r", "1", "--output", str(tmp_path / "b.csv")
        )
        assert code == 2
        assert "missing label" in capsys.readouterr().err

    def test_overflowing_epsilon_prints_one_error_line(self, model_csv, tmp_path, capsys):
        # C / epsilon overflows; the degenerate potentials report it once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(
                "fit", "--data", model_csv, "--r", "2", "--solver", "sinkhorn",
                "--epsilon", "1e-307", "--max-iterations", "20",
                "--output", str(tmp_path / "b.csv"),
            ) == 1
        assert caught == []
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("potd: error: numeric: scaling potentials degenerated")

    def test_deterministic_output_bytes(self, model_csv, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run_cli(
                "fit", "--data", model_csv, "--r", "2", "--output", str(out)
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_file_overrides_flags(self, model_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 3}))
        out = tmp_path / "basis.csv"
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2", "--output", str(out),
            "--config", str(cfg),
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header == "v1,v2,v3"

    def test_unknown_config_key_exit_2(self, model_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp_factor": 9}))
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2",
            "--output", str(tmp_path / "b.csv"), "--config", str(cfg),
        ) == 2


    def test_config_string_converted_like_flag_text(self, model_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": "3"}))
        out = tmp_path / "basis.csv"
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2", "--output", str(out),
            "--config", str(cfg),
        ) == 0
        assert out.read_text().splitlines()[0] == "v1,v2,v3"

    @pytest.mark.parametrize("value, match", [("two", "'r'"), (None, "'r' cannot be null")])
    def test_config_bad_value_exit_2(self, value, match, model_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": value}))
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2",
            "--output", str(tmp_path / "b.csv"), "--config", str(cfg),
        ) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("potd: error: invalid-input: ")
        assert match in line

    def test_config_setting_both_r_and_auto_dim_exit_2(self, model_csv, tmp_path, capsys):
        # a config holding auto_dim, as older sidecars do, names an unknown key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"auto_dim": 0.9}))
        out = tmp_path / "b.csv"
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2", "--output", str(out),
            "--config", str(cfg),
        ) == 2
        assert capsys.readouterr().err == (
            "potd: error: invalid-input: unknown config key 'auto_dim'\n"
        )
        assert not out.exists()

    def test_sidecar_config_fed_back(self, model_csv, tmp_path):
        out = tmp_path / "basis.csv"
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2", "--output", str(out)
        ) == 0
        config = json.loads((tmp_path / "basis.csv.meta.json").read_text())["config"]
        assert config["command"] == "fit"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        again = tmp_path / "again.csv"
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2", "--output", str(again),
            "--config", str(cfg),
        ) == 0
        # the sidecar's output path wins, as any config key over its flag
        assert not again.exists()
        assert json.loads((tmp_path / "basis.csv.meta.json").read_text())["config"] == config

    def test_config_naming_another_command_exit_2(self, model_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "embed"}))
        out = tmp_path / "b.csv"
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2", "--output", str(out),
            "--config", str(cfg),
        ) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("potd: error: invalid-input: ")
        assert "'command'" in line and "'embed'" in line
        assert not out.exists()


class TestConfigFile:
    @pytest.mark.parametrize(
        "argv, key",
        [
            ("fit --data {data} --r 2 --output {out}", "output"),
            ("fit --data {data} --r 2 --output {out}", "data"),
            ("embed --data {data} --method PCA --r 2 --output {out}", "r"),
            ("gen --model I --dump {out}", "model"),
        ],
        ids=["fit-output", "fit-data", "embed-r", "gen-model"],
    )
    def test_null_for_a_required_flag_exit_2(self, argv, key, model_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        out = tmp_path / "out.csv"
        argv = argv.format(data=model_csv, out=out).split() + ["--config", str(cfg)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            f"potd: error: invalid-input: config key {key!r} cannot be null\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "{",
                "json-decode: Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)",
            ),
            ("[1]", "invalid-input: config file must contain a JSON object"),
            ('{"whiten": "yes"}', "invalid-input: config key 'whiten' must be true or false"),
        ],
        ids=["malformed", "not-an-object", "not-a-boolean"],
    )
    def test_bad_config_file_exit_2(self, text, message, model_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "b.csv"
        assert run_cli(
            "fit", "--data", model_csv, "--r", "2", "--output", str(out),
            "--config", str(cfg),
        ) == 2
        assert capsys.readouterr().err == f"potd: error: {message}\n"
        assert not out.exists()


class TestEmbed:
    def test_pca_embedding_columns(self, model_csv, tmp_path):
        out = tmp_path / "emb.csv"
        assert run_cli(
            "embed", "--data", model_csv, "--method", "PCA", "--r", "2",
            "--output", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z1,z2,label"
        assert len(lines) == 201

    def test_cshape_classes_separate_under_potd(self, cshape_csv, tmp_path):
        # per-class standardization forces identical class means, so the
        # figure's qualitative separation is quantified as local (KNN)
        # separability of the 2-D embedding instead of a mean gap
        out = tmp_path / "emb.csv"
        assert run_cli(
            "embed", "--data", cshape_csv, "--method", "POTD", "--r", "2",
            "--output", str(out),
        ) == 0
        emb = load_csv_dataset(str(out), "label")
        rng = np.random.default_rng(np.random.SeedSequence([72]))
        train_idx, test_idx = stratified_split(emb.y, 0.5, rng)
        pred = knn_predict(
            LabeledDataset(emb.X[train_idx], emb.y[train_idx]),
            emb.X[test_idx],
            10,
        )
        assert accuracy(pred, emb.y[test_idx]) >= 0.65

    def test_r_exceeding_p_exit_2(self, model_csv, tmp_path):
        assert run_cli(
            "embed", "--data", model_csv, "--method", "PCA", "--r", "99",
            "--output", str(tmp_path / "e.csv"),
        ) == 2


# README's exit codes: 2 for bad input, 1 for a solver that failed on it
EXIT_CODES = [
    (errors.InvalidInputError, "invalid-input", 2),
    (errors.DegenerateInputError, "degenerate-input", 2),
    (errors.DatasetParseError, "dataset-parse", 2),
    (errors.DatasetSchemaError, "dataset-schema", 2),
    (FileNotFoundError, "file-not-found", 2),
    (errors.ConvergenceError, "convergence", 1),
    (errors.NumericError, "numeric", 1),
]


class TestExitCodes:
    def test_every_error_class_has_a_code(self):
        raised = {exc for exc, _, _ in EXIT_CODES}
        leaves = {
            cls
            for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.PotdError)
            and not cls.__subclasses__()
        }
        assert leaves <= raised

    @pytest.mark.parametrize("exc, kind, code", EXIT_CODES)
    def test_command_error_maps_to_exit_code(self, exc, kind, code, monkeypatch, capsys):
        def failing(args):
            raise exc("no luck\non two lines")

        monkeypatch.setattr(cli, "_cmd_fit", failing)
        assert run_cli("fit", "--data", "d.csv", "--r", "1", "--output", "b.csv") == code
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"potd: error: {kind}: no luck on two lines"

    @pytest.mark.parametrize(
        "command",
        [["fit", "--r", "1"], ["embed", "--method", "PCA", "--r", "1"], ["bench-real"]],
        ids=lambda command: command[0],
    )
    def test_label_only_csv_exits_2(self, command, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("label\na\nb\na\nb\n")
        output = tmp_path / "out"
        assert run_cli(*command, "--data", str(data), "--output", str(output)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"potd: error: dataset-schema: {data}: no predictor column "
                        "besides the label column")
        assert not output.exists()

    @pytest.mark.parametrize(
        "exc, kind",
        [
            (json.JSONDecodeError("x", "{", 1), "json-decode"),
            (OSError(), "os"),
            (errors.InvalidInputError(), "invalid-input"),
            (FileNotFoundError(), "file-not-found"),
            (IsADirectoryError(), "is-a-directory"),
            (np.linalg.LinAlgError(), "lin-alg"),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else value,
    )
    def test_error_kind_splits_words_and_keeps_acronyms_whole(self, exc, kind):
        assert cli._error_kind(exc) == kind


class TestGen:
    @pytest.mark.parametrize(
        "model, draw",
        [
            ("svm3d", lambda: gen_svm3d(20, 4)),
            ("cshape", lambda: gen_cshape(20, 4, standardize="pooled")),
        ],
    )
    def test_writes_the_generator_draw(self, model, draw, tmp_path):
        out, ref = tmp_path / "cli.csv", tmp_path / "ref.csv"
        # --n sizes only the sign models; the per-class generators ignore it
        assert run_cli(
            "gen", "--model", model, "--n", "1", "--n-per-class", "20",
            "--standardize", "pooled", "--seed", "4", "--dump", str(out),
        ) == 0
        save_csv_dataset(draw()[0], str(ref))
        assert out.read_bytes() == ref.read_bytes()


class TestBenchSynthetic:
    def test_report_contains_requested_rows(self, tmp_path):
        out = tmp_path / "rep.json"
        csv_out = tmp_path / "rep.csv"
        assert run_cli(
            "bench-synthetic", "--models", "I", "--p-values", "5",
            "--methods", "POTD,PCA", "--n", "80", "--replications", "2",
            "--output", str(out), "--csv", str(csv_out),
        ) == 0
        payload = json.loads(out.read_text())
        settings = {(r["method"], r["setting"]) for r in payload["rows"]}
        assert settings == {("POTD", "I-5"), ("PCA", "I-5")}
        assert payload["config"]["replications"] == 2
        assert "timestamp" in payload["meta"]
        assert csv_out.read_text().startswith("schema_version,method")

    def test_unknown_method_lists_valid(self, tmp_path, capsys):
        code = run_cli(
            "bench-synthetic", "--methods", "POTD,BANANA",
            "--replications", "1", "--output", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "POTD, SIR, SAVE, PCA" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_replications_exit_2(self, reps, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli(
            "bench-synthetic", "--models", "I", "--methods", "PCA",
            "--replications", reps, "--output", str(out),
        )
        assert code == 2
        assert "replications must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_list_parsed_like_flag_text(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": "POTD,PCA"}))
        out = tmp_path / "rep.json"
        assert run_cli(
            "bench-synthetic", "--models", "I", "--p-values", "5", "--n", "60",
            "--replications", "1", "--output", str(out), "--config", str(cfg),
        ) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["method"] for row in rows] == ["POTD", "PCA"]

    @pytest.mark.parametrize(
        "workers, cap, match",
        [("-3", None, "workers must be >= 1"), ("2", "abc", "POTD_MAX_THREADS")],
    )
    def test_bad_worker_settings_exit_2(
        self, workers, cap, match, tmp_path, capsys, monkeypatch
    ):
        if cap is not None:
            monkeypatch.setenv("POTD_MAX_THREADS", cap)
        out = tmp_path / "r.json"
        code = run_cli(
            "bench-synthetic", "--models", "I", "--methods", "PCA", "--n", "60",
            "--replications", "2", "--workers", workers, "--output", str(out),
        )
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("potd: error: invalid-input: ")
        assert match in line
        assert not out.exists()

    def test_deterministic_modulo_timestamp(self, tmp_path):
        out = tmp_path / "rep.json"
        outs = []
        for _ in range(2):
            assert run_cli(
                "bench-synthetic", "--models", "I", "--p-values", "5",
                "--methods", "PCA", "--n", "60", "--replications", "2",
                "--output", str(out),
            ) == 0
            payload = json.loads(out.read_text())
            # the timestamp is confined to the meta block
            payload["meta"].pop("timestamp")
            outs.append(payload)
        assert outs[0] == outs[1]


class TestBenchReal:
    def test_defaults_echoed(self, model_csv, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(
            "bench-real", "--data", model_csv, "--methods", "PCA",
            "--dims", "2", "--replications", "2", "--output", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["K"] == 10
        assert payload["meta"]["cli_config"]["k"] == 10
        assert payload["config"]["setting"] == "model1"
        assert payload["meta"]["cli_config"]["setting"] == "model1"

    def test_default_dims(self):
        from potd.cli import build_parser

        args = build_parser().parse_args(
            ["bench-real", "--data", "x.csv", "--output", "y.json"]
        )
        assert args.dims == [2, 4, 6, 8, 10]
        assert args.k == 10

    def test_missing_label_column_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2\n1,2\n3,4\n")
        code = run_cli(
            "bench-real", "--data", str(path), "--replications", "1",
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 2


    def test_config_bad_choice_exit_2(self, model_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"split": "bogus"}))
        out = tmp_path / "rep.json"
        code = run_cli(
            "bench-real", "--data", model_csv, "--methods", "PCA", "--dims", "2",
            "--replications", "1", "--output", str(out), "--config", str(cfg),
        )
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("potd: error: invalid-input: ")
        assert "'split'" in line and "stratified, random" in line
        assert not out.exists()


    def test_overflowed_distances_leave_stderr_quiet(self, tmp_path, capsys):
        # one coordinate near 1e160: the covariance stays finite, but the
        # projected points' squared distances overflow inside KNN
        rng = np.random.default_rng(np.random.SeedSequence([75]))
        path = tmp_path / "huge.csv"
        rows = [
            f"{1e160 * (1.0 + 1e-10 * a)!r},{b!r},{'ab'[i % 2]}"
            for i, (a, b) in enumerate(rng.normal(size=(40, 2)).tolist())
        ]
        path.write_text("\n".join(["x1,x2,label", *rows]) + "\n")
        out = tmp_path / "rep.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(
                "bench-real", "--data", str(path), "--methods", "PCA", "--dims", "1",
                "--replications", "1", "--output", str(out),
            ) == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        (row,) = json.loads(out.read_text())["rows"]
        assert row["values"] == []
        assert "overflow" in row["failures"]["0"]

    def test_overflowed_covariance_records_a_failure(self, tmp_path, capsys):
        # one column near 1e200 with a relative spread of 1e-3: its centred
        # squares overflow the covariance of every method's first step
        rng = np.random.default_rng(np.random.SeedSequence([76]))
        path = tmp_path / "huge.csv"
        rows = [
            f"{1e200 * (1.0 + 1e-3 * a)!r},{b!r},{'ab'[i % 2]}"
            for i, (a, b) in enumerate(rng.normal(size=(40, 2)).tolist())
        ]
        path.write_text("\n".join(["x1,x2,label", *rows]) + "\n")
        out = tmp_path / "rep.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(
                "bench-real", "--data", str(path), "--methods", "PCA,POTD",
                "--dims", "1", "--replications", "1", "--output", str(out),
            ) == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        for row in json.loads(out.read_text())["rows"]:
            assert row["values"] == []
            assert "covariance is not finite" in row["failures"]["0"]


class TestClampWarning:
    @pytest.mark.parametrize("entry", ["sir_fit", "fit_method", "bench-real", "embed"])
    def test_names_the_caller_outside_the_package(self, entry, tmp_path):
        # binary SIR has one direction, so r = 2 is clamped at every entry
        rng = np.random.default_rng(np.random.SeedSequence([79]))
        X = rng.normal(size=(40, 3)) + np.repeat([[0.0], [2.0]], 20, axis=0)
        data = LabeledDataset(X, np.repeat(["a", "b"], 20))
        path = tmp_path / "binary.csv"
        save_csv_dataset(data, str(path))
        calls = {
            "sir_fit": lambda: sir_fit(data, 2),
            "fit_method": lambda: fit_method("SIR", data, 2),
            "bench-real": lambda: run_real_benchmark(
                data, ["SIR"], [2], split=SplitConfig(replications=1), K=5
            ),
            "embed": lambda: run_cli(
                "embed", "--data", str(path), "--method", "SIR", "--r", "2",
                "--output", str(tmp_path / "embedding.csv"),
            ),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calls[entry]()
        (warning,) = caught
        assert str(warning.message) == "the fit found 1 direction(s); clamping r from 2 to 1"
        assert warning.filename == __file__


class TestOracleCheck:
    def test_default_passes(self, capsys):
        assert run_cli("oracle-check", "--size", "6") == 0
        out = capsys.readouterr().out
        assert "oracle check passed" in out

    def test_size_cap_exit_2(self):
        assert run_cli("oracle-check", "--size", "20") == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--size", "1"], "size must be >= 2"),
            (["--epsilon-grid", "0"], "epsilon grid must contain positive factors"),
        ],
        ids=["size-below-two", "epsilon-grid-zero"],
    )
    def test_bad_size_or_grid_exit_2(self, argv, message, capsys):
        assert run_cli("oracle-check", *argv) == 2
        assert capsys.readouterr().err == f"potd: error: invalid-input: {message}\n"

    def test_skewed_exact_cost_reports_violations(self, monkeypatch, capsys):
        # a stand-in that adds 1 to every exact cost: the enumeration gap is
        # 1 at each size, and the entropic cost at the smaller epsilon falls
        # below the skewed exact one
        transport_cost = cli.transport_cost
        monkeypatch.setattr(
            cli,
            "transport_cost",
            lambda coupling, cost: transport_cost(coupling, cost)
            + (1.0 if coupling.dual_row is None else 0.0),
        )
        assert run_cli("oracle-check", "--size", "3", "--epsilon-grid", "0.5,0.1") == 1
        out, err = capsys.readouterr()
        assert "oracle check passed" not in out
        assert out.count("<-- VIOLATION") == 3
        assert err.splitlines() == [
            "oracle violation: permutation oracle n=2 seed=42 gap=1.000e+00",
            "oracle violation: permutation oracle n=3 seed=42 gap=1.000e+00",
            "oracle violation: dominance violated at eps factor 0.1 seed=42",
        ]

    def test_rising_entropic_gap_reports_violations(self, monkeypatch, capsys):
        # a stand-in that puts the entropic costs at 1.5 and then 2 times the
        # last exact cost: the gap rises as epsilon falls, and the final one
        # is 100% of the exact cost
        transport_cost = cli.transport_cost
        exact, factors = [], iter([1.5, 2.0])

        def skewed(coupling, cost):
            value = transport_cost(coupling, cost)
            if coupling.dual_row is None:
                exact.append(value)
                return value
            return next(factors) * exact[-1]

        monkeypatch.setattr(cli, "transport_cost", skewed)
        assert run_cli("oracle-check", "--size", "3", "--epsilon-grid", "0.5,0.1") == 1
        out, err = capsys.readouterr()
        assert "oracle check passed" not in out
        assert out.count("<-- VIOLATION") == 1
        assert err.splitlines() == [
            "oracle violation: gap not nonincreasing at eps factor 0.1 seed=42",
            "oracle violation: final gap 100.00% above 1% at smallest epsilon seed=42",
        ]

    def test_stdout_ignores_rounding_noise(self, monkeypatch, capsys):
        # gaps print relative to the largest cost and marginal errors in
        # mass units, both at a resolution of 1e-9
        assert run_cli("oracle-check", "--size", "5") == 0
        expected = capsys.readouterr().out
        transport_cost = cli.transport_cost
        monkeypatch.setattr(
            cli, "transport_cost", lambda *args: transport_cost(*args) * (1.0 + 1e-13)
        )
        assert run_cli("oracle-check", "--size", "5") == 0
        assert capsys.readouterr().out == expected

    def test_gap_table_nonincreasing(self, capsys):
        assert run_cli("oracle-check", "--size", "5") == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.strip() and line.lstrip()[0].isdigit()
        ]
        gaps = [float(line.split()[2]) for line in lines]
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
