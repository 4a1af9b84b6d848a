import json

import numpy as np
import pytest

from nandarrange import (
    ArchConfig,
    BlockPattern,
    NetworkConfig,
    init_params,
    load_mapping_table,
    save_checkpoint,
    save_pattern,
    tensor_build_count,
)
from nandarrange.cli import main, parse_run_config
from nandarrange.errors import InvalidArgument


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_dataset(tmp_path, capsys, blocks=10, wordlines=5, cells=4, seed=0, name="data"):
    out = tmp_path / name
    code = main(
        [
            "gen",
            "--out", str(out),
            "--blocks", str(blocks),
            "--wordlines", str(wordlines),
            "--cells", str(cells),
            "--seed", str(seed),
        ]
    )
    capsys.readouterr()
    assert code == 0
    return out


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        a = gen_dataset(tmp_path, capsys, name="a", seed=1)
        b = gen_dataset(tmp_path, capsys, name="b", seed=1)
        for pa in sorted(a.glob("*.pdap")):
            pb = b / pa.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_manifest_records_generator_and_seeds(self, tmp_path, capsys):
        out = gen_dataset(tmp_path, capsys, seed=3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["generator"] == "numpy-pcg64"
        assert [b["seed"] for b in manifest["blocks"]] == [3 + k for k in range(10)]

    def test_two_wordlines_rejected(self, tmp_path, capsys):
        code, _, err = run(
            ["gen", "--out", str(tmp_path / "x"), "--blocks", "1", "--wordlines", "2"],
            capsys,
        )
        assert code == 1

    def test_split_after_gen(self, tmp_path, capsys):
        out = gen_dataset(tmp_path, capsys, blocks=10)
        code, _, _ = run(["split", "--data-dir", str(out), "--seed", "0"], capsys)
        assert code == 0
        manifest = json.loads((out / "split_manifest.json").read_text())
        assert len(manifest["train"]) == 7 and len(manifest["test"]) == 3
        assert set(manifest["train"]) | set(manifest["test"]) == {
            p.name for p in out.glob("*.pdap")
        }


class TestScore:
    def test_all_zero_block_prints_2560(self, tmp_path, capsys):
        path = tmp_path / "zeros.pdap"
        save_pattern(path, BlockPattern(np.zeros((4, 1), dtype=np.uint8)))
        code, out, _ = run(["score", "--in", str(path)], capsys)
        assert code == 0
        assert float(out.strip()) == 2560.0

    def test_malformed_file_exits_2_with_bad_magic(self, tmp_path, capsys):
        path = tmp_path / "junk.pdap"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        code, _, err = run(["score", "--in", str(path)], capsys)
        assert code == 2
        assert "BadMagic" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["score", "--in", str(tmp_path / "nope.pdap")], capsys)
        assert code == 2

    @pytest.mark.parametrize("shape", [(2, 4), (0, 0), (3, 0)])
    @pytest.mark.parametrize("command", ["score", "arrange", "simulate"])
    def test_degenerate_pattern_exits_2(self, tmp_path, capsys, shape, command):
        path = tmp_path / "degenerate.pdap"
        save_pattern(path, BlockPattern(np.zeros(shape, dtype=np.uint8)))
        extra = ["--solver", "greedy"] if command == "arrange" else []
        code, _, err = run([command, "--in", str(path), *extra], capsys)
        assert code == 2
        assert "cannot read pattern" in err

    def test_degenerate_pattern_in_dataset_exits_2(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=5, cells=4)
        save_pattern(data / "block_9999.pdap", BlockPattern(np.zeros((2, 4), dtype=np.uint8)))
        code, _, _ = run(["compare", "--data-dir", str(data), "--solvers", "greedy"], capsys)
        assert code == 2

    def test_three_wordline_block_matches_page_triple(self, tmp_path, capsys):
        from nandarrange import page_triple_score

        cells = np.array([[0, 3], [15, 8], [0, 1]], dtype=np.uint8)
        path = tmp_path / "t.pdap"
        save_pattern(path, BlockPattern(cells))
        code, out, _ = run(["score", "--in", str(path)], capsys)
        cfg = ArchConfig(num_wordlines=3, cells_per_page=2)
        assert float(out.strip()) == page_triple_score(cells[0], cells[1], cells[2], cfg)


class TestArrange:
    def test_exhaustive_n4_evaluates_24(self, tmp_path, capsys):
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=4, cells=4)
        block = next(out.glob("*.pdap"))
        map_path = tmp_path / "best.pdam"
        code, stdout, _ = run(
            ["arrange", "--in", str(block), "--solver", "exhaustive", "--out-map", str(map_path)],
            capsys,
        )
        assert code == 0
        assert "evaluations=24" in stdout
        table = load_mapping_table(map_path)
        assert sorted(table.entries) == [0, 1, 2, 3]

    @pytest.mark.parametrize("solver", ["exhaustive", "greedy", "sa"])
    def test_arranged_not_worse_than_original(self, tmp_path, capsys, solver):
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=5, cells=6, seed=8)
        block = next(out.glob("*.pdap"))
        code, stdout, _ = run(
            ["arrange", "--in", str(block), "--solver", solver, "--iterations", "200"],
            capsys,
        )
        assert code == 0
        fields = dict(part.split("=") for part in stdout.split()[:3])
        assert float(fields["arranged"]) >= float(fields["original"])

    def test_lstm_requires_model(self, tmp_path, capsys):
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=4, cells=4)
        block = next(out.glob("*.pdap"))
        code, _, err = run(["arrange", "--in", str(block), "--solver", "lstm"], capsys)
        assert code == 1

    def test_lstm_builds_zero_score_tensors(self, tmp_path, capsys):
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=4, cells=4)
        block = next(out.glob("*.pdap"))
        netcfg = NetworkConfig(input_dim=4, hidden_size=4, output_dim=4)
        model_path = tmp_path / "model.pdaw"
        save_checkpoint(model_path, init_params(netcfg, seed=0), netcfg)
        code, stdout, _ = run(
            [
                "arrange",
                "--in", str(block),
                "--solver", "lstm",
                "--model", str(model_path),
                "--out-map", str(tmp_path / "m.pdam"),
                "--stats",
            ],
            capsys,
        )
        assert code == 0
        assert "tensor_builds=0" in stdout

    def test_exhaustive_too_large_exits_1(self, tmp_path, capsys):
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=10, cells=2)
        block = next(out.glob("*.pdap"))
        code, _, err = run(["arrange", "--in", str(block), "--solver", "exhaustive"], capsys)
        assert code == 1
        assert "TooManyWordlines" in err


class TestTrainCommand:
    def _config(self, tmp_path, epochs=2):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "network": {"hidden_size": 4, "num_linear_layers": 1},
                    "train": {"epochs": epochs, "seed": 5, "learning_rate": 0.001},
                }
            )
        )
        return cfg_path

    def test_writes_checkpoint_and_loss_csv(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        model = tmp_path / "model.pdaw"
        code, stdout, _ = run(
            [
                "train",
                "--data-dir", str(data),
                "--config", str(self._config(tmp_path, epochs=3)),
                "--out-model", str(model),
            ],
            capsys,
        )
        assert code == 0
        assert model.exists()
        lines = (tmp_path / "model.pdaw.loss.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 1 + 3
        assert "initial_mean_score=" in stdout and "final_mean_score=" in stdout

    def test_builds_each_training_tensor_once(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        before = tensor_build_count()
        code, _, _ = run(
            [
                "train",
                "--data-dir", str(data),
                "--config", str(self._config(tmp_path, epochs=1)),
                "--out-model", str(tmp_path / "model.pdaw"),
            ],
            capsys,
        )
        assert code == 0
        assert tensor_build_count() - before == 7  # the 7:3 split's training blocks

    def test_rerun_is_bit_identical(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        cfg_path = self._config(tmp_path)
        out_a, out_b = tmp_path / "a.pdaw", tmp_path / "b.pdaw"
        for out in (out_a, out_b):
            code, _, _ = run(
                ["train", "--data-dir", str(data), "--config", str(cfg_path), "--out-model", str(out)],
                capsys,
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"training": {"epochs": 1}}))
        code, _, err = run(
            ["train", "--data-dir", str(data), "--config", str(bad), "--out-model", str(tmp_path / "m.pdaw")],
            capsys,
        )
        assert code == 1


class TestConfigErrors:
    @pytest.mark.parametrize(
        "command, document",
        [
            ("train", {"train": {"epochs": 1.5}}),
            ("train", {"train": {"epochs": True}}),
            ("train", {"train": {"seed": 1.5}}),
            ("train", {"train": {"learning_rate": "x"}}),
            ("train", {"network": {"hidden_size": 2.5}}),
            ("train", {"arch": {"num_wordlines": 5}}),
            ("train", {"arch": {"cells_per_page": 4}}),
            ("simulate", {"retention": {"coupling": "x"}}),
            ("simulate", {"retention": {"coupling": 1e200, "time": 1e200}}),
        ],
    )
    def test_bad_value_exits_1_with_typed_error(self, tmp_path, capsys, command, document):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document))
        if command == "train":
            argv = ["train", "--data-dir", str(data), "--config", str(config),
                    "--out-model", str(tmp_path / "m.pdaw")]
        else:
            argv = ["simulate", "--in", str(next(data.glob("*.pdap"))),
                    "--retention-config", str(config)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "InvalidArgument" in err
        assert "Traceback" not in err

    def test_matching_arch_int_for_float_and_null_are_accepted(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "arch": {"num_wordlines": 4, "cells_per_page": 8},
            "network": {"hidden_size": 2},
            "train": {"epochs": 1, "learning_rate": 1, "gradient_clip_norm": None},
        }))
        code, _, _ = run(
            ["train", "--data-dir", str(data), "--config", str(config),
             "--out-model", str(tmp_path / "m.pdaw")],
            capsys,
        )
        assert code == 0


class TestSimulate:
    def test_zero_physics_zero_ber(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=1, wordlines=5, cells=8)
        block = next(data.glob("*.pdap"))
        rconf = tmp_path / "r.json"
        rconf.write_text(json.dumps({"retention": {"coupling": 0.0, "noise_sigma": 0.0}}))
        code, out, _ = run(
            ["simulate", "--in", str(block), "--retention-config", str(rconf)], capsys
        )
        assert code == 0
        assert "ber=0.000000" in out

    def test_identity_map_equals_omitted_map(self, tmp_path, capsys):
        from nandarrange import Permutation, save_mapping_table

        data = gen_dataset(tmp_path, capsys, blocks=1, wordlines=5, cells=8)
        block = next(data.glob("*.pdap"))
        ident = tmp_path / "ident.pdam"
        save_mapping_table(ident, Permutation.identity(5))
        _, out_with, _ = run(["simulate", "--in", str(block), "--map", str(ident)], capsys)
        _, out_without, _ = run(["simulate", "--in", str(block)], capsys)
        assert out_with == out_without


class TestCompare:
    def test_report_rows_and_csv(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=5, cells=4)
        csv_path = tmp_path / "report.csv"
        code, out, _ = run(
            [
                "compare",
                "--data-dir", str(data),
                "--solvers", "exhaustive,greedy,random",
                "--iterations", "50",
                "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "solver,mean_score,min_score,max_score,mean_uplift_pct,wall_time_s"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"exhaustive", "greedy", "random"}
        means = {name: float(row[1]) for name, row in rows.items()}
        assert means["exhaustive"] >= means["greedy"]
        assert means["exhaustive"] >= means["random"]

    def test_report_is_pinned(self, tmp_path, capsys):
        # Recorded from the report before it was built in one pass; the
        # wall-time column is left out.
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=6, cells=8, seed=4)
        csv_path = tmp_path / "report.csv"
        code, out, _ = run(
            [
                "compare",
                "--data-dir", str(data),
                "--solvers", "exhaustive,greedy,sa,random",
                "--iterations", "50",
                "--seed", "2",
                "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        assert [line[:-10] for line in out.splitlines()] == [
            "solver            mean_score       min_score       max_score   uplift%",
            "exhaustive          15759.52        13615.00        17660.20    19.815",
            "greedy              15725.24        13615.00        17660.20    19.541",
            "sa                  15725.24        13615.00        17660.20    19.541",
            "random              15346.22        13261.00        16912.20    16.779",
        ]
        csv_text = csv_path.read_text()
        assert csv_text.endswith("\n")
        assert [line.rsplit(",", 1)[0] for line in csv_text.splitlines()] == [
            "solver,mean_score,min_score,max_score,mean_uplift_pct",
            "exhaustive,15759.52,13615.0,17660.2,19.814616330228652",
            "greedy,15725.240000000002,13615.0,17660.2,19.540664742872988",
            "sa,15725.240000000002,13615.0,17660.2,19.540664742872988",
            "random,15346.220000000001,13261.0,16912.2,16.778767773613758",
        ]

    def test_error_row(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=10, cells=2)
        csv_path = tmp_path / "report.csv"
        code, out, _ = run(
            ["compare", "--data-dir", str(data), "--solvers", "greedy,exhaustive",
             "--csv", str(csv_path)],
            capsys,
        )
        assert code == 1
        _, greedy, exhaustive = out.splitlines()
        assert greedy.startswith("greedy               8128.44         6320.00         9393.00    54.492")
        assert exhaustive.startswith("exhaustive    error: TooManyWordlines: ")
        _, greedy, exhaustive = csv_path.read_text().splitlines()
        assert greedy.startswith("greedy,8128.44,6320.0,9393.0,54.49249395599403,")
        assert exhaustive == "exhaustive,error,error,error,error,error"

    def test_unknown_solver_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=5, cells=4)
        code, _, _ = run(["compare", "--data-dir", str(data), "--solvers", "magic"], capsys)
        assert code == 1


class TestRunConfig:
    def test_accepts_known_sections(self):
        parse_run_config({"train": {"epochs": 5}, "retention": {"coupling": 0.1}})

    def test_rejects_unknown_section(self):
        with pytest.raises(InvalidArgument):
            parse_run_config({"nonsense": {}})

    def test_rejects_unknown_key(self):
        with pytest.raises(InvalidArgument):
            parse_run_config({"train": {"epoch": 5}})

    def test_rejects_non_object_section(self):
        with pytest.raises(InvalidArgument):
            parse_run_config({"train": 5})


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["arrange"])  # missing required flags
    assert info.value.code == 1
