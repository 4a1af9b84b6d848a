import hashlib
import json
import re

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
from nandarrange.data_io import MAPPING_MAGIC, pack_header
from nandarrange.errors import InvalidArgument
from nandarrange.scoring import score_table


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def nan_model(tmp_path, wordlines, cells):
    """A well-framed checkpoint with one NaN weight, which train never writes."""
    netcfg = NetworkConfig(input_dim=cells, hidden_size=4, output_dim=wordlines)
    params = init_params(netcfg, seed=0)
    params.w_hidden[1, 2] = np.nan
    path = tmp_path / "nan.pdaw"
    save_checkpoint(path, params, netcfg)
    return path


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
        cells = np.array([[0, 3], [15, 8], [0, 1]], dtype=np.uint8)
        path = tmp_path / "t.pdap"
        save_pattern(path, BlockPattern(cells))
        code, out, _ = run(["score", "--in", str(path)], capsys)
        cfg = ArchConfig(num_wordlines=3, cells_per_page=2)
        assert float(out.strip()) == float(score_table(cfg)[cells[0], cells[1], cells[2]].sum())


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

    def test_non_finite_model_exits_2(self, tmp_path, capsys):
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=4, cells=4)
        block = next(out.glob("*.pdap"))
        model = nan_model(tmp_path, wordlines=4, cells=4)
        code, stdout, err = run(
            ["arrange", "--in", str(block), "--solver", "lstm", "--model", str(model)], capsys
        )
        assert code == 2
        assert stdout == ""
        assert "CodecError: checkpoint parameter" in err and "is not finite: nan" in err

    @pytest.mark.parametrize(
        "flag", [("--cooling", "2"), ("--iterations", "0"), ("--t0", "0"), ("--t0", "inf")]
    )
    def test_invalid_schedule_flag_exits_1_for_every_solver(self, tmp_path, capsys, flag):
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=4, cells=4)
        block = next(out.glob("*.pdap"))
        code, stdout, err = run(["arrange", "--in", str(block), "--solver", "greedy", *flag], capsys)
        assert code == 1
        assert stdout == ""
        assert "InvalidArgument" in err

    def test_exhaustive_too_large_exits_1(self, tmp_path, capsys):
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=10, cells=2)
        block = next(out.glob("*.pdap"))
        before = tensor_build_count()
        code, _, err = run(["arrange", "--in", str(block), "--solver", "exhaustive"], capsys)
        assert code == 1
        assert "TooManyWordlines" in err
        assert tensor_build_count() == before  # refused before the tensor is built

    @pytest.mark.parametrize("solver", ["exhaustive", "random", "greedy", "sa"])
    def test_stats_counts_one_build_per_classical_solver(self, tmp_path, capsys, solver):
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=5, cells=4)
        block = next(out.glob("*.pdap"))
        code, stdout, _ = run(
            ["arrange", "--in", str(block), "--solver", solver, "--iterations", "50", "--stats"],
            capsys,
        )
        assert code == 0
        assert stdout.splitlines()[1] == "tensor_builds=1"

    @pytest.mark.parametrize(
        "solver, reason",
        [
            ("exhaustive", "exhaustive search refuses N=1024"),
            ("greedy", "a score tensor at N=1024 needs "),
        ],
    )
    def test_block_past_the_tensor_budget_exits_1(self, tmp_path, capsys, solver, reason):
        # A 1 KiB file whose score tensor would take 12 GiB.
        out = gen_dataset(tmp_path, capsys, blocks=1, wordlines=1024, cells=1)
        block = next(out.glob("*.pdap"))
        code, stdout, err = run(["arrange", "--in", str(block), "--solver", solver], capsys)
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"error: TooManyWordlines: {reason}")
        assert err.count("\n") == 1


class TestTrainCommand:
    def _config(self, tmp_path, epochs=2):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "network": {"hidden_size": 4},
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

    def test_overflowing_run_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # A learning rate near the float limit overflows in the first epoch.
        # Training must stop there rather than write a checkpoint holding a
        # parameter outside the float range.
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8, seed=3)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "network": {"hidden_size": 4},
            "train": {"epochs": 3, "seed": 1, "learning_rate": 1e307, "gradient_clip_norm": None},
        }))
        model = tmp_path / "model.pdaw"
        code, stdout, err = run(
            ["train", "--data-dir", str(data), "--config", str(cfg_path), "--out-model", str(model)],
            capsys,
        )
        assert code == 3
        assert stdout == ""
        assert err.startswith("error: NonFiniteLoss: training diverged at epoch 0: ")
        assert err.count("\n") == 1 and "(epoch" not in err
        assert "RuntimeWarning" not in err
        assert not model.exists()
        assert not (tmp_path / "model.pdaw.loss.csv").exists()

    def test_integer_coefficients_past_the_float_range_exit_1(self, tmp_path, capsys):
        # Their exact integer scale 10**600 is finite, its float is not: the
        # config is refused up front, not by an OverflowError mid-build.
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=4)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "arch": {"k1": 10**300, "k2": 1, "alpha": 10**300}, "train": {"epochs": 1},
        }))
        model = tmp_path / "model.pdaw"
        code, stdout, err = run(
            ["train", "--data-dir", str(data), "--config", str(cfg_path), "--out-model", str(model)],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: InvalidArgument: ") and "outside the float range" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not model.exists()

    def test_a_401_digit_network_width_is_refused_in_one_short_line(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=4)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"network": {"input_dim": 10**400}}))
        model = tmp_path / "model.pdaw"
        code, stdout, err = run(
            ["train", "--data-dir", str(data), "--config", str(cfg_path), "--out-model", str(model)],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err == (
            "error: InvalidArgument: "
            "network.input_dim=<1329-bit integer> disagrees with the data's 4\n"
        )
        assert not model.exists()

    def test_an_unallocatable_network_width_is_refused_in_one_short_line(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=4)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"network": {"hidden_size": 10**30}, "train": {"epochs": 1}}))
        model = tmp_path / "model.pdaw"
        code, stdout, err = run(
            ["train", "--data-dir", str(data), "--config", str(cfg_path), "--out-model", str(model)],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err == (
            "error: InvalidArgument: a network with input_dim=4, hidden_size=<100-bit integer> "
            "and output_dim=4 needs <205-bit integer> bytes of parameters, more than numpy can index\n"
        )
        assert not model.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        bad = tmp_path / "bad.json"
        # The head is one linear layer: no key sets a layer count.
        for document, message in [
            ({"training": {"epochs": 1}}, "unknown config section 'training'"),
            ({"network": {"num_linear_layers": 1}}, "unknown key 'num_linear_layers' in 'network'"),
            ({"train": {"beta1": 0.9}}, "unknown key 'beta1' in 'train'"),
        ]:
            bad.write_text(json.dumps(document))
            code, _, err = run(
                ["train", "--data-dir", str(data), "--config", str(bad),
                 "--out-model", str(tmp_path / "m.pdaw")],
                capsys,
            )
            assert (code, err) == (1, f"error: InvalidArgument: {message}\n")

    @pytest.mark.parametrize("digits", [4300, 5001], ids=["4300-digits", "5001-digits"])
    def test_an_integer_of_any_length_is_refused_as_configuration(self, tmp_path, capsys, digits):
        # 4,300 digits is the most int() reads from a string by default; json
        # reads a longer integer through the run config's own hook.
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=4)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"train": {"learning_rate": 1' + "0" * (digits - 1) + "}}")
        model = tmp_path / "model.pdaw"
        code, stdout, err = run(
            ["train", "--data-dir", str(data), "--config", str(cfg_path), "--out-model", str(model)],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("error: InvalidArgument: train.learning_rate is an integer ")
        assert err.count("\n") == 1 and len(err) <= 200
        assert not model.exists()


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
            ("simulate", {"retention": {"coupling": 10**400}}),
            ("train", {"train": {"learning_rate": 10**400}}),
            ("train", {"arch": {"alpha": 1e-305}}),
            ("train", {"anneal": {"iterations": 5}}),
            ("train", {"paths": {"out": "x"}}),
            ("train", {"network": {"input_dim": 9}}),
            ("train", {"retention": {"coupling": "x"}}),
            ("train", {"train": {"seed": -1}}),
            ("simulate", {"retention": {"seed": -1}}),
            # Valid JSON whose number overflows to infinity.
            ("train", '{"train": {"learning_rate": 1e400}}'),
            ("train", '{"train": {"gradient_clip_norm": 1e400}}'),
        ],
    )
    def test_bad_value_exits_1_with_typed_error(self, tmp_path, capsys, command, document):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        config = tmp_path / "run.json"
        config.write_text(document if isinstance(document, str) else json.dumps(document))
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

    @pytest.mark.parametrize("command", ["train", "simulate"])
    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b'{"train": {}',
        b'{"train": {"learning_rate": Infinity}}',
        b'{"retention": {"time": -Infinity}}',
        b'{"retention": {"noise_sigma": NaN}}',
    ])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command, content):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        config = tmp_path / "run.json"
        config.write_bytes(content)  # not UTF-8, not JSON, or not strict JSON
        if command == "train":
            argv = ["train", "--data-dir", str(data), "--config", str(config),
                    "--out-model", str(tmp_path / "m.pdaw")]
        else:
            argv = ["simulate", "--in", str(next(data.glob("*.pdap"))),
                    "--retention-config", str(config)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert f"cannot read config {config}" in err
        assert "Traceback" not in err

    def test_matching_arch_int_for_float_and_null_are_accepted(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "arch": {"num_wordlines": 4, "cells_per_page": 8},
            "network": {"input_dim": 8, "hidden_size": 2, "output_dim": 4},
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

    def test_paper_scale_output_is_pinned(self, tmp_path, capsys):
        # One seeded 16 x 147,456 block (an 18 KiB page), with and without
        # its SA mapping table. The printed score and BER are pinned: a
        # change to either is an output change.
        data = gen_dataset(tmp_path, capsys, blocks=1, wordlines=16, cells=147_456, seed=7)
        block = str(next(data.glob("*.pdap")))
        sa_map = str(tmp_path / "sa.pdam")
        code, _, _ = run(["arrange", "--in", block, "--solver", "sa", "--out-map", sa_map], capsys)
        assert code == 0
        _, mapped, _ = run(["simulate", "--in", block, "--map", sa_map], capsys)
        _, unmapped, _ = run(["simulate", "--in", block], capsys)
        assert mapped == "score=878817862.6 ber=0.195797\n"
        assert unmapped == "score=877610198.2 ber=0.195980\n"

    def test_paper_scale_commands_hold_no_block_sized_float_array(self, tmp_path, capsys, peak_bytes):
        # One 16 x 147,456 float64 array is 18 MiB, so any one of them
        # breaks the fence; the uint8 block itself is 2.25 MiB.
        data = gen_dataset(tmp_path, capsys, blocks=1, wordlines=16, cells=147_456, seed=7)
        block = str(next(data.glob("*.pdap")))
        greedy_map = str(tmp_path / "greedy.pdam")
        fence = 12 * 2**20
        arrange = ["arrange", "--in", block, "--solver", "greedy", "--out-map", greedy_map]
        assert peak_bytes(main, arrange) < fence
        assert peak_bytes(main, ["simulate", "--in", block, "--map", greedy_map]) < fence
        arranged, simulated = capsys.readouterr().out.splitlines()
        score = re.search(r"arranged=(\S+)", arranged).group(1)
        assert re.fullmatch(rf"score={re.escape(score)} ber=0\.\d{{6}}", simulated)

    def test_non_bijective_map_at_the_format_limit_exits_2_briefly(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=1, wordlines=5, cells=8)
        bad = tmp_path / "zeros.pdam"
        bad.write_bytes(pack_header(MAPPING_MAGIC, "H", 65_535) + bytes(2 * 65_535))
        code, _, err = run(
            ["simulate", "--in", str(next(data.glob("*.pdap"))), "--map", str(bad)], capsys
        )
        assert code == 2
        assert "NotABijection" in err
        assert len(err) < 200 + len(str(bad))


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

    def test_builds_one_tensor_per_block(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=5, cells=4)
        netcfg = NetworkConfig(input_dim=4, hidden_size=4, output_dim=5)
        model = tmp_path / "model.pdaw"
        save_checkpoint(model, init_params(netcfg, seed=0), netcfg)
        for names, builds in (("greedy,sa,random", 10), ("lstm", 0)):
            before = tensor_build_count()
            code, _, _ = run(
                ["compare", "--data-dir", str(data), "--solvers", names, "--iterations", "50",
                 "--model", str(model)],
                capsys,
            )
            assert code == 0
            assert tensor_build_count() - before == builds, names

    def test_invalid_iterations_exit_1_before_any_row(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=5, cells=4)
        csv_path = tmp_path / "report.csv"
        code, out, err = run(
            ["compare", "--data-dir", str(data), "--solvers", "greedy", "--iterations", "0",
             "--csv", str(csv_path)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "InvalidArgument" in err
        assert not csv_path.exists()

    def test_non_finite_model_exits_2_before_any_row(self, tmp_path, capsys):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=5, cells=4)
        model = nan_model(tmp_path, wordlines=5, cells=4)
        csv_path = tmp_path / "report.csv"
        code, out, err = run(
            ["compare", "--data-dir", str(data), "--solvers", "lstm,greedy",
             "--model", str(model), "--csv", str(csv_path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "CodecError" in err
        assert not csv_path.exists()

    @pytest.mark.parametrize("names", ["magic", "", ",", " , "])
    def test_unknown_solver_rejected(self, tmp_path, capsys, names):
        data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=5, cells=4)
        code, out, err = run(["compare", "--data-dir", str(data), "--solvers", names], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: InvalidArgument: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["gen", "split", "simulate", "arrange", "compare"])
def test_negative_seed_exits_1_without_traceback(tmp_path, capsys, command):
    data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
    block = str(next(data.glob("*.pdap")))
    argv = {
        "gen": ["gen", "--out", str(tmp_path / "neg"), "--blocks", "1"],
        "split": ["split", "--data-dir", str(data)],
        "simulate": ["simulate", "--in", block],
        "arrange": ["arrange", "--in", block, "--solver", "sa"],
        "compare": ["compare", "--data-dir", str(data), "--solvers", "greedy,sa,random"],
    }[command]
    code, out, err = run(argv + ["--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: InvalidArgument: seed must be non-negative, got -1\n"
    assert not (tmp_path / "neg").exists()  # gen refuses the seed before mkdir


@pytest.mark.parametrize("command", ["split", "train", "compare"])
def test_empty_data_dir_exits_2(tmp_path, capsys, command):
    argv = [command, "--data-dir", str(tmp_path)]
    if command == "train":
        argv += ["--out-model", str(tmp_path / "m.pdaw")]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", f"error: no .pdap files found in {tmp_path}\n")


@pytest.mark.parametrize("command", ["split", "train", "compare"])
def test_mixed_geometry_dataset_exits_1(tmp_path, capsys, command):
    save_pattern(tmp_path / "a.pdap", BlockPattern(np.zeros((4, 8), dtype=np.uint8)))
    save_pattern(tmp_path / "b.pdap", BlockPattern(np.zeros((5, 8), dtype=np.uint8)))
    argv = [command, "--data-dir", str(tmp_path)]
    if command == "train":
        argv += ["--out-model", str(tmp_path / "m.pdaw")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: InvalidArgument: blocks in the dataset have inconsistent dimensions\n"


@pytest.mark.parametrize("command", ["train", "simulate"])
def test_run_config_array_exits_1(tmp_path, capsys, command):
    data = gen_dataset(tmp_path, capsys, blocks=10, wordlines=4, cells=8)
    config = tmp_path / "run.json"
    config.write_text("[]")
    if command == "train":
        argv = ["train", "--data-dir", str(data), "--config", str(config),
                "--out-model", str(tmp_path / "m.pdaw")]
    else:
        argv = ["simulate", "--in", str(next(data.glob("*.pdap"))),
                "--retention-config", str(config)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: InvalidArgument: run config must be a JSON object\n"


def test_gen_zero_blocks_exits_1(tmp_path, capsys):
    code, out, err = run(["gen", "--out", str(tmp_path / "none"), "--blocks", "0"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: InvalidArgument: --blocks must be positive, got 0\n"
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("flag", ["--wordlines", "--cells"])
def test_gen_geometry_past_the_float_range_exits_1(tmp_path, capsys, flag):
    argv = ["gen", "--out", str(tmp_path / "big"), "--blocks", "1", "--wordlines", "4", "--cells", "4"]
    code, out, err = run(argv + [flag, str(10**400)], capsys)  # the last value of a flag wins
    assert (code, out) == (1, "")
    assert err.startswith("error: InvalidArgument: ") and err.count("\n") == 1
    assert "outside the float range" in err
    assert "Traceback" not in err
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--wordlines", 10**400), ("--cells", 10**400), ("--blocks", -10**400), ("--seed", -10**400)],
    ids=["wordlines", "cells", "blocks", "seed"],
)
def test_gen_refuses_a_401_digit_integer_in_one_short_line(tmp_path, capsys, flag, value):
    argv = ["gen", "--out", str(tmp_path / "big"), "--blocks", "1", "--wordlines", "4", "--cells", "4"]
    code, out, err = run(argv + [flag, str(value)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: InvalidArgument: ") and err.count("\n") == 1
    assert "<1329-bit integer>" in err and len(err) <= 200
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--wordlines", "1" + "0" * 5000],
         "nandarrange gen: error: argument --wordlines: invalid int value: <5001-character value>"),
        (["x" * 5000], "nandarrange: error: unrecognized arguments: <5000-character value>"),
    ],
    ids=["invalid-int", "unrecognized"],
)
def test_a_long_value_in_a_usage_error_is_shown_by_its_length(tmp_path, capsys, extra, message):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--out", str(tmp_path / "big"), "--blocks", "1", *extra])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (1, "")
    assert err.endswith(f"{message}\n") and len(err) < 300
    assert not (tmp_path / "big").exists()


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["arrange"])  # missing required flags
    assert info.value.code == 1


GOLDEN_DESK_DIGEST = "decf456afd590a6a1dca365e6486b745e89b2e5b2bf8e9f23228066c96be85ad"


def test_golden_desk_run_is_pinned(tmp_path, capsys):
    """One desk workflow through the CLI, hashed over every output byte.

    gen 20 blocks (N=8, C=32), split, train 3 epochs from a run config,
    compare all five solvers, arrange each held-out block with the LSTM, and
    simulate one block with and without its SA map. The digest covers every
    printed line and every file the run leaves, with the wall-time fields
    (``elapsed=``, ``time_s``, ``wall_time_s``) and the tmp path taken out.
    Like ``test_short_desk_run_is_pinned``, it was recorded on one host's
    numpy and BLAS (numpy 2.4, OpenBLAS, x86-64); it changes only with an
    intended output change.
    """
    data, model = tmp_path / "data", tmp_path / "model.pdaw"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "network": {"hidden_size": 16},
        "train": {"epochs": 3, "seed": 1},
        "retention": {"coupling": 0.1, "seed": 3},
    }))
    printed = []

    def cli(*argv):
        code, out, err = run([str(a) for a in argv], capsys)
        assert (code, err) == (0, "")
        printed.append(re.sub(r"elapsed=\S+", "elapsed=", out.replace(str(tmp_path), "<tmp>")))

    cli("gen", "--out", data, "--blocks", 20, "--wordlines", 8, "--cells", 32, "--seed", 11)
    cli("split", "--data-dir", data, "--seed", 1)
    cli("train", "--data-dir", data, "--config", config, "--out-model", model)
    report = tmp_path / "report.csv"
    cli("compare", "--data-dir", data, "--solvers", "exhaustive,random,greedy,sa,lstm",
        "--model", model, "--iterations", 200, "--seed", 2, "--csv", report)
    printed[-1] = "\n".join(line[:-10] for line in printed[-1].splitlines())
    report.write_text("\n".join(line.rsplit(",", 1)[0] for line in report.read_text().splitlines()))
    held_out = json.loads((data / "split_manifest.json").read_text())["test"]
    for name in held_out:
        cli("arrange", "--in", data / name, "--solver", "lstm", "--model", model,
            "--out-map", tmp_path / f"{name}.pdam")
    block = data / held_out[0]
    cli("arrange", "--in", block, "--solver", "sa", "--seed", 4, "--out-map", tmp_path / "sa.pdam")
    cli("simulate", "--in", block, "--retention-config", config)
    cli("simulate", "--in", block, "--retention-config", config, "--map", tmp_path / "sa.pdam")

    digest = hashlib.sha256()
    for text in printed:
        digest.update(text.encode() + b"\0")
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(tmp_path)).encode() + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == GOLDEN_DESK_DIGEST


GOLDEN_WIDE_DIGEST = "b597b01fb3d8f27adc3262d86f6e7091fbd168708535475e77d2bca5b3bbf30b"


def test_golden_wide_arrange_is_pinned(tmp_path, capsys):
    """The classical solvers at N=64, C=64 through the CLI, hashed.

    gen 2 blocks, then arrange each with greedy and with SA, once with the
    default schedule and once with --t0 1000. At N=64 the default auto T0 is
    so hot that SA's best is its greedy start; the cooler run takes accepted
    moves past it. The digest covers every printed line, with the
    ``elapsed=`` field and the tmp path taken out, and the bytes of each
    mapping table SA writes. Greedy and SA are exact float sums over the
    score tensor, so it changes only with an intended output change.
    """
    data = tmp_path / "data"
    printed = []

    def cli(*argv):
        code, out, err = run([str(a) for a in argv], capsys)
        assert (code, err) == (0, "")
        printed.append(re.sub(r"elapsed=\S+", "elapsed=", out.replace(str(tmp_path), "<tmp>")))

    cli("gen", "--out", data, "--blocks", 2, "--wordlines", 64, "--cells", 64, "--seed", 7)
    maps = []
    for block in sorted(data.glob("*.pdap")):
        cli("arrange", "--in", block, "--solver", "greedy")
        for t0 in ("auto", 1000):
            maps.append(tmp_path / f"{block.stem}-{t0}.pdam")
            t0_flag = () if t0 == "auto" else ("--t0", t0)
            cli("arrange", "--in", block, "--solver", "sa", *t0_flag, "--out-map", maps[-1])

    digest = hashlib.sha256()
    for text in printed:
        digest.update(text.encode() + b"\0")
    for path in maps:
        digest.update(path.read_bytes() + b"\0")
    assert digest.hexdigest() == GOLDEN_WIDE_DIGEST
