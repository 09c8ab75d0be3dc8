"""Unit tests for the command-line interface (library-level commands)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import load_clips


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["generate", "--out", "x.npz"]).command == "generate"
        assert parser.parse_args(["drc", "x.npz"]).command == "drc"
        assert parser.parse_args(["table1"]).command == "table1"
        assert parser.parse_args(["zoo", "list"]).action == "list"

    def test_serve_command_parses(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8157 and args.host == "127.0.0.1"
        args = parser.parse_args([
            "serve", "--port", "0", "--jobs", "4", "--max-batch", "16",
            "--gather-window-ms", "5", "--session-dir", "snaps",
            "--checkpoint-every", "3", "--library-shards", "2",
        ])
        assert args.jobs == 4
        assert args.max_batch == 16
        assert args.gather_window_ms == 5.0
        assert args.session_dir == "snaps"
        assert args.checkpoint_every == 3

    def test_serve_checkpoint_needs_session_dir(self, capsys):
        code = main(["serve", "--port", "0", "--checkpoint-every", "2"])
        assert code == 2
        assert "--session-dir" in capsys.readouterr().err

    def test_model_jobs_defaults_to_one(self):
        # Only an explicit --model-jobs opens a model process pool;
        # --jobs sizes the denoise/DRC stages alone.
        parser = build_parser()
        for argv in (["serve", "-j", "4"],
                     ["generate", "--out", "x.npz", "-j", "4"]):
            assert parser.parse_args(argv).model_jobs == 1

    @staticmethod
    def _stub_start(monkeypatch):
        import signal

        from repro.service import FleetService, GenerationService

        class Started(Exception):
            pass

        async def start(self):
            raise Started

        monkeypatch.setattr(FleetService, "start", start)
        monkeypatch.setattr(GenerationService, "start", start)
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        return Started

    def test_serve_fleet_with_thread_jobs_starts(self, monkeypatch):
        # -j sizes thread pools, which daemonic fleet workers can open.
        started = self._stub_start(monkeypatch)
        with pytest.raises(started):
            main(["serve", "--port", "0", "--workers", "2", "-j", "2"])

    def test_serve_fleet_rejects_process_pools_before_start(
        self, monkeypatch, capsys
    ):
        # --model-jobs 2 would give every daemonic fleet worker a
        # process pool it cannot open.
        self._stub_start(monkeypatch)
        code = main(
            ["serve", "--port", "0", "--workers", "2", "--model-jobs", "2"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_library_commands_parse(self):
        parser = build_parser()
        info = parser.parse_args(["library", "info", "d"])
        assert info.command == "library"
        assert info.library_command == "info"
        merge = parser.parse_args(["library", "merge", "out", "a", "b"])
        assert merge.library_command == "merge"
        assert merge.sources == ["a", "b"]
        gen = parser.parse_args(
            ["generate", "--out", "x.npz", "--library-shards", "4",
             "--library-dir", "lib"]
        )
        assert gen.library_shards == 4
        assert gen.library_dir == "lib"


class TestGenerateAndDrc:
    def test_generate_writes_library(self, tmp_path, capsys):
        out = tmp_path / "lib.npz"
        code = main(["generate", "-n", "4", "--out", str(out), "--seed", "3"])
        assert code == 0
        clips, meta = load_clips(out)
        assert len(clips) == 4
        assert meta["deck"] == "advanced"
        assert "DR-clean" in capsys.readouterr().out

    def test_drc_passes_on_generated_library(self, tmp_path, capsys):
        out = tmp_path / "lib.npz"
        main(["generate", "-n", "3", "--out", str(out)])
        code = main(["drc", str(out)])
        assert code == 0
        assert "3/3" in capsys.readouterr().out

    def test_drc_fails_on_wrong_deck_clips(self, tmp_path, capsys):
        from repro.io import save_clips

        bad = np.zeros((32, 32), dtype=np.uint8)
        bad[:, 4:6] = 1  # width 2: violates every deck
        path = tmp_path / "bad.npz"
        save_clips(path, [bad])
        code = main(["drc", str(path)])
        assert code == 1

    def test_squish_command(self, tmp_path, capsys):
        out = tmp_path / "lib.npz"
        main(["generate", "-n", "1", "--out", str(out)])
        code = main(["squish", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "complexity" in captured
        assert "dx:" in captured

    def test_render_ascii(self, tmp_path, capsys):
        out = tmp_path / "lib.npz"
        main(["generate", "-n", "1", "--out", str(out)])
        code = main(["render", str(out)])
        assert code == 0
        assert "#" in capsys.readouterr().out

    def test_render_png(self, tmp_path):
        out = tmp_path / "lib.npz"
        main(["generate", "-n", "1", "--out", str(out)])
        png = tmp_path / "clip.png"
        code = main(["render", str(out), "--out", str(png)])
        assert code == 0
        assert png.exists()

    def test_zoo_list(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        code = main(["zoo", "list"])
        assert code == 0
        assert "no artifacts" in capsys.readouterr().out


class TestLibraryWorkflow:
    def test_generate_persists_and_dedups_across_runs(self, tmp_path, capsys):
        lib_dir = tmp_path / "lib"
        out1 = tmp_path / "one.npz"
        code = main([
            "generate", "-n", "4", "--seed", "3", "--out", str(out1),
            "--library-shards", "4", "--library-dir", str(lib_dir),
        ])
        assert code == 0
        assert (lib_dir / "library.json").exists()

        # Second run, same seed: every clip is a duplicate of the snapshot.
        out2 = tmp_path / "two.npz"
        code = main([
            "generate", "-n", "4", "--seed", "3", "--out", str(out2),
            "--library-dir", str(lib_dir),
        ])
        assert code == 1  # nothing new
        assert not out2.exists()
        captured = capsys.readouterr().out
        assert "loaded 4 clips" in captured

        # Different seed grows the snapshot.
        code = main([
            "generate", "-n", "4", "--seed", "9", "--out", str(out2),
            "--library-dir", str(lib_dir),
        ])
        from repro.library import load_library

        store = load_library(lib_dir)
        assert len(store) > 4
        if code == 0:
            from repro.io import load_clips

            clips, _ = load_clips(out2)
            assert len(clips) == len(store) - 4

    def test_generate_keeps_snapshot_shard_layout(self, tmp_path, capsys):
        lib_dir = tmp_path / "lib"
        main([
            "generate", "-n", "3", "--out", str(tmp_path / "x.npz"),
            "--library-shards", "4", "--library-dir", str(lib_dir),
        ])
        # No --library-shards on the second run: layout must survive.
        main([
            "generate", "-n", "3", "--seed", "9",
            "--out", str(tmp_path / "y.npz"), "--library-dir", str(lib_dir),
        ])
        from repro.library import load_library

        assert load_library(lib_dir).num_shards == 4

    def test_generate_rejects_bad_library_dir_before_running(
        self, tmp_path, capsys
    ):
        target = tmp_path / "file.txt"
        target.write_text("not a directory")
        code = main([
            "generate", "-n", "3", "--out", str(tmp_path / "x.npz"),
            "--library-dir", str(target),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_library_info(self, tmp_path, capsys):
        lib_dir = tmp_path / "lib"
        main([
            "generate", "-n", "3", "--out", str(tmp_path / "x.npz"),
            "--library-shards", "2", "--library-dir", str(lib_dir),
        ])
        capsys.readouterr()
        code = main(["library", "info", str(lib_dir)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "3 clips in 2 shards" in captured
        assert "H2=" in captured

    def test_library_info_missing_dir(self, tmp_path, capsys):
        code = main(["library", "info", str(tmp_path / "nope")])
        assert code == 2

    def test_library_merge(self, tmp_path, capsys):
        import numpy as np

        from repro.library import ShardedStore, load_library, save_library

        def clip(seed):
            img = np.zeros((8, 8), dtype=np.uint8)
            img[:, seed % 5 : seed % 5 + 2 + seed % 3] = 1
            return img

        save_library(
            ShardedStore([clip(i) for i in range(6)], num_shards=2),
            tmp_path / "a",
        )
        save_library(
            ShardedStore([clip(i) for i in range(3, 9)], num_shards=3),
            tmp_path / "b",
        )
        code = main([
            "library", "merge", str(tmp_path / "out"),
            str(tmp_path / "a"), str(tmp_path / "b"), "--shards", "4",
        ])
        assert code == 0
        merged = load_library(tmp_path / "out")
        assert merged.num_shards == 4
        assert "duplicates" in capsys.readouterr().out
        combined = {
            tuple(c.flatten()) for c in load_library(tmp_path / "a")
        } | {tuple(c.flatten()) for c in load_library(tmp_path / "b")}
        assert len(merged) == len(combined)


class TestWarmCacheDir:
    """``--drc-cache-dir`` is the one warm-cache directory: it also hosts
    the on-disk sampler-plan cache, for both ``generate`` and ``serve``."""

    def test_generate_configures_plan_cache(self, tmp_path, monkeypatch):
        import repro.diffusion.plan as plan

        configured = []
        monkeypatch.setattr(plan, "configure_plan_cache", configured.append)
        warm = str(tmp_path / "warm")
        code = main([
            "generate", "-n", "2", "--out", str(tmp_path / "x.npz"),
            "--drc-cache-dir", warm,
        ])
        assert code == 0
        assert configured == [warm]

    def test_serve_configures_plan_cache_before_start(
        self, tmp_path, monkeypatch
    ):
        import signal

        import repro.diffusion.plan as plan
        from repro.service import GenerationService

        class Started(Exception):
            pass

        events = []

        async def start(self):
            events.append("start")
            raise Started

        monkeypatch.setattr(plan, "configure_plan_cache", events.append)
        monkeypatch.setattr(GenerationService, "start", start)
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        warm = str(tmp_path / "warm")
        with pytest.raises(Started):
            main(["serve", "--port", "0", "--drc-cache-dir", warm])
        # Configured before the service (and any forked fleet worker)
        # starts, so every worker process inherits the directory.
        assert events == [warm, "start"]
