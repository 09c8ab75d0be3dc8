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
            "serve", "--port", "0", "--max-batch", "16",
            "--gather-window-ms", "5", "--session-dir", "snaps",
            "--checkpoint-every", "3",
        ])
        assert args.max_batch == 16
        assert args.gather_window_ms == 5.0
        assert args.session_dir == "snaps"
        assert args.checkpoint_every == 3

    def test_serve_checkpoint_needs_session_dir(self, capsys):
        code = main(["serve", "--port", "0", "--checkpoint-every", "2"])
        assert code == 2
        assert "--session-dir" in capsys.readouterr().err

    def test_model_jobs_defaults_to_one(self, capsys):
        # No flag sizes a worker pool: the model stage runs in one process
        # (its forwards shard across cores on threads) and denoise/DRC/
        # admit run serially, so -j/--jobs/--model-jobs exit 2.
        parser = build_parser()
        for argv in (["serve", "--port", "0"],
                     ["generate", "--out", "x.npz"]):
            args = parser.parse_args(argv)
            assert [key for key in vars(args) if "jobs" in key] == []
            for flag in ("-j", "--jobs", "--model-jobs"):
                with pytest.raises(SystemExit) as exit_info:
                    main([*argv, flag, "2"])
                assert exit_info.value.code == 2
                assert flag in capsys.readouterr().err

    def test_drc_cache_dir_is_gone(self, capsys):
        # DRC verdicts live only in process: no flag saves or loads them.
        for argv in (["serve", "--port", "0"],
                     ["generate", "--out", "x.npz"]):
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, "--drc-cache-dir", "D"])
            assert exit_info.value.code == 2
            assert "--drc-cache-dir" in capsys.readouterr().err

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
        # --workers is serve's one parallelism flag; inside a worker the
        # row-sharded forwards are the only threads.
        started = self._stub_start(monkeypatch)
        with pytest.raises(started):
            main(["serve", "--port", "0", "--workers", "2"])

    def test_serve_fleet_rejects_process_pools_before_start(
        self, monkeypatch, capsys
    ):
        # There is no worker pool to hand a daemonic fleet worker:
        # argparse rejects the flags before anything starts.
        self._stub_start(monkeypatch)
        for flag in ("-j", "--model-jobs"):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", "--port", "0", "--workers", "2", flag, "2"])
            assert exit_info.value.code == 2
            assert flag in capsys.readouterr().err

    def test_library_commands_parse(self, capsys):
        parser = build_parser()
        info = parser.parse_args(["library", "info", "d"])
        assert info.command == "library"
        assert info.library_command == "info"
        merge = parser.parse_args(["library", "merge", "out", "a", "b"])
        assert merge.library_command == "merge"
        assert merge.sources == ["a", "b"]
        gen = parser.parse_args(
            ["generate", "--out", "x.npz", "--library-dir", "lib"]
        )
        assert gen.library_dir == "lib"
        # The library is one store: no flag shards it.
        for argv in (["generate", "--out", "x.npz", "--library-shards", "4"],
                     ["serve", "--port", "0", "--library-shards", "2"],
                     ["library", "merge", "out", "a", "--shards", "4"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert argv[-2] in capsys.readouterr().err
        # ...and no help text still describes sharded snapshots.
        for argv in (["--help"], ["library", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            out = capsys.readouterr().out
            library_lines = [
                line for line in out.splitlines() if "library" in line
            ]
            assert library_lines
            assert not any("shard" in line for line in library_lines)


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
            "--library-dir", str(lib_dir),
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
        import json

        lib_dir = tmp_path / "lib"
        main([
            "generate", "-n", "3", "--out", str(tmp_path / "x.npz"),
            "--library-dir", str(lib_dir),
        ])
        main([
            "generate", "-n", "3", "--seed", "9",
            "--out", str(tmp_path / "y.npz"), "--library-dir", str(lib_dir),
        ])
        from repro.library import load_library

        # Each save writes one file per generation; the previous
        # generation's manifest stays behind as the load fallback.
        manifest = json.loads((lib_dir / "library.json").read_text())
        assert manifest["generation"] == 2
        assert list(manifest["shards"]) == ["shard-000002-0000.npz"]
        assert manifest["count"] == len(load_library(lib_dir))
        assert (lib_dir / "library.prev.json").exists()

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
            "--library-dir", str(lib_dir),
        ])
        capsys.readouterr()
        code = main(["library", "info", str(lib_dir)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "rule: 3 clips\n" in captured
        assert "H2=" in captured
        assert "shard" not in captured

    def test_library_info_missing_dir(self, tmp_path, capsys):
        code = main(["library", "info", str(tmp_path / "nope")])
        assert code == 2

    def test_library_merge(self, tmp_path, capsys):
        import numpy as np

        from repro.library import InMemoryStore, load_library, save_library

        def clip(seed):
            img = np.zeros((8, 8), dtype=np.uint8)
            img[:, seed % 5 : seed % 5 + 2 + seed % 3] = 1
            return img

        save_library(InMemoryStore([clip(i) for i in range(6)]), tmp_path / "a")
        save_library(
            InMemoryStore([clip(i) for i in range(3, 9)]), tmp_path / "b"
        )
        code = main([
            "library", "merge", str(tmp_path / "out"),
            str(tmp_path / "a"), str(tmp_path / "b"),
        ])
        assert code == 0
        merged = load_library(tmp_path / "out")
        assert "duplicates" in capsys.readouterr().out
        combined = {
            tuple(c.flatten()) for c in load_library(tmp_path / "a")
        } | {tuple(c.flatten()) for c in load_library(tmp_path / "b")}
        assert len(merged) == len(combined)


class TestServeProcess:
    """``repro serve`` as a real process: signal -> drain -> stop."""

    def test_sigterm_leaves_fleet_sessions_checkpointed(self, tmp_path):
        import os
        import re
        import signal
        import subprocess
        import sys
        import threading
        from pathlib import Path

        import repro
        from repro.core.library import PatternLibrary
        from repro.drc.decks import deck_by_name
        from repro.engine import GenerationRequest, run_generation
        from repro.library import load_library
        from repro.service import RemoteClient
        from repro.zoo.corpora import EXPERIMENT_GRID

        root = tmp_path / "sessions"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            PYTHONUNBUFFERED="1",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--session-dir", str(root), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        seeds = [0, 1, 2]
        # Bounds the wait for the "listening on" line: a server that
        # hangs at startup is killed, which ends the read with EOF.
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            port = None
            for line in proc.stdout:
                match = re.search(r"listening on \S+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "repro serve exited before listening"
            with RemoteClient("127.0.0.1", port) as client:
                results = [
                    client.generate({"backend": "rule", "count": 4,
                                     "seed": seed, "session": "cli"})
                    for seed in seeds
                ]
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=120)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, output
        deck = deck_by_name("advanced", EXPERIMENT_GRID)
        reference = PatternLibrary(name="reference")
        sizes = [
            run_generation(
                GenerationRequest(backend="rule", count=4, seed=seed,
                                  deck=deck),
                library=reference,
            ).library_size
            for seed in seeds
        ]
        assert [result["library_size"] for result in results] == sizes
        # The session's owner worker checkpointed it at stop, straight
        # into the shared root.
        saved = load_library(root / "cli", name="cli")
        assert len(saved) == len(reference) > 0
        for got, want in zip(saved.clips, reference.clips):
            np.testing.assert_array_equal(got, want)
        assert not (root / "workers").exists()
