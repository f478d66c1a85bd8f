import pytest

import golden

TAG = "python=0 numpy=0 machine=test"


def make(tag=TAG, sha="ab" * 32, max_beta=0.25, eig=-0.5):
    name = "s_proposed.csv"
    metrics = {k: float(0.125).hex() for k in golden.METRICS}
    metrics.update(max_beta=float(max_beta).hex(), spin="False",
                   diverged="False")
    return golden.Golden(tag, {name: sha}, {name: metrics}, eig.hex())


class TestGoldenFile:
    def test_render_reads_back(self, tmp_path):
        g = make()
        g = g._replace(hashes={**g.hashes, "s_proposed_timeseries.svg":
                               "12" * 32})
        path = tmp_path / "g.sha256"
        path.write_text(golden.render(g))
        assert golden.read(path) == g

    def test_committed_file_names_every_figure_run(self):
        from staballoc.cli import FIGURE_PAIRS
        g = golden.read()
        stems = [f"{name}_{ctrl}" for name, ctrls in FIGURE_PAIRS
                 for ctrl in ctrls]
        assert sorted(g.metrics) == sorted(f"{s}.csv" for s in stems)
        assert sorted(g.hashes) == sorted(
            s + suffix for s in stems
            for suffix in (".csv", "_timeseries.svg", "_trajectory.svg"))
        assert g.tag.startswith("python=") and g.eig


class TestCompare:
    def test_identical_outputs_pass(self):
        assert golden.compare(make(), make()) == ([], [])

    def test_other_hash_fails_on_the_same_tag(self):
        failures, notes = golden.compare(make(), make(sha="cd" * 32))
        assert len(failures) == 1 and "sha256" in failures[0]
        assert notes == []

    def test_svg_hash_is_compared_like_a_csv_hash(self):
        def with_svg(tag=TAG, sha="ef" * 32):
            g = make(tag=tag)
            svg = {"s_proposed_trajectory.svg": sha}
            return g._replace(hashes={**g.hashes, **svg})
        assert golden.compare(with_svg(), with_svg()) == ([], [])
        failures, _ = golden.compare(with_svg(), with_svg(sha="01" * 32))
        assert len(failures) == 1 and "trajectory.svg" in failures[0]
        failures, notes = golden.compare(
            with_svg(), with_svg(tag="elsewhere", sha="01" * 32))
        assert failures == [] and len(notes) == 1

    def test_other_hash_is_only_noted_on_another_tag(self):
        failures, notes = golden.compare(
            make(), make(tag="elsewhere", sha="cd" * 32,
                         max_beta=0.25 * (1 + 1e-12)))
        assert failures == []
        assert len(notes) == 1 and "sha256" in notes[0]

    def test_metric_beyond_1e9_fails_on_another_tag(self):
        failures, _ = golden.compare(
            make(), make(tag="elsewhere", max_beta=0.25 * (1 + 1e-8)))
        assert len(failures) == 1 and "max_beta" in failures[0]

    def test_eigenvalue_is_exact_on_the_same_tag(self):
        failures, _ = golden.compare(make(), make(eig=-0.5 * (1 + 1e-15)))
        assert len(failures) == 1 and "max_closed_loop_eig" in failures[0]
        failures, _ = golden.compare(
            make(), make(tag="elsewhere", eig=-0.5 * (1 + 1e-15)))
        assert failures == []

    def test_nan_metric_matches_nan(self):
        assert golden.metric_close("nan", "nan")
        assert not golden.metric_close("nan", float(1.0).hex())
        assert not golden.metric_close("True", "False")


class TestScript:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--bogus"],
                                      ["out.sha256"]])
    def test_an_argument_never_rewrites_the_golden_file(self, argv,
                                                        monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the script ran a scenario")
        monkeypatch.setattr(golden, "run_scenario", no_run)
        before = golden.GOLDEN.read_bytes()
        with pytest.raises(SystemExit) as exit_:
            golden.main(argv)
        assert exit_.value.code == (0 if argv[0] in ("-h", "--help") else 2)
        assert golden.GOLDEN.read_bytes() == before
