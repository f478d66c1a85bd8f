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
        path = tmp_path / "g.sha256"
        path.write_text(golden.render(g))
        assert golden.read(path) == g

    def test_committed_file_names_every_figure_run(self):
        from staballoc.cli import FIGURE_PAIRS
        g = golden.read()
        assert sorted(g.hashes) == sorted(
            f"{name}_{ctrl}.csv" for name, ctrls in FIGURE_PAIRS
            for ctrl in ctrls)
        assert g.tag.startswith("python=") and g.eig


class TestCompare:
    def test_identical_outputs_pass(self):
        assert golden.compare(make(), make()) == ([], [])

    def test_other_hash_fails_on_the_same_tag(self):
        failures, notes = golden.compare(make(), make(sha="cd" * 32))
        assert len(failures) == 1 and "sha256" in failures[0]
        assert notes == []

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
