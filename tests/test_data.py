import numpy as np
import pytest

from diffctr import cli
from diffctr import data as dd
from diffctr import experiments as ex
from diffctr import train as tr
from diffctr.errors import DataError
from diffctr.rng import stream
from conftest import FailingWriter


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_builds_vocab_with_oov_slot(tmp_path):
    path = write(tmp_path, "train.csv", "a,b,label\nred,x,1\nblue,y,0\nred,z,1\n")
    ds, vocabs = dd.load_training_delimited(path)
    assert len(ds.samples) == 3
    sizes = {f.name: f.vocab_size for f in ds.schema}
    assert sizes == {"a": 3, "b": 4, "label": 2}  # distinct + 1 OOV
    assert ds.samples[0].tokens == (1, 1, 1)
    assert ds.samples[2].tokens == (1, 3, 1)


def test_bad_label_cites_line(tmp_path):
    path = write(tmp_path, "t.csv", "a,label\nu,1\nv,0\nw,1\nx,0\ny,2\n")
    with pytest.raises(DataError, match="line 6"):
        dd.load_training_delimited(path)
    vocabs = {"a": {"u": 1}}
    with pytest.raises(DataError, match="line 6"):
        dd.load_delimited(path, vocabs)


def test_training_file_is_read_once(tmp_path, monkeypatch):
    path = write(tmp_path, "train.csv", "a,b,label\nred,x,1\nblue,y,0\n")
    reads = []
    read_rows = dd._read_rows
    monkeypatch.setattr(dd, "_read_rows", lambda p: reads.append(p) or read_rows(p))
    ds, vocabs = dd.load_training_delimited(path)
    assert reads == [path]
    assert vocabs == {"a": {"red": 1, "blue": 2}, "b": {"x": 1, "y": 2}} and len(ds.samples) == 2


def test_unseen_token_maps_to_oov(tmp_path):
    train = write(tmp_path, "train.csv", "a,label\nu,1\nv,0\n")
    ds, vocabs = dd.load_training_delimited(train)
    eval_path = write(tmp_path, "eval.csv", "a,label\nnever-seen,0\nu,1\n")
    ev = dd.load_delimited(eval_path, vocabs, split="test")
    assert ev.samples[0].tokens[0] == dd.OOV_ID
    assert ev.samples[1].tokens[0] == ds.samples[0].tokens[0]


def test_missing_column_and_empty_file(tmp_path):
    train = write(tmp_path, "train.csv", "a,b,label\nu,p,1\nv,q,0\n")
    _, vocabs = dd.load_training_delimited(train)
    bad = write(tmp_path, "bad.csv", "a,label\nu,1\n")
    with pytest.raises(DataError, match="missing columns"):
        dd.load_delimited(bad, vocabs)
    empty = write(tmp_path, "empty.csv", "")
    with pytest.raises(DataError, match="empty"):
        dd.load_training_delimited(empty)


def test_session_column_round_trip(tmp_path):
    path = write(tmp_path, "s.csv", "a,label,session_id\nu,1,s1\nv,0,s1\nu,0,s2\n")
    ds, _ = dd.load_training_delimited(path)
    assert [s.session_id for s in ds.samples] == ["s1", "s1", "s2"]


def test_session_ids_need_every_row():
    schema = dd.feature_schema([2])
    rows = [dd.Sample(tokens=(0, 1), session_id="a"), dd.Sample(tokens=(1, 0), session_id="b")]
    assert dd.Dataset(schema=schema, samples=rows).session_ids() == ["a", "b"]
    rows[1] = dd.Sample(tokens=(1, 0))
    assert dd.Dataset(schema=schema, samples=rows).session_ids() is None


def test_save_rejects_partial_session_ids(tmp_path):
    rows = [dd.Sample(tokens=(0, 1), session_id="a"), dd.Sample(tokens=(1, 0))]
    ds = dd.Dataset(schema=dd.feature_schema([2]), samples=rows)
    with pytest.raises(DataError, match="some rows have a session_id"):
        dd.save_delimited(ds, str(tmp_path / "out.csv"))


@pytest.mark.parametrize("blank", ["", "  "])
def test_blank_session_cell_cites_line(tmp_path, blank):
    path = write(tmp_path, "s.csv", f"a,label,session_id\nu,1,s1\nv,0,{blank}\nu,0,s2\n")
    with pytest.raises(DataError, match="line 3: empty session_id"):
        dd.load_training_delimited(path)


def test_save_load_round_trip(tmp_path):
    path = write(tmp_path, "train.csv", "a,b,label\nred,x,1\nblue,y,0\nred,z,1\n")
    ds, _ = dd.load_training_delimited(path)
    out = str(tmp_path / "out.csv")
    dd.save_delimited(ds, out)
    # ids are numbered by first appearance, so the written ids number themselves alike
    again, _ = dd.load_training_delimited(out)
    np.testing.assert_array_equal(ds.token_matrix(), again.token_matrix())


@pytest.mark.parametrize("order", [(1, 0, 2, 3, 4), (2, 4, 0, 3, 1), (4, 3, 2, 1, 0)])
def test_a_file_with_its_columns_in_another_order_loads_as_the_training_file(tmp_path, order):
    """Features follow the training file's column order, whatever the header's, and
    the label and session columns may stand anywhere."""
    header = ["a", "b", "c", "label", "session_id"]
    cells = [["red", "x", "p", "1", "s1"], ["blue", "y", "q", "0", "s1"], ["red", "z", "q", "1", "s2"]]

    def text(columns):
        return "".join(",".join(row[k] for k in columns) + "\n" for row in [header, *cells])

    train, vocabs = dd.load_training_delimited(write(tmp_path, "train.csv", text(range(5))))
    permuted = dd.load_delimited(write(tmp_path, "test.csv", text(order)), vocabs, split="test")
    assert permuted.schema == train.schema
    np.testing.assert_array_equal(permuted.token_matrix(), train.token_matrix())
    assert permuted.session_ids() == train.session_ids()


def test_clean_samples_never_hold_mask_id():
    spec = dd.random_spec(num_fields=3, vocab=5, clusters=2, samples=200, seed=1)
    ds, _ = dd.generate_synthetic(spec)
    toks = ds.token_matrix()
    for f in ds.schema:
        assert toks[:, f.index].max() < f.vocab_size


def test_synthetic_symmetric_spec_gives_half():
    spec = dd.random_spec(num_fields=4, vocab=6, clusters=3, samples=20000, seed=3,
                          main_scale=0.0, cross_scale=0.0, intercept=0.0)
    ds, bayes = dd.generate_synthetic(spec)
    assert np.all(bayes == 0.5)
    rate = ds.labels().mean()
    sigma = 0.5 / np.sqrt(len(ds.samples))
    assert abs(rate - 0.5) < 3 * sigma


def test_synthetic_dominant_cross_term():
    spec = dd.random_spec(num_fields=2, vocab=3, clusters=1, samples=5000, seed=5,
                          main_scale=0.0, cross_scale=0.0, intercept=0.0)
    w = np.zeros((3, 3))
    w[1, 2] = 10.0
    spec.cross_effects[(0, 1)] = w
    ds, bayes = dd.generate_synthetic(spec)
    toks = ds.token_matrix()
    hit = (toks[:, 0] == 1) & (toks[:, 1] == 2)
    assert hit.any()
    assert np.all(bayes[hit] > 0.999)


def test_bayes_scores_depend_on_tokens_only():
    spec = dd.random_spec(num_fields=3, vocab=4, clusters=2, samples=3000, seed=9)
    ds, bayes = dd.generate_synthetic(spec)
    toks = ds.token_matrix()[:, :-1]
    seen = {}
    for i in range(len(bayes)):
        key = tuple(toks[i])
        if key in seen:
            assert bayes[i] == seen[key]
        else:
            seen[key] = bayes[i]


def test_generate_deterministic():
    spec = dd.random_spec(num_fields=2, vocab=4, clusters=2, samples=500, seed=11)
    ds1, b1 = dd.generate_synthetic(spec)
    ds2, b2 = dd.generate_synthetic(spec)
    np.testing.assert_array_equal(ds1.token_matrix(), ds2.token_matrix())
    np.testing.assert_array_equal(b1, b2)


def test_invalid_probability_table_rejected():
    spec = dd.random_spec(num_fields=2, vocab=3, clusters=2, samples=10, seed=1)
    spec.cluster_probs[0] = np.full((2, 3), 0.5)  # rows sum to 1.5
    with pytest.raises(DataError):
        dd.generate_synthetic(spec)


def test_batch_iter_sizes_and_determinism():
    spec = dd.random_spec(num_fields=2, vocab=3, clusters=1, samples=10, seed=2)
    ds, _ = dd.generate_synthetic(spec)
    batches = list(dd.batch_iter(ds, 4, seed=1, epoch=0))
    assert [len(b) for b in batches] == [4, 4, 2]
    again = list(dd.batch_iter(ds, 4, seed=1, epoch=0))
    for b1, b2 in zip(batches, again):
        np.testing.assert_array_equal(b1, b2)


def test_batch_iter_epochs_permute_differently():
    spec = dd.random_spec(num_fields=2, vocab=3, clusters=1, samples=128, seed=2)
    ds, _ = dd.generate_synthetic(spec)

    def order(epoch):
        return np.concatenate(list(dd.batch_iter(ds, 32, seed=9, epoch=epoch)))

    assert not np.array_equal(order(0), order(1))


def test_batch_iter_yields_int64_matrices_covering_the_split():
    spec = dd.random_spec(num_fields=3, vocab=5, clusters=2, samples=103, seed=4)
    ds, _ = dd.generate_synthetic(spec)
    batches = list(dd.batch_iter(ds, 16, seed=3, epoch=2))
    for b in batches:
        assert b.dtype == np.int64 and b.shape[1] == 4
    assert [len(b) for b in batches] == [16] * 6 + [7]

    def sorted_rows(m):
        return m[np.lexsort(m.T[::-1])]

    np.testing.assert_array_equal(sorted_rows(np.concatenate(batches)), sorted_rows(ds.token_matrix()))


def test_token_matrix_is_read_only():
    ds = dd.Dataset(schema=dd.feature_schema([3]), samples=[dd.Sample(tokens=(1, 0)),
                                                            dd.Sample(tokens=(2, 1))])
    toks = ds.token_matrix()
    assert toks.dtype == np.int64 and toks.shape == (2, 2)
    with pytest.raises(ValueError):
        toks[0, 0] = 0
    with pytest.raises(ValueError):
        ds.labels()[0] = 1


F0_LABEL = [("f0", 3), ("label", 2)]


@pytest.mark.parametrize("schema,rows,match", [
    (F0_LABEL, [(1, 0), (2, 1, 0)], "sample 1: expected 2 tokens, got 3"),
    (F0_LABEL, [(1, 0), (2,)], "sample 1: expected 2 tokens, got 1"),
    (F0_LABEL, [(1, 0, 1), (2, 1, 0)], "sample 0: expected 2 tokens, got 3"),
    (F0_LABEL, [(1, 0), (1, 1), (-1, 0)], "sample 2: token -1 out of range for field 'f0'"),
    (F0_LABEL, [(1, 0), (3, 1)], r"sample 1: token 3 out of range for field 'f0' \(vocab 3\)"),
    (F0_LABEL, [(1, 2)], r"sample 0: token 2 out of range for field 'label' \(vocab 2\)"),
    (F0_LABEL, [(1, 0), ("a", 1)], "sample tokens must be integer ids"),
    ([("f0", 3), ("f1", 2)], [(1, 0)], "last field must be the binary label"),
    ([("f0", 3), ("label", 3)], [(1, 0)], "last field must be the binary label"),
    ([("f0", 3), ("f0", 3), ("label", 2)], [(1, 0, 1)], "field names must be unique"),
    (F0_LABEL, [], "split 'train' is empty"),
])
def test_dataset_rejects_malformed_rows_and_schemas(schema, rows, match):
    fields = [dd.FieldSchema(k, name, v) for k, (name, v) in enumerate(schema)]
    with pytest.raises(DataError, match=match):
        dd.Dataset(schema=fields, samples=[dd.Sample(tokens=r) for r in rows])


def test_split_indices_exact_counts_and_determinism():
    tr, va, te = dd.split_indices(60000, seed=4)
    assert (len(tr), len(va), len(te)) == (48000, 6000, 6000)
    tr2, va2, te2 = dd.split_indices(60000, seed=4)
    np.testing.assert_array_equal(tr, tr2)
    assert len(np.intersect1d(tr, va)) == 0
    assert len(np.intersect1d(tr, te)) == 0
    combined = np.sort(np.concatenate([tr, va, te]))
    np.testing.assert_array_equal(combined, np.arange(60000))


def write_dataset(out, _):
    rows = [dd.Sample(tokens=(i % 3, i % 2), session_id=f"s{i // 2}") for i in range(6)]
    dd.save_delimited(dd.Dataset(schema=dd.feature_schema([3]), samples=rows), f"{out}/rows.csv")


def write_suite_report(out, _):
    rows = [ex.SuiteRow(cid, seed, "test", "auc", 0.5 + 0.1 * seed + (cid == "full") * 0.05)
            for cid in ("full", "other") for seed in range(3)]
    ex.write_report_files(ex.SuiteReport(rows=rows, failures=[("other", 3, "diverged")]), out)


def write_run_rows(out, _):
    report = tr.RunReport(epochs=[tr.EpochLog(0, 1.5), tr.EpochLog(1, 1.25)])
    cli._write_run_rows(f"{out}/pretrain_rows.csv", "pretrain", 0, report)


def write_manifest(out, _):
    for name in ("a.txt", "b.txt"):
        with open(f"{out}/{name}", "w") as fh:
            fh.write(name)
    cli.write_manifest(out)


def generate_data(out, config_path):
    assert cli.main(["generate-data", "--config", config_path, "--out", out]) == 0


@pytest.mark.parametrize(
    "write", [write_dataset, write_suite_report, write_run_rows, write_manifest, generate_data]
)
def test_failed_write_keeps_previous_files(tmp_path, tiny_config_path, monkeypatch, capsys, write):
    out = tmp_path / "out"
    out.mkdir()
    write(str(out), tiny_config_path)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    monkeypatch.setattr(dd, "open", FailingWriter, raising=False)
    if write is generate_data:  # the CLI reports the DataError: exit 2, one line, no traceback
        code = cli.main(["generate-data", "--config", tiny_config_path, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"error: cannot write {out}") and err.endswith(": no space left on device\n")
    else:
        with pytest.raises(DataError, match=r"^cannot write .*: no space left on device$"):
            write(str(out), tiny_config_path)
    monkeypatch.undo()
    # every file as it was, and no temporary file left behind
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
