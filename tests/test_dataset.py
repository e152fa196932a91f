import numpy as np
import pytest

from approxdbn import dataset as ds

from conftest import write_idx_pair


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(40, 784), dtype=np.uint8)
    labels = rng.integers(0, 10, size=40, dtype=np.uint8)
    ip, lp = tmp_path / "imgs", tmp_path / "lbls"
    write_idx_pair(images, labels, ip, lp)
    return images, labels, str(ip), str(lp)


class TestLoadIdx:
    def test_loads_matching_pair(self, idx_pair):
        images, labels, ip, lp = idx_pair
        data = ds.load_idx(ip, lp)
        assert len(data) == 40
        np.testing.assert_array_equal(data.raw, images)
        np.testing.assert_array_equal(data.labels, labels)

    def test_wrong_label_magic(self, tmp_path, idx_pair):
        images, labels, ip, _ = idx_pair
        lp = tmp_path / "bad_labels"
        write_idx_pair(images, labels, tmp_path / "unused", lp,
                       label_magic=ds.IMAGE_MAGIC)
        with pytest.raises(ds.MagicMismatch) as e:
            ds.load_idx(ip, str(lp))
        assert "bad_labels" in str(e.value)

    def test_wrong_image_magic(self, tmp_path, idx_pair):
        images, labels, _, lp = idx_pair
        ip = tmp_path / "bad_images"
        write_idx_pair(images, labels, ip, tmp_path / "unused",
                       image_magic=0x00000801)
        with pytest.raises(ds.MagicMismatch):
            ds.load_idx(str(ip), lp)

    def test_count_mismatch(self, tmp_path, idx_pair):
        images, labels, ip, _ = idx_pair
        lp = tmp_path / "short_labels"
        write_idx_pair(images[:39], labels[:39], tmp_path / "unused", lp)
        with pytest.raises(ds.CountMismatch):
            ds.load_idx(ip, str(lp))

    def test_truncated_file(self, tmp_path, idx_pair):
        _, _, ip, lp = idx_pair
        data = open(ip, "rb").read()
        cut = tmp_path / "cut"
        cut.write_bytes(data[:-100])
        with pytest.raises(ds.TruncatedFile) as e:
            ds.load_idx(str(cut), lp)
        assert "offset" in str(e.value)

    def test_label_out_of_range(self, tmp_path, idx_pair):
        images, labels, ip, _ = idx_pair
        lp = tmp_path / "big_labels"
        bad = labels.copy()
        bad[5] = 10
        write_idx_pair(images, bad, tmp_path / "unused", lp)
        with pytest.raises(ds.DatasetError) as e:
            ds.load_idx(ip, str(lp))
        assert "big_labels" in str(e.value) and "index 5" in str(e.value)

    def test_wrong_image_size(self, tmp_path, idx_pair):
        _, labels, _, lp = idx_pair
        ip = tmp_path / "small_images"
        write_idx_pair(np.zeros((40, 100), np.uint8), labels, ip, tmp_path / "unused")
        with pytest.raises(ds.DatasetError) as e:
            ds.load_idx(str(ip), lp)
        assert "small_images" in str(e.value)

    def test_grayscale_scaling(self, idx_pair):
        _, _, ip, lp = idx_pair
        data = ds.load_idx(ip, lp)
        # pixel 128 crosses the 0.5 threshold, pixel 127 does not
        np.testing.assert_array_equal(data.images, (data.raw >= 128).astype(float))

    def test_binarized_once(self, idx_pair, monkeypatch):
        _, _, ip, lp = idx_pair
        data = ds.load_idx(ip, lp)
        calls = []
        binarize = ds.binarize
        monkeypatch.setattr(ds, "binarize", lambda p: calls.append(1) or binarize(p))
        assert data.images is data.images
        assert data.one_hot is data.one_hot
        assert len(calls) == 1
        # the cached arrays are shared, so no caller may change them
        assert not data.images.flags.writeable
        assert not data.one_hot.flags.writeable


class TestBinarize:
    @pytest.mark.parametrize("value,expected", [(0.6, 1), (0.5, 0), (0.0, 0), (1.0, 1)])
    def test_threshold(self, value, expected):
        assert ds.binarize(value) == expected

    def test_idempotent_on_binary(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(ds.binarize(ds.binarize(x)), ds.binarize(x))


class TestSplit:
    def _dataset(self, n=100):
        rng = np.random.default_rng(1)
        return ds.LabeledBinaryDataset(
            rng.integers(0, 256, (n, 784), dtype=np.uint8),
            rng.integers(0, 10, n, dtype=np.uint8))

    def test_sizes(self):
        train, val = ds.split(self._dataset(10000), 0.1, seed=0)
        assert (len(train), len(val)) == (9000, 1000)

    def test_zero_fraction(self):
        train, val = ds.split(self._dataset(), 0.0, seed=0)
        assert (len(train), len(val)) == (100, 0)

    def test_deterministic(self):
        d = self._dataset()
        t1, v1 = ds.split(d, 0.25, seed=42)
        t2, v2 = ds.split(d, 0.25, seed=42)
        np.testing.assert_array_equal(t1.raw, t2.raw)
        np.testing.assert_array_equal(v1.labels, v2.labels)

    def test_disjoint_exhaustive(self):
        d = self._dataset()
        d.raw[:, 0] = np.arange(100)  # make rows identifiable
        train, val = ds.split(d, 0.3, seed=3)
        ids = np.concatenate([train.raw[:, 0], val.raw[:, 0]])
        assert sorted(ids) == list(range(100))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            ds.split(self._dataset(), 1.0, seed=0)


def test_one_hot_sums_to_one(idx_pair):
    _, _, ip, lp = idx_pair
    data = ds.load_idx(ip, lp)
    oh = data.one_hot
    assert oh.shape == (40, 10)
    np.testing.assert_array_equal(oh.sum(axis=1), np.ones(40))
    np.testing.assert_array_equal(np.argmax(oh, axis=1), data.labels)


def test_count_mismatch_on_construction():
    with pytest.raises(ds.CountMismatch):
        ds.LabeledBinaryDataset(np.zeros((3, 784), np.uint8),
                                np.zeros(2, np.uint8))
