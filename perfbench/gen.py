"""Seeded, MNIST-shaped synthetic digits written as IDX file pairs.

Each class is a stroke template (polylines in a unit box) rendered onto a
28x28 grid. Every sample shifts its template by a seeded jitter of up to
``MAX_SHIFT`` pixels in each direction and then flips each pixel with
probability ``flip``. The flip rate sets how hard the task is: the
workloads tune it so the trained DDBN lands at roughly 85-95% validation
accuracy, which keeps the search's accuracy constraint binding.
"""

import struct

import numpy as np

SIDE = 28
BOX = 18          # side of the square the strokes are scaled into
THICKNESS = 1.3   # stroke half-width in pixels
MAX_SHIFT = 2     # jitter in pixels, each direction

# Polylines in (x, y) unit coordinates, y pointing down, one list per class.
_STROKES = {
    0: [[(0.5, 0.0), (0.85, 0.2), (0.9, 0.6), (0.6, 1.0), (0.25, 0.9),
         (0.1, 0.45), (0.25, 0.1), (0.5, 0.0)]],
    1: [[(0.3, 0.2), (0.55, 0.0), (0.55, 1.0)], [(0.3, 1.0), (0.8, 1.0)]],
    2: [[(0.1, 0.2), (0.4, 0.0), (0.8, 0.1), (0.85, 0.4), (0.1, 1.0),
         (0.9, 1.0)]],
    3: [[(0.1, 0.05), (0.85, 0.05), (0.45, 0.45), (0.85, 0.65), (0.7, 0.95),
         (0.1, 0.95)]],
    4: [[(0.7, 1.0), (0.7, 0.0), (0.05, 0.7), (0.95, 0.7)]],
    5: [[(0.9, 0.0), (0.2, 0.0), (0.15, 0.45), (0.7, 0.45), (0.9, 0.7),
         (0.7, 1.0), (0.1, 0.95)]],
    6: [[(0.8, 0.0), (0.3, 0.3), (0.1, 0.75), (0.4, 1.0), (0.85, 0.8),
         (0.7, 0.5), (0.2, 0.6)]],
    7: [[(0.05, 0.0), (0.95, 0.0), (0.35, 1.0)], [(0.3, 0.5), (0.75, 0.5)]],
    8: [[(0.5, 0.5), (0.15, 0.25), (0.5, 0.0), (0.85, 0.25), (0.5, 0.5),
         (0.1, 0.75), (0.5, 1.0), (0.9, 0.75), (0.5, 0.5)]],
    9: [[(0.85, 0.35), (0.5, 0.5), (0.15, 0.3), (0.45, 0.0), (0.85, 0.2),
         (0.8, 1.0)]],
}


def _segment_distance(px, py, a, b):
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / max(dx * dx + dy * dy, 1e-12)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def templates():
    """(10, 28, 28) uint8 stroke images, centred, 255 on the stroke."""
    ys, xs = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    margin = (SIDE - BOX) / 2.0
    out = np.zeros((10, SIDE, SIDE), dtype=np.uint8)
    for digit, lines in _STROKES.items():
        dist = np.full((SIDE, SIDE), np.inf)
        for line in lines:
            pts = [(margin + x * BOX, margin + y * BOX) for x, y in line]
            for a, b in zip(pts[:-1], pts[1:]):
                dist = np.minimum(dist, _segment_distance(xs, ys, a, b))
        out[digit] = np.where(dist <= THICKNESS, 255, 0)
    return out


def generate(count, seed, flip):
    """``count`` (images (N, 784) uint8, labels (N,) uint8) from ``seed``."""
    rng = np.random.default_rng(seed)
    base = templates()
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(count, 2))
    images = np.empty((count, SIDE, SIDE), dtype=np.uint8)
    for i, (label, (dy, dx)) in enumerate(zip(labels, shifts)):
        images[i] = np.roll(base[label], (dy, dx), axis=(0, 1))
    flips = rng.random(images.shape) < flip
    images[flips] = 255 - images[flips]
    return images.reshape(count, SIDE * SIDE), labels


def write_idx(images, labels, images_path, labels_path):
    """Write an MNIST IDX pair (magics 0x803 and 0x801)."""
    with open(images_path, "wb") as f:
        f.write(struct.pack(">4i", 0x803, len(images), SIDE, SIDE))
        f.write(images.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">2i", 0x801, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())
