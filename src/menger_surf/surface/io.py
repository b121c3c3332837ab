"""OBJ and OFF readers/writers.

OBJ: ``v x y z`` and ``f i j k ...`` records with 1-based (optionally
negative) indices, ``#`` comments, and ``i/t/n`` face tokens (only the vertex
index is used).  OFF: ``OFF`` header, counts line, then one line per vertex
and per face, colour columns skipped.  Polygon faces are fan-triangulated.
Both formats are whitespace-tolerant.

The readers share one line reader and one check each for a vertex, a face and
an empty mesh; every error is a ``MeshParseError`` naming its record's line.
``READERS`` maps each format to its reader and is the one list of formats.
"""

import math

import numpy as np

from ..geom import InputError


class MeshParseError(InputError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _records(path):
    """(line number, words) of each line that keeps words once its ``#``
    comment is cut, read one line at a time."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, raw in enumerate(fh, start=1):
            words = raw.split("#", 1)[0].split()
            if words:
                yield line_no, words


def _vertex(path, line_no, words):
    """The three finite coordinates that words spell."""
    try:
        xyz = [float(w) for w in words]
    except ValueError:
        raise MeshParseError(path, line_no, "bad vertex coordinate") from None
    if not all(map(math.isfinite, xyz)):
        raise MeshParseError(path, line_no, "non-finite vertex coordinates")
    return xyz


def _face(path, line_no, tokens, count, obj=False):
    """The triangle fan of a polygon of at least 3 of count vertices, each named
    by its 0-based index or, in OBJ, by the 1-based or negative i of i/t/n."""
    if len(tokens) < 3:
        raise MeshParseError(path, line_no, "face needs at least 3 vertices")
    idx = []
    for token in tokens:
        try:
            i = int(token.split("/", 1)[0] if obj else token)
        except ValueError:
            raise MeshParseError(path, line_no, f"bad face index {token!r}") from None
        if obj:
            i += -1 if i > 0 else count
        if not 0 <= i < count:
            raise MeshParseError(path, line_no, f"face index {token} out of range")
        idx.append(i)
    return [(idx[0], idx[k], idx[k + 1]) for k in range(1, len(idx) - 1)]


def _arrays(path, vertices, faces):
    if not vertices or not faces:
        raise MeshParseError(path, 1, "empty mesh")
    return np.asarray(vertices, dtype=float), np.asarray(faces, dtype=np.int64)


def load_obj(path):
    """Read an OBJ file; returns (vertices (n,3) float, faces (m,3) int)."""
    vertices = []
    faces = []
    for line_no, words in _records(path):
        if words[0] == "v":
            if len(words) < 4:
                raise MeshParseError(path, line_no, "vertex needs 3 coordinates")
            vertices.append(_vertex(path, line_no, words[1:4]))
        elif words[0] == "f":
            faces.extend(_face(path, line_no, words[1:], len(vertices), obj=True))
        # vn / vt / o / g / s / usemtl / mtllib records are ignored
    return _arrays(path, vertices, faces)


def load_off(path):
    """Read an OFF file; returns (vertices (n,3) float, faces (m,3) int).

    One record per line; words after a vertex's 3 coordinates or after a
    face's indices are colour, and the counts may share the header's line.
    """
    records = _records(path)
    last = 1  # the line of the last record read

    def take(what):
        nonlocal last
        for last, words in records:
            return last, words
        raise MeshParseError(path, last, f"unexpected end of file while reading {what}")

    line_no, counts = take("header")
    if counts[0].upper() == "OFF":
        counts = counts[1:] or take("counts")[1]
        line_no = last
    try:
        nv, nf, ne = map(int, counts)
        bad = min(nv, nf, ne) < 0
    except ValueError:
        bad = True
    if bad:
        raise MeshParseError(path, line_no, "bad counts line")

    vertices = []
    for line_no, words in (take("vertex") for _ in range(nv)):
        if len(words) < 3:
            raise MeshParseError(path, line_no, "vertex needs 3 coordinates")
        vertices.append(_vertex(path, line_no, words[:3]))
    faces = []
    for line_no, words in (take("face size") for _ in range(nf)):
        try:
            k = int(words[0])
        except ValueError:
            raise MeshParseError(path, line_no, "bad face vertex count") from None
        if k >= 3 and len(words) <= k:
            raise MeshParseError(path, line_no, f"face needs {k} indices, "
                                 f"got {len(words) - 1}")
        # a size below 3 passes no index, and _face refuses it
        faces.extend(_face(path, line_no, words[1:k + 1] if k >= 3 else [], nv))
    return _arrays(path, vertices, faces)


READERS = {"obj": load_obj, "off": load_off}


def save_obj(path, vertices, faces):
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(vertices, dtype=float):
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in np.asarray(faces, dtype=np.int64):
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def save_off(path, vertices, faces):
    vertices = np.asarray(vertices, dtype=float)
    faces = np.asarray(faces, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(vertices)} {len(faces)} 0\n")
        for v in vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")
