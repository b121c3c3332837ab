"""OBJ and OFF readers/writers.

OBJ: ``v x y z`` and ``f i j k ...`` records with 1-based (optionally
negative) indices, ``#`` comments, and ``i/t/n`` face tokens (only the vertex
index is used).  OFF: ``OFF`` header, counts line, vertex block, face block.
Polygon faces are fan-triangulated.  Both formats are whitespace-tolerant.
"""

import numpy as np

from ..geom import InputError


class MeshParseError(InputError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _fan(indices):
    return [(indices[0], indices[i], indices[i + 1])
            for i in range(1, len(indices) - 1)]


def load_obj(path):
    """Read an OBJ file; returns (vertices (n,3) float, faces (m,3) int)."""
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise MeshParseError(path, line_no, "vertex needs 3 coordinates")
                try:
                    vertices.append([float(p) for p in parts[1:4]])
                except ValueError:
                    raise MeshParseError(path, line_no, "bad vertex coordinate") from None
            elif tag == "f":
                idx = []
                for token in parts[1:]:
                    head = token.split("/", 1)[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise MeshParseError(path, line_no, f"bad face index {token!r}") from None
                    if i > 0:
                        i -= 1
                    elif i < 0:
                        i += len(vertices)
                    else:
                        raise MeshParseError(path, line_no, "face index 0 is invalid")
                    if not 0 <= i < len(vertices):
                        raise MeshParseError(path, line_no, f"face index {token} out of range")
                    idx.append(i)
                if len(idx) < 3:
                    raise MeshParseError(path, line_no, "face needs at least 3 vertices")
                faces.extend(_fan(idx))
            # vn / vt / o / g / s / usemtl / mtllib records are ignored
    return _finalize(path, vertices, faces)


def load_off(path):
    """Read an OFF file; returns (vertices (n,3) float, faces (m,3) int)."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.readlines()

    tokens = []  # (line_no, token) stream with comments stripped
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        for token in line.split():
            tokens.append((line_no, token))
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(tokens):
            last = tokens[-1][0] if tokens else 1
            raise MeshParseError(path, last, f"unexpected end of file while reading {what}")
        out = tokens[pos:pos + n]
        pos += n
        return out

    first = take(1, "header")[0]
    if first[1].upper() == "OFF":
        counts = take(3, "counts")
    else:
        # headerless variant: the first line is already the counts line
        counts = [first] + take(2, "counts")
    try:
        nv, nf = int(counts[0][1]), int(counts[1][1])
        int(counts[2][1])
    except ValueError:
        raise MeshParseError(path, counts[0][0], "bad counts line") from None

    vertices = []
    for _ in range(nv):
        triple = take(3, "vertex")
        try:
            vertices.append([float(t[1]) for t in triple])
        except ValueError:
            raise MeshParseError(path, triple[0][0], "bad vertex coordinate") from None

    faces = []
    for _ in range(nf):
        head = take(1, "face size")[0]
        try:
            k = int(head[1])
        except ValueError:
            raise MeshParseError(path, head[0], "bad face vertex count") from None
        if k < 3:
            raise MeshParseError(path, head[0], "face needs at least 3 vertices")
        toks = take(k, "face indices")
        idx = []
        for line_no, tok in toks:
            try:
                i = int(tok)
            except ValueError:
                raise MeshParseError(path, line_no, f"bad face index {tok!r}") from None
            if not 0 <= i < nv:
                raise MeshParseError(path, line_no, f"face index {i} out of range")
            idx.append(i)
        faces.extend(_fan(idx))
    return _finalize(path, vertices, faces)


def _finalize(path, vertices, faces):
    if not vertices or not faces:
        raise MeshParseError(path, 1, "empty mesh")
    v = np.asarray(vertices, dtype=float)
    if not np.all(np.isfinite(v)):
        raise MeshParseError(path, 1, "non-finite vertex coordinates")
    return v, np.asarray(faces, dtype=np.int64)


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
