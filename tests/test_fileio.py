"""``fileio.dumps`` writes the same bytes as the item-by-item emitter, and
``fileio.write_text``, the package's one file writer, writes them in place."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

from cylbill import cli, fileio
from cylbill.model import load_system, save_system, system_to_dict
from cylbill.paths import save_sigma
from conftest import make_sphere_system
from emit_oracle import dumps_item_by_item

DATA = sorted((Path(__file__).parent / "data").glob("*.json"))
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cylbill"
MODE = set("rwxabt+")       # the letters of an ``open`` mode


@pytest.mark.parametrize("path", DATA, ids=lambda p: p.stem)
def test_system_files(path):
    for doc in (fileio.load(path), system_to_dict(load_system(path))):
        assert fileio.dumps(doc) == dumps_item_by_item(doc)


def test_mixed_list_keeps_the_item_route():
    doc = {"x": [True, 1, 2.5, np.float64(3), np.int64(4)],
           "y": (1, 2), "z": [[0.1, 2], [3, 4]], "e": []}
    assert fileio.dumps(doc) == dumps_item_by_item(doc)
    assert '"x": [true, 1, 2.5, 3, 4]' in fileio.dumps(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_inside_a_float_list(bad):
    with pytest.raises(ValueError):
        fileio.dumps({"x": [0.5, bad, 1.5]})


def test_report_bodies(tmp_path, monkeypatch, capsys):
    """The bodies that ``classify``, ``delta`` and ``lyapunov`` emit."""
    bodies = []
    dumps = fileio.dumps

    def recording(obj):
        bodies.append(obj)
        return dumps(obj)

    hb = str(Path(__file__).parent / "data" / "hb_3_2.json")
    sinai = tmp_path / "sinai.json"
    save_system(make_sphere_system(2, r=0.3), sinai)
    sigma = tmp_path / "sigma.json"
    save_sigma([0, 1, 2], sigma)
    monkeypatch.setattr(fileio, "dumps", recording)
    for argv in (["classify", "--system", hb],
                 ["delta", "--system", hb, "--sigma", str(sigma),
                  "--samples", "20", "--seed", "3"],
                 ["lyapunov", "--system", str(sinai), "--q", "0,0.5",
                  "--v", "0.6,0.8", "--total-time", "50", "--seed", "5"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(bodies) == 3
    for body in bodies:
        assert dumps(body) == dumps_item_by_item(body)


def test_writing_over_a_longer_file_keeps_it(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("x" * 1000)
    path.chmod(0o640)
    os.link(path, tmp_path / "link.json")
    before = path.stat()
    fileio.dump({"a": [1, 2]}, path)
    after = path.stat()
    assert path.read_bytes() == fileio.dumps({"a": [1, 2]}).encode()
    assert (after.st_ino, after.st_mode, after.st_nlink) == (
        before.st_ino, before.st_mode, 2)
    assert (tmp_path / "link.json").read_bytes() == path.read_bytes()


def test_a_symlink_is_written_through(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old contents, longer than the new ones\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    fileio.write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


def test_a_device_is_written_without_being_cut(monkeypatch):
    def refuse(*args):
        raise AssertionError("a device must not be cut or unlinked")

    monkeypatch.setattr(os, "ftruncate", refuse)
    monkeypatch.setattr(os, "unlink", refuse)
    fileio.write_text("/dev/null", "abc\n")


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call opens or writes a file other than for reading:
    ``os.open``, ``os.fdopen``, an ``open`` with a mode that is not a
    read-only constant, or a path or array writer (``Path.write_text``,
    ``np.save``, ...).  ``fileio.write_text`` is the route, not an open."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    owner = getattr(getattr(func, "value", None), "id", None)
    if owner == "os":
        return name in ("open", "fdopen")
    if name == "open":
        modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
        modes += [a for a in call.args if isinstance(a, ast.Constant)
                  and isinstance(a.value, str) and set(a.value) <= MODE]
        return any(not isinstance(m, ast.Constant)
                   or set(m.value) & set("wax+") for m in modes)
    if name in ("write_text", "write_bytes"):
        return isinstance(func, ast.Attribute) and owner != "fileio"
    return name in ("save", "savez", "savez_compressed", "savetxt", "tofile",
                    "mkstemp", "NamedTemporaryFile")


def file_writers(source: str, module: str) -> list[tuple[str, str]]:
    """``(module, function)`` for each call in ``source`` that opens a file
    for writing, by the module-level function or class it sits in."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        found += [(module, where) for node in ast.walk(top)
                  if isinstance(node, ast.Call) and _opens_for_writing(node)]
    return found


def test_one_place_opens_a_file_for_writing():
    writers = []
    for path in sorted(PACKAGE.glob("*.py")):
        writers += file_writers(path.read_text(encoding="utf-8"), path.stem)
    assert writers == [("fileio", "write_text")]


@pytest.mark.parametrize("line", [
    'with open(path, "w", encoding="utf-8") as fh: fh.write(text)',
    'fh = open(path, mode="a")',
    'Path(path).open("w").write(text)',
    'Path(path).write_text(text)',
    'fd = os.open(path, os.O_WRONLY)',
    'np.save(path, array)',
])
def test_the_writer_walk_sees_every_open(line):
    assert file_writers(f"def dump(obj, path):\n    {line}\n", "m") == [
        ("m", "dump")]
    assert file_writers("def load(path):\n    with open(path, 'r') as fh:\n"
                        "        return fh.read()\n", "m") == []
