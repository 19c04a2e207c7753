"""The output contract: a manifest of memlens commands and their outputs.

manifest.txt names each command line; expected/<name>/ holds what it
gave: the file exit, the files stdout and stderr when not empty, and
every file it wrote under the working directory (out/...), byte for
byte.  outputs() runs the whole manifest through memlens.cli.main in
one fresh process, from a working directory that holds only a copy of
inputs/, so no absolute path enters an output.

LAPACK's last digits follow the OpenBLAS kernel that runs, so that
process sets OPENBLAS_CORETYPE=Haswell and OPENBLAS_NUM_THREADS=1
before numpy loads, and the corpus holds only where that pin holds:
numpy 2.4.6 on x86-64, with Haswell as the kernel OpenBLAS reports.
Elsewhere outputs() returns the reason instead of outputs, and nothing
is compared.  The process turns every warning into an error.  The
outputs do not depend on the SIMD kernels numpy picks at import from the
CPU: CI runs the contract again under NPY_ENABLE_CPU_FEATURES=X86_V3.

Run as a script with a working directory, this file runs the manifest
there and writes results.json; outputs() starts it that way.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
MANIFEST, INPUTS, EXPECTED = HERE / "manifest.txt", HERE / "inputs", HERE / "expected"
PIN = {"machine": "x86_64", "numpy": "2.4.6", "kernel": "Haswell"}
PINNED_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
# The corpus may hold at most this many bytes (1 MB); a command whose
# outputs would outgrow it belongs in a test of its own.
BUDGET = 1_000_000


def commands():
    """(name, argv) of each manifest line, in order; '#' starts a comment."""
    found = []
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            name, *argv = shlex.split(line)
            found.append((name, argv))
    return found


def _files(root: Path) -> dict:
    """{relative POSIX path: UTF-8 text} of every file under root."""
    return {path.relative_to(root).as_posix(): path.read_bytes().decode("utf-8")
            for path in sorted(root.rglob("*")) if path.is_file()}


def size(corpus: dict) -> int:
    """The UTF-8 bytes of every file of a {name: {path: text}} corpus."""
    return sum(len(text.encode("utf-8")) for files in corpus.values()
               for text in files.values())


def expected() -> dict:
    """{name: {path: text}} of the committed corpus."""
    return {entry.name: _files(entry) for entry in sorted(EXPECTED.iterdir())
            if entry.is_dir()} if EXPECTED.is_dir() else {}


def outputs(workdir: Path):
    """(problem, {name: {path: text}}) of the manifest run in workdir by a
    pinned process; problem names the pin that does not hold, or is None."""
    env = {**os.environ, **PINNED_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-W", "error", __file__, str(workdir)],
                   env=env, check=True, timeout=600)
    result = json.loads((workdir / "results.json").read_text(encoding="utf-8"))
    return result["problem"], result["outputs"]


def _kernel(numpy):
    """The OpenBLAS kernel numpy's bundled library runs, or None."""
    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def _pin_problem():
    import numpy

    found = {"machine": platform.machine(), "numpy": numpy.__version__,
             "kernel": _kernel(numpy)}
    if found == PIN:
        return None
    return (f"the output contract is pinned to numpy {PIN['numpy']} on "
            f"{PIN['machine']} with the OpenBLAS kernel {PIN['kernel']}, but this "
            f"host runs numpy {found['numpy']} on {found['machine']} with the "
            f"kernel {found['kernel']}; its outputs are not compared")


def _run(workdir: Path) -> dict:
    """{name: {path: text}} of every manifest command, run in workdir."""
    from memlens.cli import main

    shutil.copytree(INPUTS, workdir / "inputs")
    os.chdir(workdir)
    results = {}
    for name, argv in commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        files = {"exit": f"{code}\n", "stdout": stdout.getvalue(),
                 "stderr": stderr.getvalue()}
        files = {path: text for path, text in files.items() if text}
        # What the command left beside inputs/ is read and removed.
        for entry in sorted(workdir.iterdir()):
            if entry.name == "inputs":
                continue
            if entry.is_dir():
                files.update({f"{entry.name}/{path}": text
                              for path, text in _files(entry).items()})
                shutil.rmtree(entry)
            else:
                files[entry.name] = entry.read_bytes().decode("utf-8")
                entry.unlink()
        results[name] = files
    return results


if __name__ == "__main__":
    workdir = Path(sys.argv[1])
    problem = _pin_problem()
    result = {"problem": problem, "outputs": {} if problem else _run(workdir)}
    (workdir / "results.json").write_text(json.dumps(result), encoding="utf-8")
