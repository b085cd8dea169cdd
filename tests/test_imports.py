"""What ``import proxsplit`` loads, and that the lean loading changes no result.

``linalg`` loads ``scipy.linalg.cython_lapack`` from its file instead of
importing the ``scipy.linalg`` package, and nothing in ``proxsplit`` imports
``scipy.optimize``. ``proxsplit.cli`` loads its process machinery only to solve
rows in worker processes. Each check runs in a fresh interpreter, so modules that
other tests imported do not leak in.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from proxsplit.tuning import GridSpec, SolutionPair, sdp_joint_search

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: ``project_psd`` through each LAPACK plan (real/complex) and tridiagonal solver
#: (MRRR/divide and conquer, forced), as hex digests.
PSD_DIGESTS = """
import hashlib
import numpy as np
from proxsplit import linalg
from proxsplit.linalg import project_psd, random_hermitian
rng = np.random.default_rng(7)
digest = hashlib.sha256()
for n, complex_field, mrrr in ((41, False, True), (41, False, False), (51, True, True),
                               (51, True, False)):
    linalg._mrrr = lambda n, positive: mrrr
    digest.update(project_psd(random_hermitian(n, rng, complex_field=complex_field)).tobytes())
print(digest.hexdigest())
"""

#: Makes ``linalg`` find no ``cython_lapack`` file, as in a scipy without the wheel layout.
NO_SPEC = """
import sys
from importlib.machinery import PathFinder
find_spec = PathFinder.find_spec.__func__
def no_spec(cls, name, path=None, target=None):
    if name == "scipy.linalg.cython_lapack" and "scipy.linalg" not in sys.modules:
        return None
    return find_spec(cls, name, path, target)
PathFinder.find_spec = classmethod(no_spec)
"""


def python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_scipy_linalg_and_optimize_unloaded():
    # also after the BQP protocol table, which holds the joint search
    out = python("""
        import sys
        import proxsplit, proxsplit.cli
        from proxsplit import bqp_estimate, bqp_protocol_params, build_prox_pair, gen_bqp
        from proxsplit import reference_solve
        from proxsplit.tuning import SolutionPair
        inst = gen_bqp(6, 8, 0.05, 1.0, 5)
        ref = reference_solve(build_prox_pair(inst), bqp_estimate(inst.a, inst.b, inst.n))
        sol = SolutionPair(ref.x_ref, ref.lam_ref, shape=inst.shape)
        assert len(bqp_protocol_params(inst.a, inst.b, inst.n, sol)) == 7
        print(sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.optimize"))))
    """)
    assert out.strip() == "[]"


def test_import_leaves_the_process_machinery_unloaded():
    out = python("""
        import sys
        import proxsplit.cli
        print(sorted(m for m in sys.modules
                     if m.startswith(("multiprocessing", "concurrent.futures.process"))))
    """)
    assert out.strip() == "[]"


def test_later_scipy_imports_bind_the_same_lapack():
    out = python("""
        import ctypes
        import numpy as np
        from proxsplit import linalg
        import scipy.linalg.cython_lapack
        import scipy.linalg, scipy.optimize
        capi = scipy.linalg.cython_lapack.__pyx_capi__
        for name in ("dsytd2", "zhetd2", "dlarrc", "dstemr", "dstedc", "dormtr", "zunmtr",
                     "dposv"):
            ours = ctypes.cast(getattr(linalg, "_" + name.upper()), ctypes.c_void_p).value
            assert ours == linalg._capsule_pointer(capi[name], linalg._capsule_name(capi[name]))
        w = scipy.linalg.eigh(np.diag([3.0, 1.0, 2.0]), eigvals_only=True)
        assert w.tolist() == [1.0, 2.0, 3.0]
        res = scipy.optimize.minimize_scalar(lambda t: (t - 2.0) ** 2, bounds=(0, 5),
                                             method="bounded")
        assert abs(res.x - 2.0) < 1e-5
        print("ok")
    """)
    assert out.strip() == "ok"


def test_every_way_to_reach_lapack_gives_the_same_projection():
    from_file = python(PSD_DIGESTS)
    fallback = python(NO_SPEC + "\nimport proxsplit.linalg, sys\n"
                      "assert 'scipy.linalg' in sys.modules\n" + PSD_DIGESTS)
    scipy_first = python("import scipy.linalg, sys\nimport proxsplit.linalg\n"
                         "assert sys.modules['scipy.linalg.cython_lapack'] is "
                         "scipy.linalg.cython_lapack\n" + PSD_DIGESTS)
    assert fallback == from_file and scipy_first == from_file


def test_joint_search_bits(bqp_setup):
    # recorded with numpy 2.4.6 / scipy 1.17.1 and one BLAS thread, the tridiagonal solver
    # picked by the count, on the Anderson-warm-started reference; the exact coordinate
    # steps land within 1e-7 of the bits that scipy.optimize's bounded search gave
    inst, _, ref = bqp_setup
    sol = SolutionPair(ref.x_ref, ref.lam_ref, shape=inst.shape)
    alpha, beta = sdp_joint_search(sol, GridSpec())
    assert (alpha.hex(), beta.hex()) == ("0x1.82f106e62f744p-1", "0x1.aaa9391a7e677p+1")
    assert alpha == pytest.approx(float.fromhex("0x1.82f106d18bd7ap-1"), rel=1e-7)
    assert beta == pytest.approx(float.fromhex("0x1.aaa9390b541c1p+1"), rel=1e-7)
