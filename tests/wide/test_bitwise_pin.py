"""Bit-for-bit pins of the wide backend's answers.

``test_wide_backend_is_bitwise_reproducible`` only checks that two wide
runs agree with each other; these digests also fail when a change to the
lane machinery (the round table, the gathers, the reducers) moves a
single bit of an answer. Each case runs one fused kernel on a small
3-point-stencil batch and pins the SHA-256 of the solution, of the
iteration counts and of the NaN-padded residual history. The cases cover
one fully active round (n=32, work-group 32), a padded ragged round
(n=17, work-group 32), two stride rounds (n=1100, work-group 1024), the
sub-group SpMV and the sub-group reductions.

To re-record after a deliberate change of the arithmetic, print
``_digests(*_run(case))`` for every case and explain the change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.preconditioner.jacobi import BatchJacobi
from repro.kernels import launch_fused, queue_for
from repro.kernels.bicgstab_kernel import run_batch_bicgstab_on_device
from repro.kernels.cg_kernel import run_batch_cg_on_device
from repro.wide import lanes
from repro.workloads.stencil import stencil_rhs, three_point_stencil

#: case name -> (n, num_batch, max_iterations)
_SHAPES = {"n32": (32, 3, 60), "n17": (17, 3, 60), "n1100": (1100, 1, 30)}

#: case -> SHA-256 of (x, iterations, res_history), recorded before the
#: round table existed.
PINS = {
    "cg-jacobi-n32": (
        "acaf8eb63761f47de865084e128e9dba0875bceb73c6cef795674a2734df2dcd",
        "a09e50701c5d253fc6c2eb3ff274364d7bd9681db38878289b2f6df087266e68",
        "a514d39afb5520ac0ee760eb69c3eddd7797278a709ab8f7914a8276439f68ac",
    ),
    "cg-identity-n32": (
        "7d9a640f17350f736c338e593e72e519440c5c703aa456c2f74f88234a352b99",
        "a09e50701c5d253fc6c2eb3ff274364d7bd9681db38878289b2f6df087266e68",
        "35d8435897907d0fbf6867147974bbb6187032a68b08c8a14816c11c70801939",
    ),
    "bicgstab-jacobi-n32": (
        "ba4d634e87123c481b5dd2dfde7351a1387328ac84a0d9478b7913b3e002c0ba",
        "5b4fc260166092b2bf258023e7fcea6bdebedba811339f36ca194457e0cf6ba4",
        "215ed96d2d9762777f784f068d9219b6f8f4e83adda37fb781130ecd0a7f8dc7",
    ),
    "bicgstab-identity-n32": (
        "df69b14aa183680e35129f1f60907dfce87328330ee4efcd9b8a21bc5ade2716",
        "88cdd18dc0a8750b1fe93b46254dd72f49f79d421c70c6f8ed5944c538de5584",
        "d79bd1a9487e315f36a562d633ec1939cb5590736fda952c589018e757ad25d8",
    ),
    "richardson-jacobi-n32": (
        "0beec1cd22727ff14cdc3341510409fd18e4a54ad2b561a94d38340a4a4e4b15",
        "18c42fe2d3988e0f3674e222b26c149bd54540861e52308984fe6f12efcf6410",
        "ee0f4bd91d540db774901a7e3a3ee7985781ec28eaa1b7093099c333b3f4e785",
    ),
    "richardson-identity-n32": (
        "9bef4947786a0621bd316cb47834e7724e54ab6932126139d25ca50bb464cdd6",
        "18c42fe2d3988e0f3674e222b26c149bd54540861e52308984fe6f12efcf6410",
        "04137e6d2278db61aca25daab389e4bf71950c58c809c712561029369e9524b9",
    ),
    "cg-jacobi-n17": (
        "88d58c8c9aa0ded0b85f928316be93dd2d845bc9a63a6ebe8a68eecc26199287",
        "1c375f1075baf7f8512834bc0c89a72f1d04018adc9f0b4b9332045e4241036d",
        "001c1268f2ca538df254ae29f7a702d8e7e5f776c3664b311dfe6d29cf18a132",
    ),
    "cg-identity-n17": (
        "35e5dd94894b5846985e4ab8a295ce0404fa290d6a91dd3110bdc6957cd1411c",
        "1c375f1075baf7f8512834bc0c89a72f1d04018adc9f0b4b9332045e4241036d",
        "a628bc7779b360b8c953c5a453158773d128b5f2d4114a05d7239b0a649cc35d",
    ),
    "bicgstab-jacobi-n17": (
        "a0988ec37c453d4b6756cbf9df719ad44f71bd22d28250a888d783a32767f143",
        "1c375f1075baf7f8512834bc0c89a72f1d04018adc9f0b4b9332045e4241036d",
        "d50cdaffda98a789d1262a3d6d0be24b209113045ee71e5f387fb31a94960933",
    ),
    "bicgstab-identity-n17": (
        "ea29c43a3d691d488943088a138be2dc08de32b8686fa7aef1053d6e9e1ee784",
        "1c375f1075baf7f8512834bc0c89a72f1d04018adc9f0b4b9332045e4241036d",
        "4169003287da10149c979447acc62c33d467c69258d72f8be165735d14648245",
    ),
    "richardson-jacobi-n17": (
        "7a88889c88ac861897d990646462e63a0ac29fd602456b0373c7dacc2d662763",
        "18c42fe2d3988e0f3674e222b26c149bd54540861e52308984fe6f12efcf6410",
        "e257b287db9837ba303db1d195fa70355b348d05dbd5b44615ac7b7689e5b0b5",
    ),
    "richardson-identity-n17": (
        "f59f9bab056aed0d36c6742ca4465782b6ac770b23022dced4ff7b9ef7589bf8",
        "18c42fe2d3988e0f3674e222b26c149bd54540861e52308984fe6f12efcf6410",
        "6e437a778aef85f54e52e879c30ad49ecf386310e6c03ccc52775f27ea15abdd",
    ),
    "cg-jacobi-n1100": (
        "7b0042acd5f88a5d67d75cf934a09e63d0fedcc0ede5152f3d8c1413025c7cbc",
        "74b4dda3624aed85d808e91d84b08aad88563b02fe290e0d327865c33d2bafbd",
        "e5f7ffa16f0bd1c462e537d3cded973010b23879de68919f49101950959d96d9",
    ),
    "cg-identity-n1100": (
        "83a4fee4de2b4535e0083ebb1e029d42493f8b5fd66c58256245094bdc36f844",
        "74b4dda3624aed85d808e91d84b08aad88563b02fe290e0d327865c33d2bafbd",
        "badff881e3363e7e06ef6ab4176618e7fb945b089092ae61398531c77b6b6b33",
    ),
    "bicgstab-jacobi-n1100": (
        "87d10bbf9df190721a37a57ea356505a6f8bbe5bf60a367e34f00a11591c7b18",
        "74b4dda3624aed85d808e91d84b08aad88563b02fe290e0d327865c33d2bafbd",
        "0e2e86b3ae7ed4bd6379e580eec44d2d4e0efba43bfbefd30aa414f259f8aaaa",
    ),
    "bicgstab-identity-n1100": (
        "86883cb545090a950a211fac206f837f474233326321d3031620339c7958316c",
        "74b4dda3624aed85d808e91d84b08aad88563b02fe290e0d327865c33d2bafbd",
        "ee39d6d67769ef99ac3fe751c7380d82d3c92c2a5e698376eb4986d282fdb074",
    ),
    "richardson-jacobi-n1100": (
        "8afe4efac8290dccde728a5ab84cbea2b2be92c8b216150f350d7d644a986f39",
        "74b4dda3624aed85d808e91d84b08aad88563b02fe290e0d327865c33d2bafbd",
        "32d085245747ab90d45209dac94bf2ee8e20961a528eb356554b9eb27d00549d",
    ),
    "richardson-identity-n1100": (
        "000c51292ca8f2f0e2254c42bf6cb5bbc4fe87b96beff44f30744d013b16caf7",
        "74b4dda3624aed85d808e91d84b08aad88563b02fe290e0d327865c33d2bafbd",
        "7fb513d99dbc5bcab815efda50922f22031228d2599ed1c1613f6825bcc51d19",
    ),
    "cg_sgspmv-jacobi": (
        "acaf8eb63761f47de865084e128e9dba0875bceb73c6cef795674a2734df2dcd",
        "a09e50701c5d253fc6c2eb3ff274364d7bd9681db38878289b2f6df087266e68",
        "a514d39afb5520ac0ee760eb69c3eddd7797278a709ab8f7914a8276439f68ac",
    ),
    "cg_sgspmv-identity": (
        "7d9a640f17350f736c338e593e72e519440c5c703aa456c2f74f88234a352b99",
        "a09e50701c5d253fc6c2eb3ff274364d7bd9681db38878289b2f6df087266e68",
        "35d8435897907d0fbf6867147974bbb6187032a68b08c8a14816c11c70801939",
    ),
    "bicgstab_sgreduce-jacobi": (
        "7f6c3693da7846ecef6c398fb33cbd1bda265a0cf349b38f692f3f85c0cb7856",
        "d28d926858cb54c7690e3503c8c70015e9d8ceffafe8f059dfce77aaaa21baba",
        "48b586dd84ffff3c7b425421e3ce34488991634db9cd3e01d5c53698e0dec2bb",
    ),
    "bicgstab_sgreduce-identity": (
        "6b57fea95e15e92b91adb107ebc19c7034802517a8d200b97f597a1f388b3dbf",
        "d28d926858cb54c7690e3503c8c70015e9d8ceffafe8f059dfce77aaaa21baba",
        "b2148cd3dc8f0a661f4b8eca2b9d08f36c9891705d37a3a78899435485cd8291",
    ),
}


def _cases() -> list[str]:
    grid = [
        f"{solver}-{prec}-{shape}"
        for shape in _SHAPES
        for solver in ("cg", "bicgstab", "richardson")
        for prec in ("jacobi", "identity")
    ]
    subgroup = [
        f"{kind}-{prec}"
        for kind in ("cg_sgspmv", "bicgstab_sgreduce")
        for prec in ("jacobi", "identity")
    ]
    return grid + subgroup


def _run(case: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve one case on a fresh wide queue; returns ``(x, iterations, history)``."""
    kind, prec, *shape = case.split("-")
    if shape:
        n, nb, max_iterations = _SHAPES[shape[0]]
    else:
        n, nb, max_iterations = (32, 3, 60) if kind == "cg_sgspmv" else (16, 3, 60)
    matrix = three_point_stencil(n, nb)
    b = stencil_rhs(n, nb, seed=5)
    history = np.full((nb, max_iterations + 1), np.nan)
    queue = queue_for("wide")
    common = dict(tolerance=1e-8, max_iterations=max_iterations, res_history=history)
    if shape:
        # omega relaxes Richardson only; CG and BiCGSTAB ignore it
        x, iters, _ = launch_fused(
            queue, matrix, b, solver=kind, preconditioner=prec, omega=0.5, **common
        )
    else:
        inv_diag = BatchJacobi(matrix).inv_diag if prec == "jacobi" else None
        if kind == "cg_sgspmv":
            x, iters, _ = run_batch_cg_on_device(
                queue.device, matrix, b, inv_diag=inv_diag,
                use_subgroup_spmv=True, queue=queue, **common,
            )
        else:
            x, iters, _ = run_batch_bicgstab_on_device(
                queue.device, matrix, b, inv_diag=inv_diag,
                reduce_style="sub_group", queue=queue, **common,
            )
    return np.asarray(x), np.asarray(iters, dtype=np.int64), history


def _digests(x: np.ndarray, iters: np.ndarray, history: np.ndarray) -> tuple[str, ...]:
    return tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (x, iters, history)
    )


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(_cases())


@pytest.mark.parametrize("case", _cases())
def test_wide_answers_match_pinned_digests(case):
    x, iters, history = _run(case)
    assert _digests(x, iters, history) == PINS[case]


def test_cold_and_warm_round_tables_give_the_same_bits():
    lanes._ROUNDS.clear()
    cold = _digests(*_run("cg-jacobi-n17"))
    assert lanes._ROUNDS, "the solve should have filled the round table"
    warm = _digests(*_run("cg-jacobi-n17"))
    assert cold == warm == PINS["cg-jacobi-n17"]
