"""Golden plans and assemblies for every figure at both scales.

Each (figure, scale) plan is pinned by its repetition count, its
pre-dedup demand, its number of unique specs and a sha256 over its
ordered spec tokens.  Its assembly is pinned by a sha256 over the
``repr`` of every series (int and float xs differ there) and the
rendered markdown (titles, check descriptions, details and outcomes),
fed synthetic results derived from a hash of each spec token.  Nothing
is simulated, so all 30 plans assemble in milliseconds; this is the
only check that covers ``--scale full``.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import pytest

from repro.harness import render_markdown
from repro.harness.experiment import PointResult, PointSpec, spec_token
from repro.harness.figures import FIGURES, plan_figure
from repro.units import GiB

SCALES = ("quick", "full")

#: (figure, scale) -> (reps, requested, unique specs, tokens sha256[:16],
#: assembly sha256[:16])
GOLDEN = {
    ("CIOR", "quick"): (2, 4, 4, "8d60f6a1c2cdb7e2", "fede475ad9a57a5e"),
    ("CIOR", "full"): (3, 7, 7, "2388675d3a8365c6", "01881b34d5b64d1a"),
    ("F1", "quick"): (2, 12, 12, "cafe5b84d9a6d8f2", "a1d206a22b8aa229"),
    ("F1", "full"): (3, 48, 48, "45fb422c0cc5e87e", "6e2ff9b7d7de4909"),
    ("F2", "quick"): (2, 6, 6, "b9e6a8c191e56003", "3839ec7c36fa390d"),
    ("F2", "full"): (3, 12, 12, "d5d46077a51ec517", "23350bee8ffe755d"),
    ("F3", "quick"): (2, 15, 15, "805187ad77496cbb", "ca8c0b1fefaa4a83"),
    ("F3", "full"): (3, 30, 30, "36fca3776aa61316", "5a1d9c6bdd9d3ed8"),
    ("F4", "quick"): (2, 6, 6, "9298cf4757772a8c", "0f62c13c3a2b0c75"),
    ("F4", "full"): (3, 12, 12, "7ab421bbfe6f1b9a", "1cdb308ec176d102"),
    ("F5", "quick"): (2, 24, 24, "87dfe66f03ba8881", "24c03a2a25b26895"),
    ("F5", "full"): (3, 56, 56, "da1f050fca779706", "ccf19a82ca65a3f7"),
    ("F6", "quick"): (2, 12, 12, "3023f73d8c6afb40", "ca6e14f57531d3d4"),
    ("F6", "full"): (3, 24, 24, "4720fd09784b6489", "b2f3207b2fc72116"),
    ("F7", "quick"): (2, 4, 4, "ef80d234c4e2a1cc", "d5fa8f9107a3d970"),
    ("F7", "full"): (3, 7, 7, "7d2743e73280de0e", "19020a5faee965dc"),
    ("F8", "quick"): (2, 6, 5, "4b55858df77e08c0", "0e3fb0c31dec3363"),
    ("F8", "full"): (3, 9, 8, "8f5ffe64874a07f2", "ca38d4fa6d778ccd"),
    ("F9", "quick"): (2, 9, 9, "cd0a0e978fee8a4b", "12205287625ce16d"),
    ("F9", "full"): (3, 18, 18, "a2667a19889637b8", "dbeacda91ea11afc"),
    ("FD", "quick"): (2, 3, 3, "0ef381709a96b00f", "131736dbb0a44dee"),
    ("FD", "full"): (3, 3, 3, "ade16d7b06854209", "a93f218769e8ac4e"),
    ("HW", "quick"): (1, 2, 2, "ff172c8b7e7f7f35", "3a854654380209dc"),
    ("HW", "full"): (1, 2, 2, "ff172c8b7e7f7f35", "3a854654380209dc"),
    ("LIOR", "quick"): (2, 3, 3, "4135151b0c2e9e58", "06f6aab10a4246cf"),
    ("LIOR", "full"): (3, 6, 6, "a0582c12779d8baf", "629008be60b1713f"),
    ("RP2", "quick"): (2, 2, 2, "8e9b037f833f767f", "23d6678e066c654e"),
    ("RP2", "full"): (3, 2, 2, "6418a6138c27a79c", "9cda3f077801b7d5"),
    ("SC", "quick"): (2, 4, 4, "a4c69fac59b9fe3e", "5b6b0ecf29e54552"),
    ("SC", "full"): (3, 5, 5, "24b1e13f1a190bd2", "2d2ccec33bb1b380"),
}


def _unit(token: str, salt: str) -> float:
    """A deterministic uniform draw in [0, 1) from a spec token."""
    digest = hashlib.sha256(f"{token}|{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _pair(token: str, salt: str, unit: float) -> Tuple[float, float]:
    mean = unit * (1.0 + 99.0 * _unit(token, salt))
    return mean, mean * 0.05 * _unit(token, salt + ":std")


def _synthetic(spec: PointSpec, reps: int) -> PointResult:
    token = spec_token(spec)
    windows = tuple(
        (
            0.5 * (i + 1),
            GiB * (1.0 + 9.0 * _unit(token, f"win{i}")),
            GiB * 0.1 * _unit(token, f"win{i}:std"),
        )
        for i in range(6)
    )
    lost = float(int(3 * _unit(token, "lost")))
    return PointResult(
        spec=spec,
        write_bw=_pair(token, "write_bw", GiB),
        read_bw=_pair(token, "read_bw", GiB),
        write_iops=_pair(token, "write_iops", 1000.0),
        read_iops=_pair(token, "read_iops", 1000.0),
        reps=reps,
        write_windows=windows,
        read_windows=windows,
        lost_ops=(lost, 0.1 * lost),
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _golden(fig_id: str, scale: str) -> Tuple[tuple, str]:
    plan = plan_figure(fig_id, scale)
    tokens = "\n".join(spec_token(spec) for spec in plan.specs)
    figure = plan.assemble({spec: _synthetic(spec, plan.reps) for spec in plan.specs})
    rendered = "\n".join(
        f"{panel}: {series!r}"
        for panel, series_list in figure.panels.items()
        for series in series_list
    )
    rendered += "\n" + render_markdown(figure)
    pins = (plan.reps, plan.requested, len(plan.specs), _sha(tokens), _sha(rendered))
    return pins, rendered


def test_golden_covers_every_figure_and_scale():
    assert set(GOLDEN) == {(fig_id, scale) for fig_id in FIGURES for scale in SCALES}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_figure_plan_and_assembly_unchanged(fig_id, scale):
    pins, rendered = _golden(fig_id, scale)
    assert pins == GOLDEN[(fig_id, scale)], f"{fig_id}/{scale} rendered:\n{rendered}"
