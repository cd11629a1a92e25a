"""The artifact registry: one entry per tracked benchmark output, each
paper value naming something the entry measures, and the entries whose
output does not depend on scale rendering their tracked files exactly."""

import pathlib

import pytest

from repro.experiments.artifacts import ARTIFACTS

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "out"

#: Entries whose rows ignore cores and scale (fixed scenarios, the CACTI
#: model, and the resource analysis's fixed live run).
SCALE_FREE = ("table3_cacti", "resources", "ablation_bitmask_width",
              "ablation_share_huge")


def test_one_entry_per_tracked_output():
    tracked = {path.stem for path in OUT_DIR.glob("*.txt")}
    assert set(ARTIFACTS) == tracked - {"obs_overhead"}


@pytest.mark.parametrize("name", SCALE_FREE)
def test_scale_free_entry_renders_its_tracked_output(name):
    artifact = ARTIFACTS[name]
    rows = artifact.run(8, 1.0, 1)
    assert artifact.text(rows) + "\n" == (OUT_DIR / (name + ".txt")).read_text()
    assert artifact.failed_checks(rows) == []


@pytest.mark.parametrize(
    "name", [name for name, artifact in ARTIFACTS.items() if artifact.paper])
def test_paper_keys_name_measured_values(name):
    """Every paper value sits next to a measured one: a summary key, or
    (larger TLB) a row's ``metric``. Measured at the smallest size."""
    artifact = ARTIFACTS[name]
    rows = artifact.run(1, 0.02, 1)
    measured = set(artifact.summary(rows))
    if name == "larger_tlb":
        measured |= {row["metric"] for row in rows}
    assert set(artifact.paper) <= measured


class TestPaperValues:
    def test_table2_complete(self):
        for app in ("mongodb", "arangodb", "httpd", "graphchi", "fio"):
            assert app in ARTIFACTS["table2_tlb_fraction"].paper
