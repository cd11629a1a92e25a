"""Policy-registry and policy-zoo tests.

Covers the registry surface (singletons, capability queries, unknown
names), ``SimConfig.policy`` validation and cache-key separation, the
serve daemon's policy rejection, the same-area accounting used by the
BigTLB arm, the two new policies' mechanisms (Victima's L3 victim
level, coalesced span fills), the sanitizer's span-aware freed-frame
quarantine, and the design table each stock config builds.
"""

import json
import pathlib

import pytest

from conftest import MiniSystem

from repro.analysis.sanitizer import TranslationSanitizer
from repro.core import policy as policy_mod
from repro.core.policy import get_policy, known_policies
from repro.experiments import runcache, zoo
from repro.experiments.common import build_environment, config_by_name
from repro.experiments.runcache import DiskRunCache, app_key_data
from repro.hw.cache import CacheHierarchy
from repro.hw.cacti import policy_l2_geometries, same_area_conventional_scale
from repro.hw.dram import DRAMModel
from repro.hw.params import baseline_machine
from repro.hw.types import AccessKind, PageSize
from repro.kernel.vma import SegmentKind
from repro.obs.perfwatch import repo_baseline_path
from repro.serve.protocol import BadRequest, wire_to_request
from repro.sim.config import (KNOWN_POLICIES, SimConfig, baseline_config,
                              babelfish_config, coalesced_config,
                              victima_config)
from repro.sim.mmu import MMU

MMAP = SegmentKind.MMAP

ALL_POLICIES = ("conventional", "conventional_2x", "babelfish",
                "babelfish_tlb", "babelfish_pt", "victima", "coalesced")


def make_mmu(sys, config, sanitize=False):
    machine = baseline_machine(cores=1)
    hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
    mmu = MMU(0, machine, config, hierarchy, sys.kernel)
    sanitizer = None
    if sanitize:
        sanitizer = TranslationSanitizer(sys.kernel, config)
        mmu.sanitizer = sanitizer
    return mmu, sanitizer


# -- registry -------------------------------------------------------------------


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(ALL_POLICIES) <= set(known_policies())
        assert KNOWN_POLICIES == tuple(known_policies())

    def test_policies_are_singletons(self):
        for name in ALL_POLICIES:
            assert get_policy(name) is get_policy(name)

    def test_unknown_policy_raises_naming_the_field(self):
        with pytest.raises(ValueError, match="policy"):
            get_policy("paging-is-optional")

    def test_capability_queries(self):
        assert get_policy("babelfish").uses_ccid
        assert get_policy("babelfish_tlb").uses_ccid
        assert not get_policy("conventional").uses_ccid
        assert not get_policy("babelfish_pt").uses_ccid
        assert get_policy("victima").has_victim_level
        assert not get_policy("victima").coalesces
        assert get_policy("coalesced").coalesces
        assert not get_policy("coalesced").has_victim_level

    def test_coalesced_span_is_16k(self):
        span = policy_mod.COALESCED_SPAN_4
        assert span.coalesced
        assert span.base_pages == 4
        assert span.base_mask == 3
        for size in PageSize:
            assert size.coalesced is False


# -- config validation ----------------------------------------------------------


class TestConfigPolicy:
    def test_builders_set_policy(self):
        assert baseline_config().policy == "conventional"
        assert babelfish_config().policy == "babelfish"
        assert victima_config().policy == "victima"
        assert coalesced_config().policy == "coalesced"

    def test_legacy_flags_derive_policy(self):
        assert SimConfig(name="x").policy == "conventional"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            baseline_config(policy="nope")

    @pytest.mark.parametrize("name", [n for n in zoo.ZOO_CONFIGS
                                      if n != "Baseline"])
    def test_design_builder_rejects_other_policy(self, name):
        # A design-named config runs its own design: an override naming
        # another would run it under the wrong name.
        own = config_by_name(name).policy
        other = "babelfish" if own == "conventional" else "conventional"
        with pytest.raises(ValueError, match="'policy'"):
            config_by_name(name, policy=other)
        assert config_by_name(name, policy=own) == config_by_name(name)

    def test_baseline_takes_any_policy(self):
        assert baseline_config(policy="victima").policy == "victima"
        assert baseline_config(policy="victima").name == "Baseline"

    def test_capability_properties(self):
        assert victima_config().translation_policy is get_policy("victima")
        assert babelfish_config().shared_tlb_entries
        assert not victima_config().shared_tlb_entries
        assert babelfish_config().shares_page_tables
        assert not coalesced_config().shares_page_tables


#: The paper's designs as the stock configs build them: registry name,
#: CCID-tagged TLB sharing, shared page tables, and the entry count of
#: each L2 TLB structure (probe order) in a built MMU.
_L2_STOCK = (1536, 1536, 16)
DESIGN_TABLE = {
    "Baseline": ("conventional", False, False, _L2_STOCK),
    "BigTLB": ("conventional_2x", False, False, (3072, 3072, 32)),
    "BabelFish": ("babelfish", True, True, _L2_STOCK),
    "BabelFish-TLB": ("babelfish_tlb", True, False, _L2_STOCK),
    "BabelFish-PT": ("babelfish_pt", False, True, _L2_STOCK),
    "Victima": ("victima", False, False, _L2_STOCK),
    "Coalesced": ("coalesced", False, False, (768, 768, 1536, 16)),
}


class TestDesignTable:
    @pytest.mark.parametrize("name", zoo.ZOO_CONFIGS)
    def test_stock_config_design(self, name):
        policy, shared_tlb, shared_pt, l2_entries = DESIGN_TABLE[name]
        config = config_by_name(name)
        assert config.policy == policy
        assert config.shared_tlb_entries is shared_tlb
        assert config.shares_page_tables is shared_pt
        # The configs that share TLB entries run ASLR-HW: private L1s.
        assert config.share_l1_tlb is False
        mmu = build_environment(config, cores=1).sim.mmus[0]
        assert tuple(tlb.params.entries
                     for tlb in mmu.l2.tlbs.values()) == l2_entries


# -- cache-key separation -------------------------------------------------------


class TestCacheKeys:
    def test_policy_only_diff_never_aliases(self, tmp_path):
        # Two configs identical in every legacy field but for ``policy``
        # must produce distinct keys in BOTH cache layers — aliasing
        # would serve a conventional run as a Victima result.
        a = baseline_config()
        b = baseline_config(policy="victima")
        assert runcache.config_field_dict(a) != runcache.config_field_dict(b)
        # The in-memory memo keys on the canonical JSON of the key data.
        assert (runcache.canonical_json(app_key_data("mongodb", a, 2, 0.05,
                                                     None))
                != runcache.canonical_json(app_key_data("mongodb", b, 2,
                                                        0.05, None)))
        cache = DiskRunCache(tmp_path / "rc")
        key_a = cache.key_hash(app_key_data("mongodb", a, 2, 0.05, None))
        key_b = cache.key_hash(app_key_data("mongodb", b, 2, 0.05, None))
        assert key_a != key_b

    def test_field_dict_round_trips_policy(self):
        fields = runcache.config_field_dict(coalesced_config())
        rebuilt = runcache.config_from_fields(fields)
        assert rebuilt.policy == "coalesced"
        assert rebuilt == coalesced_config()


# -- serve wire validation ------------------------------------------------------


class TestServePolicy:
    def test_unknown_policy_is_typed_bad_request(self):
        with pytest.raises(BadRequest, match="'policy'") as exc:
            wire_to_request({"app": "mongodb",
                             "overrides": {"policy": "nope"}})
        assert "nope" in str(exc.value)

    def test_known_policy_override_accepted(self):
        request = wire_to_request({"app": "mongodb",
                                   "overrides": {"policy": "victima"}})
        assert ("policy", "victima") in request.overrides

    def test_other_design_policy_is_bad_request(self):
        with pytest.raises(BadRequest, match="'policy'") as exc:
            wire_to_request({"app": "mongodb", "config_name": "BabelFish",
                             "overrides": {"policy": "conventional"}})
        assert "BabelFish" in str(exc.value)
        request = wire_to_request({"app": "mongodb",
                                   "config_name": "BabelFish",
                                   "overrides": {"policy": "babelfish"}})
        assert ("policy", "babelfish") in request.overrides

    def test_removed_flag_override_is_bad_request(self):
        # The registry entry is the only statement of what a design
        # shares: the old flag fields are no config field at all.
        for field in ("babelfish_tlb", "babelfish_pt", "l2_tlb_scale"):
            with pytest.raises(BadRequest, match=field):
                wire_to_request({"app": "mongodb", "config_name": "BabelFish",
                                 "overrides": {field: True}})


# -- same-area accounting -------------------------------------------------------


class TestSameArea:
    def test_stock_double_is_exact(self):
        machine = baseline_machine()
        scaled = machine.scale_l2_tlb(2.0)
        assert scaled.mmu.l2_4k.entries == 3072
        assert scaled.mmu.l2_2m.entries == 3072
        assert scaled.mmu.l2_1g.entries == 32

    def test_honest_factor_yields_buildable_sets(self):
        # The drift this pins: BabelFish's honest area factor is ~2.07,
        # and ``int(1536 * 2.07) = 3179`` entries is 264.9 sets — not a
        # power of two, so SetAssocTLB refused to build. The snap keeps
        # the factor honest while producing a constructible geometry.
        factor = same_area_conventional_scale("babelfish")
        assert 1.9 < factor < 2.3
        machine = baseline_machine()
        scaled = machine.scale_l2_tlb(factor)
        for params in (scaled.mmu.l2_4k, scaled.mmu.l2_2m, scaled.mmu.l2_1g):
            sets = params.entries // params.ways
            assert sets >= 1 and sets & (sets - 1) == 0

    def test_policy_geometry_areas(self):
        # Victima spends L2-*cache* SRAM, not TLB-array SRAM: its TLB
        # area is exactly baseline. Coalesced rearranges the baseline
        # budget (half span-tagged, half plain), so its factor stays
        # near 1; BabelFish pays for CCID + O-PC bits.
        assert same_area_conventional_scale("victima") == 1.0
        assert 0.8 < same_area_conventional_scale("coalesced") <= 1.1
        with pytest.raises(ValueError):
            policy_l2_geometries("conventional_2x")


# -- Victima mechanism ----------------------------------------------------------


class TestVictima:
    def test_l3_victim_level_exists_only_for_victima(self, mini_baseline):
        mmu, _ = make_mmu(mini_baseline, baseline_config())
        assert mmu.l3 is None
        mmu, _ = make_mmu(mini_baseline, victima_config())
        assert mmu.l3 is not None
        assert ("L3", mmu.l3) in mmu.tlb_levels()

    def test_l3_hit_saves_the_walk(self):
        sys = MiniSystem(babelfish=False)
        sys.touch(sys.zygote, MMAP, 0)
        # fastpath=False keeps the L0 memo out of the way so the flushes
        # below actually route the next access down to L3.
        mmu, _ = make_mmu(sys, victima_config(fastpath=False))
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        walks_after_fill = mmu.stats.walks

        def evict_above_l3():
            for name, tlb in mmu.tlb_levels():
                if name != "L3":
                    tlb.flush()

        evict_above_l3()
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        assert mmu.stats.l3_hits_d == 1
        assert mmu.stats.walks == walks_after_fill
        # The L3 hit refilled L2: evicting only L1 now hits L2, not L3.
        mmu.l1d.flush()
        mmu.l1i.flush()
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        assert mmu.stats.l3_hits_d == 1

    def test_l3_and_l2_never_share_entry_objects(self):
        # Structure-level aliasing is the tier-identity killer: the
        # reference SetAssocTLB honors ``entry.valid`` where the fast
        # structures drop entries eagerly, so one object living in two
        # structures desynchronizes the tiers.
        sys = MiniSystem(babelfish=False)
        sys.touch(sys.zygote, MMAP, 0)
        mmu, _ = make_mmu(sys, victima_config())
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        l2_entries = {id(e) for e in mmu.l2.entries()}
        l3_entries = {id(e) for e in mmu.l3.entries()}
        assert l3_entries
        assert not l2_entries & l3_entries


# -- coalesced mechanism --------------------------------------------------------


def _leaf(proc, vpn):
    path = proc.tables.walk(vpn)
    _level, table, _index, pte = path[-1]
    return pte, table


class TestCoalesced:
    def _contiguous_block(self, sys, proc):
        """A span-aligned vpn whose 4 members are present with
        contiguous frames (file pages populate in order, so the mapped
        data file provides one; skip if the allocator interleaved)."""
        start = sys.vpn(proc, MMAP, 0)
        base = (start + 4) & ~3  # span-aligned, inside the mapping
        ptes = []
        for off in range(4):
            sys.touch(proc, MMAP, (base + off) - start)
            pte, table = _leaf(proc, base + off)
            if pte is None or not pte.present:
                pytest.skip("block member not present")
            ptes.append((pte, table))
        if any(ptes[i][0].ppn != ptes[0][0].ppn + i for i in range(4)):
            pytest.skip("file frames not contiguous in this layout")
        return base, ptes

    def test_fill_coalesces_contiguous_block(self):
        sys = MiniSystem(babelfish=False)
        policy = get_policy("coalesced")
        base, ptes = self._contiguous_block(sys, sys.zygote)
        pte, table = ptes[1]
        entry, _replace = policy.fill_l2(sys.kernel, sys.zygote, base + 1,
                                         pte, table)
        assert entry.page_size.coalesced
        # Coalesced entries tag at span granularity: the 4K base vpn
        # shifted down by log2(degree).
        assert entry.vpn == base >> entry.page_size.shift4k
        assert entry.ppn == ptes[0][0].ppn
        # The resolved slice for each member is its own frame.
        for off in range(4):
            assert entry.ppn + ((base + off) & 3) == ptes[off][0].ppn

    def test_fill_falls_back_to_4k_on_broken_contiguity(self):
        sys = MiniSystem(babelfish=False)
        policy = get_policy("coalesced")
        base, ptes = self._contiguous_block(sys, sys.zygote)
        # Break the block: remap member 3's frame somewhere else.
        pte3, _table = ptes[3]
        pte3.ppn += 17
        pte, table = ptes[0]
        entry, _replace = policy.fill_l2(sys.kernel, sys.zygote, base,
                                         pte, table)
        assert entry.page_size is PageSize.SIZE_4K
        assert entry.ppn == pte.ppn
        pte3.ppn -= 17

    def test_end_to_end_translation_resolves_slices(self):
        sys = MiniSystem(babelfish=False)
        base, ptes = self._contiguous_block(sys, sys.zygote)
        mmu, sanitizer = make_mmu(sys, coalesced_config(sanitize=True),
                                  sanitize=True)
        start = sys.vpn(sys.zygote, MMAP, 0)
        for off in range(4):
            paddr_page = mmu.translate(sys.zygote, MMAP,
                                       (base + off) - start,
                                       AccessKind.LOAD).ppn4k
            assert paddr_page == ptes[off][0].ppn
        assert sanitizer.violations == []


# -- sanitizer: span-aware freed-frame quarantine -------------------------------


class TestCoalescedQuarantine:
    @pytest.mark.parametrize("member", [1, 2, 3])
    def test_freed_member_frame_is_caught_on_its_slice(self, member):
        sys = MiniSystem(babelfish=False)
        mmu, sanitizer = make_mmu(sys, coalesced_config(sanitize=True),
                                  sanitize=True)
        start = sys.vpn(sys.zygote, MMAP, 0)
        base = (start + 4) & ~3
        for off in range(4):
            sys.touch(sys.zygote, MMAP, (base + off) - start)
        mmu.translate(sys.zygote, MMAP, base - start, AccessKind.LOAD)
        coalesced = [e for e in mmu.l2.entries()
                     if e.page_size.coalesced
                     and e.vpn == base >> e.page_size.shift4k]
        if not coalesced:
            pytest.skip("block did not coalesce in this layout")
        entry = coalesced[0]
        victim_ppn = entry.ppn + member
        # Simulate teardown freeing the member frame while the span
        # entry lives on: drop the refcount to zero and quarantine.
        while sys.kernel.allocator.refcount(victim_ppn) > 0:
            sys.kernel.allocator.decref(victim_ppn)
        sanitizer.quarantine_frames([victim_ppn])
        before = len(sanitizer.violations)
        mmu.translate(sys.zygote, MMAP, (base + member) - start,
                      AccessKind.LOAD)
        kinds = [v.kind for v in sanitizer.violations[before:]]
        assert "freed-frame" in kinds
        # Hits on the *other* slices resolve different frames and stay
        # clean — the quarantine is per-resolved-slice, not per-entry.
        clean_mark = len(sanitizer.violations)
        mmu.translate(sys.zygote, MMAP, (base + 0) - start, AccessKind.LOAD)
        assert len([v for v in sanitizer.violations[clean_mark:]
                    if v.kind == "freed-frame"]) == 0


# -- churn storm under sanitizer ------------------------------------------------


class TestChurnNewPolicies:
    @pytest.mark.parametrize("name", ["Victima", "Coalesced"])
    def test_churn_storm_sanitized_clean(self, name):
        from repro.experiments.churn import run_churn
        result = run_churn(cycles=30, config_name=name, sanitize=True)
        assert result.violations == []
        assert result.clean

    @pytest.mark.parametrize("name", ["Victima", "Coalesced"])
    def test_churn_fast_matches_reference(self, name, linear_structures):
        from repro.experiments.churn import run_churn
        fast = run_churn(cycles=20, config_name=name, sanitize=False,
                         fastpath=True)
        with linear_structures():
            ref = run_churn(cycles=20, config_name=name, sanitize=False,
                            fastpath=False)
        assert fast.summary() == ref.summary()


# -- zoo experiment plumbing ----------------------------------------------------


class TestZoo:
    def test_matrix_covers_grid(self):
        requests = zoo.zoo_matrix(("mongodb",), 2, 0.05)
        assert len(requests) == len(zoo.ZOO_CONFIGS) * len(zoo.TIER_OVERRIDES)
        names = {r.config_name for r in requests}
        assert set(zoo.NEW_POLICIES) <= names

    def test_gain_math(self):
        grid = {"a": {"Baseline": {"mpki": 4.0}, "P": {"mpki": 2.0}},
                "b": {"Baseline": {"mpki": 9.0}, "P": {"mpki": 4.5}}}
        assert zoo._gain(grid, ("a", "b"), "P", "mpki") == 2.0

    def test_gain_guards_zero_denominator(self):
        grid = {"a": {"Baseline": {"walks": 10}, "P": {"walks": 0}}}
        assert zoo._gain(grid, ("a",), "P", "walks") > 1.0

    def test_run_zoo_merges_existing_tiers(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_zoo.json"
        out.write_text(json.dumps(
            {"bench": "zoo", "tiers": {"full": {"identical": True,
                                                "grid": {}}}}))
        stub = {"identical": True, "divergent": [], "grid": {},
                "apps": [], "configs": []}
        monkeypatch.setattr(zoo, "measure_tier",
                            lambda *a, **k: dict(stub))
        payload = zoo.run_zoo(smoke=True, out=out, progress=None)
        assert set(payload["tiers"]) == {"smoke", "full"}
        on_disk = json.loads(out.read_text())
        assert on_disk["tiers"]["full"]["identical"] is True

    def test_bench_zoo_checked_in_and_identical(self):
        path = pathlib.Path(repo_baseline_path("BENCH_zoo.json"))
        assert path.exists(), "run `python -m repro.experiments zoo --smoke`"
        payload = json.loads(path.read_text())
        smoke = payload["tiers"]["smoke"]
        assert smoke["identical"] is True
        for config in zoo.NEW_POLICIES:
            for app in smoke["apps"]:
                cell = smoke["grid"][app][config]
                assert cell["identical"] is True
                assert cell["mpki"] > 0
