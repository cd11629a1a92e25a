"""Tests for the container engine and FaaS platform."""

from repro.containers.image import ContainerImage, align_pages
from repro.core.aslr import ASLRMode
from repro.kernel.vma import SegmentKind
from repro.sim.config import babelfish_config

from repro.experiments.common import build_environment, config_by_name

IMAGE = ContainerImage(name="testapp", binary_pages=16, binary_data_pages=4,
                       lib_pages=64, lib_data_pages=8, infra_pages=32,
                       heap_pages=256, bringup_touch_pages=60)


def env_for(config_name="Baseline", cores=1):
    return build_environment(config_by_name(config_name), cores=cores)


class TestImage:
    def test_align_pages(self):
        assert align_pages(1) == 512
        assert align_pages(512) == 512
        assert align_pages(513) == 1024

    def test_materialize_creates_files(self):
        env = env_for()
        files = IMAGE.materialize(env.kernel)
        assert set(files) == {"binary", "binary_data", "libs", "lib_data",
                              "infra"}
        assert files["libs"].npages == 64
        # Pre-created image: page cache warm.
        libs = files["libs"].fid
        assert sum(fid == libs for fid, _index
                   in env.kernel.page_cache._pages) == 64


class TestEngine:
    def test_zygote_created_once(self):
        env = env_for()
        a = env.engine.zygote_for(IMAGE)
        b = env.engine.zygote_for(IMAGE)
        assert a is b
        assert a.group.ccid > 0

    def test_zygote_mappings(self):
        env = env_for()
        state = env.engine.zygote_for(IMAGE)
        mm = state.proc.mm
        names = {vma.name for vma in mm}
        assert {"binary", "libs", "infra", "heap", "stack",
                "bin-data", "lib-data"} <= names

    def test_launch_forks_zygote(self):
        env = env_for()
        container, cycles = env.engine.launch(IMAGE)
        assert container.proc.parent is env.engine.zygote_for(IMAGE).proc
        assert container.proc in container.group.members
        assert cycles > 0

    def test_containers_share_ccid(self):
        env = env_for()
        a, _ = env.engine.launch(IMAGE)
        b, _ = env.engine.launch(IMAGE)
        assert a.proc.ccid == b.proc.ccid

    def test_distinct_users_distinct_groups(self):
        env = env_for()
        a, _ = env.engine.launch(IMAGE, user="alice")
        b, _ = env.engine.launch(IMAGE, user="bob")
        assert a.proc.ccid != b.proc.ccid

    def test_bringup_records_within_vmas(self):
        env = env_for()
        container, _ = env.engine.launch(IMAGE)
        for _kind, segment, page, line, gap, _rid in \
                env.engine.bringup_records(container):
            vpn = container.proc.vpn_group(segment, page)
            assert container.proc.mm.find(vpn) is not None, (segment, page)
            assert 0 <= line < 64
            assert gap >= 0

    def test_launch_timed_components(self):
        env = env_for()
        container, total = env.engine.launch_timed(IMAGE, env.sim)
        assert total >= env.engine.engine_overhead_cycles
        assert container.bringup_trace_cycles > 0

    def test_second_launch_cheaper_under_babelfish(self):
        base_env = env_for("Baseline")
        bf_env = env_for("BabelFish")
        results = {}
        for name, env in (("base", base_env), ("bf", bf_env)):
            env.engine.launch_timed(IMAGE, env.sim)  # leader
            _c, cycles = env.engine.launch_timed(IMAGE, env.sim)
            results[name] = cycles
        assert results["bf"] < results["base"]

    def test_stop_container(self):
        env = env_for()
        container, _ = env.engine.launch(IMAGE)
        env.engine.stop(container)
        assert not container.proc.alive
        assert container.proc not in container.group.members

    def test_aslr_hw_gives_unique_layouts(self):
        env = build_environment(babelfish_config(aslr_mode=ASLRMode.HW),
                                cores=1)
        a, _ = env.engine.launch(IMAGE)
        b, _ = env.engine.launch(IMAGE)
        assert a.proc.layout_proc != b.proc.layout_proc
        assert a.proc.layout_group == b.proc.layout_group

    def test_inherited_layouts_identical(self):
        env = env_for("Baseline")
        a, _ = env.engine.launch(IMAGE)
        b, _ = env.engine.launch(IMAGE)
        assert a.proc.layout_proc == b.proc.layout_proc


class TestFaaS:
    def platform(self, config_name="Baseline"):
        from repro.containers.faas import FaaSPlatform
        from repro.workloads.profiles import FAAS_BASE_IMAGE
        env = env_for(config_name)
        return env, FaaSPlatform(env.engine, FAAS_BASE_IMAGE)

    def test_start_function_maps_everything(self):
        env, platform = self.platform()
        fn = platform.start_function("hash", env.sim, input_pages=32,
                                     scratch_pages=8)
        proc = fn.container.proc
        names = {vma.name for vma in proc.mm}
        assert {"fn-code", "fn-input", "fn-scratch"} <= names
        assert fn.bringup_cycles > 0

    def test_functions_share_input_file(self):
        env, platform = self.platform()
        a = platform.start_function("hash", env.sim, input_pages=32)
        b = platform.start_function("parse", env.sim, input_pages=32)
        fa = a.container.proc.mm.find(
            a.container.proc.vpn_group(SegmentKind.MMAP, 0)).file
        fb = b.container.proc.mm.find(
            b.container.proc.vpn_group(SegmentKind.MMAP, 0)).file
        assert fa is fb

    def test_functions_have_distinct_code_slots(self):
        env, platform = self.platform()
        a = platform.start_function("hash", env.sim, input_pages=32)
        b = platform.start_function("parse", env.sim, input_pages=32)
        assert a.container.code_offset != b.container.code_offset

    def test_same_function_same_slot(self):
        env, platform = self.platform()
        a = platform.start_function("hash", env.sim, input_pages=32)
        b = platform.start_function("hash", env.sim, input_pages=32)
        assert a.container.code_offset == b.container.code_offset

    def test_function_code_isolated_across_functions(self):
        """Two different functions must never resolve to each other's
        code frames, even under BabelFish."""
        env, platform = self.platform("BabelFish")
        a = platform.start_function("hash", env.sim, input_pages=32)
        b = platform.start_function("parse", env.sim, input_pages=32)
        pa = env.kernel.touch(a.container.proc, a.container.proc.vpn_group(
            SegmentKind.LIBS, a.container.code_offset))
        pb = env.kernel.touch(b.container.proc, b.container.proc.vpn_group(
            SegmentKind.LIBS, b.container.code_offset))
        assert pa.ppn != pb.ppn
