"""The package's public surface stays importable and consistent."""

import repro


class TestPublicAPI:
    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_quickstart_snippet_runs(self):
        """The docstring's quick-start recipe must actually work."""
        scenario = repro.net1_scenario(load=1.0)
        mp = repro.run(
            scenario,
            repro.QuasiStaticConfig(
                tl=10, ts=2, duration=60, warmup=20, damping=0.5
            ),
        )
        delays = mp.mean_flow_delays_ms()
        assert len(delays) == 10
        assert all(d > 0 for d in delays.values())

    def test_key_types_are_the_real_ones(self):
        from repro.core.mpda import MPDARouter
        from repro.graph.topology import Topology

        assert repro.MPDARouter is MPDARouter
        assert repro.Topology is Topology
