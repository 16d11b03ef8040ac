"""Tests for the roofline model."""

import pytest

from repro.nn import modified_alexnet_spec
from repro.perf import RooflineModel


@pytest.fixture(scope="module")
def spec():
    return modified_alexnet_spec()


class TestRoofline:
    def test_ridge_point(self):
        model = RooflineModel()
        # 1024 GMAC/s peak over 16 GB/s streaming -> ridge at 64 MAC/B.
        assert model.peak_gmacs == pytest.approx(1024.0)
        assert model.stream_gbytes == pytest.approx(16.0)
        assert model.ridge_intensity == pytest.approx(64.0)

    def test_fc_layers_bandwidth_bound(self, spec):
        model = RooflineModel()
        for layer in spec.fc_layers:
            point = model.analyze_layer(layer)
            assert not point.compute_bound, layer.name
            # FC intensity ~0.5 MAC/byte -> attainable ~8 GMAC/s,
            # exactly the Fig. 12a plateau.
            if layer.macs > 1e6:
                assert 0.4 < point.operational_intensity < 0.6
                assert 6.0 < point.attainable_gmacs < 10.0

    def test_conv_layers_compute_bound(self, spec):
        model = RooflineModel()
        for layer in spec.conv_layers:
            point = model.analyze_layer(layer)
            assert point.compute_bound, layer.name
            assert point.operational_intensity > model.ridge_intensity

    def test_analyze_network_covers_all_layers(self, spec):
        points = RooflineModel().analyze_network(spec)
        assert len(points) == 10

    def test_attainable_bounded_by_peak(self, spec):
        model = RooflineModel()
        for point in model.analyze_network(spec):
            assert point.attainable_gmacs <= model.peak_gmacs + 1e-9

    def test_unknown_layer_type(self):
        with pytest.raises(TypeError):
            RooflineModel().analyze_layer(object())

    def test_roofline_explains_fig12_split(self, spec):
        """The roofline's bound/unbound split must coincide with the
        cost model's two regimes (streaming FC vs compute-bound conv)."""
        model = RooflineModel()
        for point in model.analyze_network(spec):
            if point.layer.startswith("FC"):
                assert not point.compute_bound
            else:
                assert point.compute_bound
