"""Ablation benchmark: accelerator cost model across policy architectures and dataflows.

Not a table in the paper, but a design-choice ablation:
how the per-inference processing energy and latency differ between the C3F2
and C5F4 policies (Fig. 7's compute-power ratios ultimately come from this)
and between output-stationary and weight-stationary dataflows.
"""

from repro.hardware.accelerator import AcceleratorModel
from repro.hardware.systolic import SystolicArrayConfig
from repro.nn.policies import build_policy, c3f2, c5f4
from repro.utils.tables import Table

OBSERVATION_SHAPE = (3, 36, 36)
NUM_ACTIONS = 25


def build_cost_table() -> Table:
    table = Table(
        title="Ablation: per-inference cost of C3F2 vs C5F4 across dataflows",
        columns=["policy", "dataflow", "parameters", "macs", "latency_ms_at_1v", "energy_mj_at_1v", "energy_mj_at_077vmin"],
    )
    for name, spec in (("C3F2", c3f2()), ("C5F4", c5f4())):
        network = build_policy(spec, OBSERVATION_SHAPE, NUM_ACTIONS, rng=0)
        for dataflow in ("os", "ws"):
            model = AcceleratorModel(
                network, OBSERVATION_SHAPE, array=SystolicArrayConfig(dataflow=dataflow)
            )
            nominal = model.inference_cost(model.scaling.nominal_normalized)
            low = model.inference_cost(0.77)
            table.add_row(
                policy=name,
                dataflow=dataflow,
                parameters=network.num_parameters(),
                macs=model.total_macs,
                latency_ms_at_1v=nominal.latency_ms,
                energy_mj_at_1v=nominal.energy_millijoules,
                energy_mj_at_077vmin=low.energy_millijoules,
            )
    return table


def test_bench_ablation_accelerator(benchmark, print_table):
    table = benchmark.pedantic(build_cost_table, iterations=1, rounds=3)
    print_table(table)
    rows = {(row["policy"], row["dataflow"]): row for row in table.rows}
    # C5F4 is the heavier policy in every respect (paper: 1.98x parameters, 4.1 % vs 2.8 % power).
    assert rows[("C5F4", "os")]["parameters"] > 1.5 * rows[("C3F2", "os")]["parameters"]
    assert rows[("C5F4", "os")]["energy_mj_at_1v"] > rows[("C3F2", "os")]["energy_mj_at_1v"]
    # Low-voltage operation saves energy for every configuration.
    for row in table.rows:
        assert row["energy_mj_at_077vmin"] < row["energy_mj_at_1v"]
