"""E2 — Sevcik's preemptive index is optimal when preemption is allowed
[35]; it strictly beats nonpreemptive WSEPT for DHR (high-variance) jobs
and coincides with it for memoryless jobs.

Driven by the experiment registry: the workload lives in
``repro.experiments.packs.flowshop.simulate_e2`` (random DHR instances per
replication) and this benchmark replicates it through the shared runner.
"""

from repro.experiments import get_scenario, run_scenario

SC = get_scenario("E2")


def test_e02_sevcik_preemptive_index(benchmark, report):
    res = run_scenario(SC, replications=8, seed=2, workers=1)
    m = res.means()

    benchmark(lambda: SC.run_once(seed=0, overrides={"n_quanta": 8}))

    report(
        "E2: preemptive single machine — Sevcik/Gittins index vs WSEPT "
        "(8 replications, registry scenario)",
        [
            ("DHR: exact optimum", m["opt_dhr"], 1.0),
            ("DHR: Gittins gap", m["gittins_dhr_gap"], 0.0),
            ("DHR: WSEPT premium", m["wsept_dhr_premium"], 0.0),
            ("memoryless: optimum", m["opt_mem"], 1.0),
            ("memoryless: Gittins gap", m["gittins_mem_gap"], 0.0),
            ("memoryless: WSEPT premium", m["wsept_mem_premium"], 0.0),
        ],
        header=("case / policy", "value", "reference"),
    )

    assert res.all_checks_pass, res.checks
    assert m["gittins_dhr_gap"] < 1e-8  # index policy exactly optimal
    assert m["wsept_dhr_premium"] > 0.01  # preemption strictly helps under DHR
    assert abs(m["wsept_mem_premium"]) < 0.05  # and not under memorylessness
