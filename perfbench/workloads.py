"""Seeded inputs and CLI commands of the two benchmark workloads.

Every workload browses one site of the paper's Table 5 shape (300 pages,
average out-degree 15), generated with ``TOPOLOGY_SEED``.  The traffic is
derived from the benchmark's seed, so two generations with one seed are
byte-identical.  The site stays fixed because Phase 2's cost depends
strongly on the link structure: a new site per seed would spread the
figures far more than a new population does.  The program under test
only ever sees the files written here: a topology JSON, CLF access logs
and an empty log.
"""

from __future__ import annotations

import os

PAGES = 300
OUT_DEGREE = 15.0
TOPOLOGY_SEED = 0
#: seed of the stream's crawler and NAT pools, fixed like the site: with
#: one crawler and ten pools, the sessions they yield moved the stream's
#: session count between 0.91 and 1.10 per record from seed to seed, and
#: its time and peak memory with it (README.md).
HOSTILE_SEED = 0

#: sizes keep one command at 5-8 s, so a 45 s run repeats it five or more
#: times and reports a median rather than a single sample (README.md).
BATCH_AGENTS = 4_000
STREAM_AGENTS = 1_500
STREAM_CRAWLERS = 1
STREAM_CRAWLER_REQUESTS = 400
STREAM_NAT_POOLS = 10
#: humans behind one NAT address; larger pools blow Phase 2 up (README.md).
STREAM_NAT_HUMANS = 12
STREAM_SHARDS = 2
STREAM_FLUSH_EVERY = 600
STREAM_MEMORY_BUDGET = "1g"
STREAM_PER_USER_CAP = 256


#: the workloads; BENCHMARK.json and README.md say why each exists.
WORKLOADS = ("batch-reconstruct", "stream-sharded")


def scaled(count: int, scale: float) -> int:
    """``count`` shrunk by ``scale`` (never below one)."""
    return max(1, round(count * scale))


def repro_argv(workload: str, files: dict, output: str, *,
               empty: bool = False) -> list[str]:
    """The ``repro`` arguments one timed command runs.

    ``empty`` selects the workload's empty log, used for ``setup_s``.
    """
    log = files["empty_log"] if empty else files[workload]
    if workload == "batch-reconstruct":
        return ["reconstruct", "--log", log, "--heuristic", "heur4",
                "--topology", files["topology"], "--output", output]
    if workload == "stream-sharded":
        return ["stream", "--log", log, "--topology", files["topology"],
                "--output", output,
                "--shards", str(STREAM_SHARDS),
                "--flush-every", str(STREAM_FLUSH_EVERY),
                "--memory-budget", STREAM_MEMORY_BUDGET,
                "--per-user-cap", str(STREAM_PER_USER_CAP)]
    raise ValueError(f"unknown workload {workload!r}")


def input_files(directory: str) -> dict:
    """Paths of the generated inputs inside ``directory``."""
    return {"topology": os.path.join(directory, "topology.json"),
            "batch-reconstruct": os.path.join(directory, "batch.log"),
            "stream-sharded": os.path.join(directory, "stream.log"),
            "empty_log": os.path.join(directory, "empty.log")}


def stream_requests(graph, seed: int, scale: float = 1.0) -> list:
    """The stream mix: a human population plus crawlers and NAT pools,
    merged in time order."""
    from repro.simulator.adversarial import adversarial_workload
    from repro.simulator.config import SimulationConfig
    from repro.simulator.population import simulate_population

    population = simulate_population(graph, SimulationConfig(
        n_agents=scaled(STREAM_AGENTS, scale), seed=seed))
    hostile = adversarial_workload(
        graph, crawlers=STREAM_CRAWLERS,
        crawler_requests=scaled(STREAM_CRAWLER_REQUESTS, scale),
        nat_pools=scaled(STREAM_NAT_POOLS, scale),
        humans_per_pool=STREAM_NAT_HUMANS, normal_agents=0,
        seed=HOSTILE_SEED)
    return sorted(population.log_requests + hostile)


def generate(workload: str, seed: int, directory: str,
             scale: float = 1.0) -> int:
    """Write ``workload``'s inputs for ``seed`` into ``directory``.

    Returns the record count of the workload's log.
    """
    from repro.logs import IdentityAddressMap, requests_to_records
    from repro.logs import write_clf_file
    from repro.simulator.config import SimulationConfig
    from repro.simulator.population import simulate_population
    from repro.topology.generators import random_site
    from repro.topology.io import save_graph

    os.makedirs(directory, exist_ok=True)
    files = input_files(directory)
    graph = random_site(PAGES, OUT_DEGREE, seed=TOPOLOGY_SEED)
    save_graph(graph, files["topology"])
    open(files["empty_log"], "w", encoding="utf-8").close()
    if workload == "batch-reconstruct":
        requests = simulate_population(graph, SimulationConfig(
            n_agents=scaled(BATCH_AGENTS, scale), seed=seed)).log_requests
    else:
        requests = stream_requests(graph, seed, scale)
    return write_clf_file(
        files[workload], requests_to_records(requests, IdentityAddressMap()))
