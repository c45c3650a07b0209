"""The repository benchmark: four workloads, both clocks, a traced run."""
