"""Paper-shape benchmark of dpforecast: workloads, checks and tracing."""
