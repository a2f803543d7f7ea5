"""Cloud provisioning: instance catalog, cluster specs, billing."""
