"""End-to-end, layer-attributed checkpoint benchmark (see README.md)."""
