"""Tiled-matrix storage substrate (Cumulon's unit of data)."""
