"""Simulated HDFS: namenode, datanodes, placement, and the tile store."""
