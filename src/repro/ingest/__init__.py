"""Data ingestion: text parsing and load-job planning."""
