"""Cellular link traces: Mahimahi-compatible format plus synthetic generators.

The paper evaluates ABC on packet-delivery traces recorded on Verizon, AT&T and
T-Mobile LTE networks and replayed with Mahimahi.  Those recordings are not
redistributable, so this package provides synthetic traces with the same
structural properties the paper highlights (§2): capacities that can double
and halve within a second (a 4× swing), a large dynamic range, and occasional
outages during which no packets are delivered.  The trace file format itself
is Mahimahi's (one millisecond timestamp per delivery opportunity), so real
recordings can be dropped in when available.
"""
