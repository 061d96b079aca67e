"""Exact toolkit for graphs embedded in surfaces: quadrangulation parity,
local colorings, universal graphs, partially commutative group certificates,
and the surgeries connecting them."""
