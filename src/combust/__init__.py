"""Combustion front simulation via Crank-Nicolson and interior-point complementarity solvers."""
