"""Closed-form overlap of two oscillator coherent states.

The library solves the coherent triad's dependent pair from its angles
alone.  This overlap, checked here against the number-basis series,
gives the independent route: the triad's invariant as the product of
its three overlaps.
"""

import numpy as np


def oracle_coherent_overlap(z_prime, z):
    """Overlap of the coherent states with labels z' and z."""
    z_prime, z = complex(z_prime), complex(z)
    return complex(np.exp(-0.5 * abs(z_prime - z) ** 2
                          + 1j * (np.conjugate(z_prime) * z).imag))
