import numpy as np


def brute_force_jones(N: int, x: float) -> complex:
    """Direct complex evaluation of the defining sum (oracle, N <= ~50).

    Sums prod_{j<=k} (t^{(N+j)/2} - t^{-(N+j)/2})(t^{(N-j)/2} - t^{-(N-j)/2})
    at t = exp(2 pi i x) using half-integer powers of t literally.
    """
    total = 1.0 + 0.0j
    prod = 1.0 + 0.0j
    for j in range(1, N):
        a = np.exp(1j * np.pi * x * (N + j)) - np.exp(-1j * np.pi * x * (N + j))
        b = np.exp(1j * np.pi * x * (N - j)) - np.exp(-1j * np.pi * x * (N - j))
        prod *= a * b
        total += prod
    return total
