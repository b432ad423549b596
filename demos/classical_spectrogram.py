"""The classical story: a DFT sees which frequencies, a spectrogram sees when.

A piecewise cosine switches frequency bins at its midpoint. The DFT magnitude
shows both constituent frequencies but says nothing about where the switch
happens; windowed transforms with two window widths localize it, trading
frequency resolution for time resolution.

Writes spectrograms.png when matplotlib is available.

Run:  python demos/classical_spectrogram.py
"""
import numpy as np

from gstft import boxcar_window, dft, piecewise_cosine, spectrogram

N = 256
LOW, HIGH = 8, 32  # the bins piecewise_cosine switches between

signal = piecewise_cosine(N)
power = np.abs(dft(signal)) ** 2

top = np.argsort(power[: N // 2 + 1])[-2:]
print(f"two largest DFT peaks at bins {sorted(int(b) for b in top)} (constructed: {LOW}, {HIGH})")

print("\nper-window dominant bin (boxcar width 32):")
wide = spectrogram(signal, boxcar_window(N, 32))
dominant = 1 + np.argmax(wide[:, 1 : N // 2 + 1], axis=1)
for k in range(0, N, 32):
    print(f"  window at k = {k:3d}: dominant bin {dominant[k]}")
switch = np.nonzero(wide[:, HIGH] > wide[:, LOW])[0]
print(f"the {HIGH}-bin starts dominating at k = {switch[0]} (true breakpoint: {N // 2})")

narrow = spectrogram(signal, boxcar_window(N, 16))
print("\na narrower window (width 16) localizes the switch more sharply in k,")
print("at the cost of a blurrier frequency axis.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(13, 4))
    axes[0].plot(power)
    axes[0].set_title("DFT magnitude |f_hat|^2")
    axes[0].set_xlabel("frequency bin")
    for ax, (name, spec) in zip(
        axes[1:], [("width 32", wide), ("width 16", narrow)]
    ):
        ax.imshow(spec[:, : N // 2].T, origin="lower", aspect="auto", cmap="magma")
        ax.set_title(f"spectrogram, boxcar {name}")
        ax.set_xlabel("translation k")
        ax.set_ylabel("modulation l")
    fig.tight_layout()
    fig.savefig("spectrograms.png", dpi=120)
    print("\nwrote spectrograms.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
