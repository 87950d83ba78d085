"""
Demo 4: look inside the latent space.

If training worked, each derivative node should trace the central
difference of its static partner, and individual latent nodes should
lock onto strongly correlated input features. Attacks break both
relationships - that breakdown is what makes detection fast.
"""

from pathlib import Path

import numpy as np

from tdcae import apply_scaler, central_difference, forward, load_csv, load_model
from tdcae.detect import smooth
from tdcae.metrics import intervals_from_labels
from tdcae.svgplot import line_plot

OUT = Path(__file__).parent / "output"
model, scaler, config = load_model(OUT / "model.json")
test_frame = load_csv(OUT / "test.csv")
scaled = apply_scaler(scaler, test_frame)

latent = forward(model.encoder, scaled.values)
p = model.partition
z, zdot, s = latent[:, p.z_slice], latent[:, p.zdot_slice], latent[:, p.s_slice]
print(f"latent layout: {z.shape[1]} static + {zdot.shape[1]} derivative + {s.shape[1]} statistical")

"""
## Derivative node vs central difference of its static partner

Numerical differentiation of a noisy trace is rough, so both series get a
7-sample moving average before plotting. The window covers one attack
phase; watch the curves separate there.
"""

window = slice(1500, 2000)
rows = np.arange(window.start, window.stop)
shaded = [
    (iv.start - window.start, iv.end - window.start)
    for iv in intervals_from_labels(test_frame.labels[window])
]

pair = 0
cd = central_difference(z[window.start - 1 : window.stop - 1, pair],
                        z[window.start + 1 : window.stop + 1, pair], config.delta_t)
line_plot(
    OUT / "latent_pair.svg",
    [
        (f"central diff of z{pair + 1}", smooth(cd, 7)),
        (f"zdot{pair + 1}", smooth(zdot[window, pair], 7)),
    ],
    title="derivative node against the central difference of its partner",
    shaded=shaded,
)

"""
## Latent node vs its most correlated input feature

The feature is rescaled and offset onto the node's range so the shapes
can be compared directly.
"""

node = z[window, 0]
corrs = [
    np.corrcoef(node, scaled.values[window, f])[0, 1]
    for f in range(scaled.n_features)
]
best = int(np.argmax(np.abs(corrs)))
feat = scaled.values[window, best]
rescaled = (feat - feat.mean()) * (node.std() / feat.std()) * np.sign(corrs[best]) + node.mean()
print(f"z1 correlates most with {scaled.feature_names[best]} (r={corrs[best]:+.2f})")

line_plot(
    OUT / "latent_feature_overlay.svg",
    [("z1", node), (f"{scaled.feature_names[best]} (rescaled)", rescaled)],
    title="latent node with its most correlated feature",
    shaded=shaded,
)
print(f"wrote {OUT / 'latent_pair.svg'} and {OUT / 'latent_feature_overlay.svg'}")
