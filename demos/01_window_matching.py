"""Find a matching window in another series and map its continuation.

Builds a tiny dataset where series B secretly contains an affine copy of
series A's last 14 values followed by 14 more points, then shows how the
scan finds that window and turns its continuation into a forecast for A.
"""

import numpy as np

from corrcast import CorrelationEngine, CorrelatorParams, Dataset, TimeSeries

rng = np.random.default_rng(11)
W = 14

a = rng.normal(10.0, 1.0, 60)
tail = a[-W:]

# B embeds 3*tail - 5 at positions 21..34, followed by its continuation.
window = 3.0 * tail - 5.0
continuation = window.mean() + np.std(window) * rng.normal(0, 0.8, W)
b = np.concatenate([rng.normal(0, 1, 20), window, continuation, rng.normal(0, 1, 10)])

dataset = Dataset([TimeSeries("A", a), TimeSeries("B", b)])
# Window 14, correlation >= 0.9999, dispersion cap 2.5. The engine holds
# the scan state of the whole dataset; each target is then one call.
engine = CorrelationEngine(dataset, CorrelatorParams())

print("candidates for A (source index, window end tau, correlation):")
ks, taus, rs = engine.candidates(0)
for k, tau, r in zip(ks[:5], taus[:5], rs[:5]):
    print(f"  series {dataset.series[k].id}  tau={tau}  r={r:.6f}")

match = engine.forecast(0)
print(f"\naccepted match: source={match.source_id} tau={match.tau} r={match.r:.6f}")
print("mapped forecast for A:")
print(np.array2string(match.forecast, precision=3))
print("\nthe forecast rescales the continuation into A's frame:")
print(f"  tail mean {tail.mean():.3f} / std {np.std(tail):.3f}")
print(f"  forecast mean {match.forecast.mean():.3f} / std {np.std(match.forecast):.3f}")
