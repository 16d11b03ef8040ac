"""Fixed-point study: does the policy survive the 16-bit datapath?

The platform computes in 16-bit fixed point (Fig. 4b).  This example
meta-trains a policy in floating point, quantises it into several
Q-formats, and measures (a) weight quantisation SNR and (b) greedy
action agreement with the float policy over real camera observations —
the question the co-design's deployment step implicitly answers.

Run:  python examples/quantization_study.py
"""

import numpy as np

from repro.analysis import format_table
from repro.backend import QuantizedBackend
from repro.env import DepthCamera, NavigationEnv, make_environment
from repro.fixedpoint import QFormat, quantization_stats
from repro.nn import build_network, scaled_drone_net_spec
from repro.rl import meta_train


def collect_observations(env_name: str, count: int, seed: int = 0) -> np.ndarray:
    """Gather depth-image states from a random flight."""
    world = make_environment(env_name, seed=seed)
    env = NavigationEnv(world, camera=DepthCamera(width=16, height=16), seed=seed)
    rng = np.random.default_rng(seed)
    states = [env.reset()]
    while len(states) < count:
        obs, _, done, _ = env.step(int(rng.integers(5)))
        states.append(env.reset() if done else obs)
    return np.stack(states[:count])


def main() -> None:
    print("Meta-training a float policy (indoor meta-environment)...")
    meta = meta_train("meta-indoor", iterations=1500, seed=0, image_side=16)
    spec = scaled_drone_net_spec(input_side=16)
    network = build_network(spec, seed=0)
    network.load_state_dict(meta.final_state)

    states = collect_observations("indoor-apartment", count=256, seed=3)

    formats = [
        ("Q2.3 (6-bit)", QFormat(2, 3)),
        ("Q2.5 (8-bit)", QFormat(2, 5)),
        ("Q2.9 (12-bit)", QFormat(2, 9)),
        ("Q2.13 (16-bit, platform)", QFormat(2, 13)),
    ]
    weights = np.concatenate([p.value.ravel() for p in network.parameters()])
    rows = []
    for label, fmt in formats:
        stats = quantization_stats(weights, fmt)
        backend = QuantizedBackend(network, weight_format=fmt)
        agreement = backend.agreement_rate(states)
        rows.append(
            [
                label,
                fmt.total_bits,
                round(stats.snr_db, 1),
                round(100 * stats.saturated_fraction, 3),
                round(100 * agreement, 1),
            ]
        )
    print()
    print(
        format_table(
            ["Format", "Bits", "Weight SNR (dB)", "Saturated %", "Action agreement %"],
            rows,
        )
    )
    print(
        "\nThe platform's 16-bit fixed point preserves the greedy policy "
        "almost exactly,\nwhile 6-8 bit corners start flipping actions — "
        "consistent with the paper's\nchoice of 16-bit arithmetic."
    )


if __name__ == "__main__":
    main()
