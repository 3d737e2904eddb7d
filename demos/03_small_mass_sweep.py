"""The small-mass limit, measured: a Monte Carlo mass sweep.

As the mass parameter decreases, trajectories of the stochastic wave system
concentrate on the deterministic limit flow whose mobility carries the
noise kernel phi.  The sweep couples all mass levels with common random
numbers, compares each trajectory against the limit in the sup-in-time H^1
norm, and prints the decay of the ensemble mean error.
"""

from spherewave.study import StudyConfig, run_study, trend_check


def main():
    config = StudyConfig(ensemble=8)   # default is 16; 8 keeps this demo short
    print(f"mass grid {config.mu_values}, ensemble {config.ensemble}, "
          f"T={config.T}, error norm H^{config.delta:g}")
    result = run_study(config)

    print(f"\n{'mu':>8} {'mean error':>12} {'std':>10} {'failures':>9}")
    for lev in result.levels:
        print(f"{lev.mu:8.3f} {lev.mean_errors['corrected']:12.4f} "
              f"{lev.std_devs['corrected']:10.4f} {lev.failures:9d}")

    tc = trend_check(result)
    print(f"\nstrictly decreasing: {tc['strictly_decreasing']}")
    print(f"decay factor e(mu_min)/e(mu_max): {tc['decay_factor']:.3f}")
    print(f"trend verdict: {'PASS' if tc['passed'] else 'FAIL'}")


if __name__ == "__main__":
    main()
