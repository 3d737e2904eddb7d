"""Which limit the system selects depends on the noise exponent.

With noise prefactor mu^alpha, the reference scaling alpha = 1/2 produces a
limit flow whose mobility carries the kernel phi; any alpha > 1/2 makes the
noise-induced terms vanish and the limit is the plain constrained parabolic
flow.  This sweep runs alpha = 1 against BOTH candidate targets: the error
against the parabolic flow keeps decreasing, while the error against the
phi-corrected flow bottoms out at the fixed separation between the two
candidates - a negative control telling the limits apart.
"""

from spherewave.study import StudyConfig, run_study


def main():
    config = StudyConfig(gamma=5.0, alpha=1.0, v_modes=(), ensemble=4,
                         mu_values=(0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625))
    print(f"alpha = {config.alpha}, gamma = {config.gamma}, "
          f"mass grid {config.mu_values}")
    result = run_study(config, extra_targets=("corrected",))

    print(f"\n{'mu':>9} {'vs parabolic':>13} {'vs corrected':>13} {'ratio':>7}")
    for lev in result.levels:
        ep = lev.mean_errors["parabolic"]
        ec = lev.mean_errors["corrected"]
        print(f"{lev.mu:9.5f} {ep:13.4f} {ec:13.4f} {ec / ep:7.2f}")

    last = result.levels[-1]
    ratio = last.mean_errors["corrected"] / last.mean_errors["parabolic"]
    print(f"\nat the smallest mass the wrong target is {ratio:.1f}x worse:")
    print("the alpha = 1 dynamics select the parabolic limit, not the "
          "phi-corrected one.")


if __name__ == "__main__":
    main()
