//! Execution profiles: the boundary between SIMT *semantics* and
//! *observability*.
//!
//! The simulator has two layers. The semantic core — lockstep groups,
//! divergence, atomics/CAS, shared-vs-global placement, Thrust-style
//! collectives — defines what a kernel computes. The observability machinery —
//! hardware counters, the cycle model, fault injection, per-access accounting —
//! defines what we can *measure* about it. An [`ExecutionProfile`] selects how
//! much of the second layer is compiled into the first:
//!
//! * [`Instrumented`] (the default) keeps every counter, the cycle model, and
//!   the fault injector: the `nvprof` stand-in.
//! * [`Racecheck`] keeps everything [`Instrumented`] does and additionally
//!   routes memory accesses through the [`crate::racecheck`] happens-before
//!   detector, surfacing data races the lockstep simulator would otherwise
//!   mask as typed [`crate::RaceReport`]s on the metrics report.
//! * [`Parallel`] is the answer path: accounting compiles to no-ops, metric
//!   recording and the cycle model are skipped, and each block runs as a
//!   direct scalar loop instead of being interleaved warp-by-warp.
//!   Kernels produce identical results (same labels, same modularity) but
//!   [`crate::Device::metrics`] reports no kernel entries.
//!
//! Every profile runs its blocks on the persistent worker pool of
//! [`crate::schedule`], `CD_GPUSIM_THREADS` /
//! [`crate::DeviceConfig::with_threads`] wide; results stay bit-identical
//! regardless of thread count.
//!
//! Selection is **monomorphized**: kernel bodies are generic over
//! `P: ExecutionProfile` and gate accounting on the associated constants
//! [`ExecutionProfile::INSTRUMENTED`] / [`ExecutionProfile::RACECHECK`],
//! which the compiler const-folds away per instantiation. There is no
//! per-access runtime branch; the only runtime dispatch is
//! [`dispatch_profile!`](crate::dispatch_profile) at each driver entry point.
//!
//! Fault injection needs the instrumented launch path (fault draws and
//! sequence numbers live there), so an active [`crate::FaultPlan`] combined
//! with [`Profile::Parallel`] is rejected at device construction with
//! [`ConfigError::FaultsRequireInstrumented`]. Combining faults with
//! [`Profile::Racecheck`] is rejected too
//! ([`ConfigError::FaultsIncompatibleWithRacecheck`]): an injected bit flip
//! is not a program access, and letting the injector perturb cells mid-launch
//! would make flips masquerade as data races.

use std::fmt;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Instrumented {}
    impl Sealed for super::Racecheck {}
    impl Sealed for super::Parallel {}
}

/// Compile-time execution profile selector.
///
/// Implemented only by the marker types [`Instrumented`], [`Racecheck`],
/// and [`Parallel`] (the trait is sealed). Code that is generic over
/// `P: ExecutionProfile` gates accounting work on
/// [`ExecutionProfile::INSTRUMENTED`] and hazard detection on
/// [`ExecutionProfile::RACECHECK`]; because the flags are associated
/// `const`s, each instantiation monomorphizes to a body with the unused
/// machinery compiled out — no per-access branching survives in the
/// `Parallel` instantiation.
pub trait ExecutionProfile: sealed::Sealed + Send + Sync + 'static {
    /// Whether this profile records counters, runs the cycle model, and
    /// participates in fault injection.
    const INSTRUMENTED: bool;
    /// Whether this profile routes memory accesses through the
    /// happens-before race detector ([`crate::racecheck`]).
    const RACECHECK: bool = false;
    /// The runtime selector value corresponding to this marker type.
    const PROFILE: Profile;
}

/// Marker type for the fully-observable profile: hardware counters, cycle
/// model, and fault injection all active. Preserves the simulator's historical
/// behaviour bit for bit and is the default everywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Instrumented;

/// Marker type for the hazard-detecting profile: everything [`Instrumented`]
/// records stays on (counters, cycle model, thrust interception), and every
/// global-buffer / shared-arena access is additionally checked against the
/// per-launch shadow state of [`crate::racecheck`]. Kernel results remain
/// bit-identical to [`Instrumented`]; detected races surface as
/// [`crate::RaceReport`]s on [`crate::MetricsReport::races`]. Fault
/// injection is unavailable (see
/// [`ConfigError::FaultsIncompatibleWithRacecheck`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Racecheck;

/// Marker type for the native-parallel profile, the answer path: accounting
/// is compiled to no-ops, launches skip counter merging, metric recording,
/// and fault draws, and each block runs as one direct scalar loop on a
/// worker thread of the persistent scheduler pool (see [`crate::schedule`]),
/// with no per-warp interleaving and no per-lane `step()` bookkeeping.
/// [`crate::Device::metrics`] reports no kernel entries. Results
/// stay bit-identical to the other profiles independent of thread count and
/// schedule: floating-point commits go through sharded accumulators reduced
/// in fixed shard order and compactions are order-stable, so work-claiming
/// order cannot leak into output. Thread count comes from
/// `CD_GPUSIM_THREADS` / [`crate::DeviceConfig::with_threads`]. Fault
/// injection is unavailable (requires the instrumented launch path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Parallel;

impl ExecutionProfile for Instrumented {
    const INSTRUMENTED: bool = true;
    const PROFILE: Profile = Profile::Instrumented;
}

impl ExecutionProfile for Racecheck {
    const INSTRUMENTED: bool = true;
    const RACECHECK: bool = true;
    const PROFILE: Profile = Profile::Racecheck;
}

impl ExecutionProfile for Parallel {
    const INSTRUMENTED: bool = false;
    const PROFILE: Profile = Profile::Parallel;
}

/// Runtime profile selector carried by [`crate::DeviceConfig`]. Drivers
/// dispatch on this once per phase entry, then stay monomorphized over the
/// matching marker type for the duration of the phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Profile {
    /// Full observability (counters, cycle model, fault injection).
    #[default]
    Instrumented,
    /// Full observability plus happens-before race detection.
    Racecheck,
    /// Accounting compiled out and blocks run as direct scalar loops: the
    /// answer path.
    Parallel,
}

impl Profile {
    /// True for the profiles that record counters and run the cycle model:
    /// [`Profile::Instrumented`] and [`Profile::Racecheck`].
    pub fn is_instrumented(self) -> bool {
        matches!(self, Profile::Instrumented | Profile::Racecheck)
    }

    /// True for [`Profile::Racecheck`].
    pub fn is_racecheck(self) -> bool {
        matches!(self, Profile::Racecheck)
    }

    /// Parses `"instrumented"`, `"racecheck"`, or `"parallel"`
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "instrumented" => Some(Profile::Instrumented),
            "racecheck" => Some(Profile::Racecheck),
            "parallel" => Some(Profile::Parallel),
            _ => None,
        }
    }

    /// Profile selected by the `CD_GPUSIM_PROFILE` environment variable
    /// (`instrumented` | `racecheck` | `parallel`), defaulting to
    /// [`Profile::Instrumented`] when unset or empty. [`crate::DeviceConfig`]
    /// constructors consult this so a whole test suite can be re-run under
    /// another profile without code changes (CI does exactly that for all
    /// three). Panics on any other value rather than quietly running a
    /// different profile than the one asked for.
    pub fn from_env() -> Self {
        Self::from_env_value(std::env::var("CD_GPUSIM_PROFILE").ok().as_deref())
    }

    /// [`Profile::from_env`] as a pure function of the variable's value.
    fn from_env_value(value: Option<&str>) -> Self {
        value.map(str::trim).filter(|v| !v.is_empty()).map_or(Profile::default(), |v| {
            Self::parse(v).unwrap_or_else(|| {
                panic!(
                    "CD_GPUSIM_PROFILE={v:?} is not a profile; \
                     expected instrumented, racecheck, or parallel"
                )
            })
        })
    }
}

/// Evaluates `$body` with the type `$P` bound to the marker type of the
/// runtime [`Profile`] `$profile`: the one place a runtime selector becomes
/// a monomorphized instantiation.
///
/// ```
/// use cd_gpusim::{dispatch_profile, Device, DeviceConfig, ExecutionProfile, GlobalU32, Profile};
///
/// fn histogram<P: ExecutionProfile>(dev: &Device, counts: &GlobalU32) {
///     dev.exec::<P>().launch_threads("histogram", 1000, |ctx, t| {
///         ctx.atomic_add_u32(counts, t as usize % 4, 1);
///     });
/// }
///
/// let dev = Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Parallel));
/// let counts = GlobalU32::zeroed(4);
/// dispatch_profile!(dev.profile(), P => histogram::<P>(&dev, &counts));
/// assert_eq!(counts.to_vec(), vec![250, 250, 250, 250]);
/// assert!(dev.metrics().kernels().is_empty()); // Parallel records nothing
/// ```
#[macro_export]
macro_rules! dispatch_profile {
    ($profile:expr, $P:ident => $body:expr) => {
        match $profile {
            $crate::Profile::Instrumented => {
                type $P = $crate::Instrumented;
                $body
            }
            $crate::Profile::Racecheck => {
                type $P = $crate::Racecheck;
                $body
            }
            $crate::Profile::Parallel => {
                type $P = $crate::Parallel;
                $body
            }
        }
    };
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Profile::Instrumented => write!(f, "instrumented"),
            Profile::Racecheck => write!(f, "racecheck"),
            Profile::Parallel => write!(f, "parallel"),
        }
    }
}

/// Rejected [`crate::DeviceConfig`] combinations, detected by
/// [`crate::Device::try_new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// An active [`crate::FaultPlan`] was combined with [`Profile::Parallel`].
    /// Fault draws, launch sequence numbers, and detection counters all live
    /// in the instrumented launch path, so faults require
    /// [`Profile::Instrumented`].
    FaultsRequireInstrumented,
    /// An active [`crate::FaultPlan`] was combined with
    /// [`Profile::Racecheck`]. An injected bit flip is not a program access:
    /// the injector's writes bypass the shadow state by construction, so a
    /// flipped cell would diverge from its shadow history and any detection
    /// scrub that re-reads it could misattribute the corruption as a data
    /// race. The combination is rejected up front instead.
    FaultsIncompatibleWithRacecheck,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::FaultsRequireInstrumented => write!(
                f,
                "fault injection requires the instrumented profile: \
                 an active FaultPlan cannot be combined with Profile::Parallel"
            ),
            ConfigError::FaultsIncompatibleWithRacecheck => write!(
                f,
                "fault injection is incompatible with the racecheck profile: \
                 injected bit flips are not program accesses and would \
                 masquerade as data races"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_profiles_case_insensitively() {
        assert_eq!(Profile::parse("Instrumented"), Some(Profile::Instrumented));
        assert_eq!(Profile::parse("racecheck"), Some(Profile::Racecheck));
        assert_eq!(Profile::parse("RaceCheck"), Some(Profile::Racecheck));
        assert_eq!(Profile::parse("parallel"), Some(Profile::Parallel));
        assert_eq!(Profile::parse("PARALLEL"), Some(Profile::Parallel));
        assert_eq!(Profile::parse("fast"), None);
        assert_eq!(Profile::parse("turbo"), None);
    }

    #[test]
    fn env_value_selects_the_profile_or_defaults_when_unset() {
        assert_eq!(Profile::from_env_value(None), Profile::Instrumented);
        assert_eq!(Profile::from_env_value(Some("")), Profile::Instrumented);
        assert_eq!(Profile::from_env_value(Some("racecheck")), Profile::Racecheck);
        assert_eq!(Profile::from_env_value(Some(" Parallel\n")), Profile::Parallel);
    }

    #[test]
    #[should_panic(
        expected = "CD_GPUSIM_PROFILE=\"paralel\" is not a profile; expected instrumented, racecheck, or parallel"
    )]
    fn env_value_typo_fails_loudly() {
        Profile::from_env_value(Some("paralel"));
    }

    #[test]
    #[should_panic(expected = "CD_GPUSIM_PROFILE=\"fast\" is not a profile")]
    fn env_value_of_a_removed_profile_fails_loudly() {
        Profile::from_env_value(Some("fast"));
    }

    #[test]
    fn marker_constants_match_runtime_selectors() {
        const { assert!(Instrumented::INSTRUMENTED) };
        const { assert!(Racecheck::INSTRUMENTED) };
        const { assert!(Racecheck::RACECHECK) };
        const { assert!(!Instrumented::RACECHECK) };
        const { assert!(!Parallel::INSTRUMENTED) };
        const { assert!(!Parallel::RACECHECK) };
        assert_eq!(Instrumented::PROFILE, Profile::Instrumented);
        assert_eq!(Racecheck::PROFILE, Profile::Racecheck);
        assert_eq!(Parallel::PROFILE, Profile::Parallel);
        assert_eq!(Profile::default(), Profile::Instrumented);
    }

    #[test]
    fn dispatch_profile_binds_the_matching_marker() {
        for p in [Profile::Instrumented, Profile::Racecheck, Profile::Parallel] {
            assert_eq!(dispatch_profile!(p, M => M::PROFILE), p);
        }
    }

    #[test]
    fn racecheck_counts_as_instrumented_but_is_distinguishable() {
        assert!(Profile::Racecheck.is_instrumented());
        assert!(Profile::Racecheck.is_racecheck());
        assert!(!Profile::Instrumented.is_racecheck());
    }

    #[test]
    fn parallel_is_uninstrumented() {
        assert!(!Profile::Parallel.is_instrumented());
        assert!(!Profile::Parallel.is_racecheck());
        assert!(Profile::Instrumented.is_instrumented());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for p in [Profile::Instrumented, Profile::Racecheck, Profile::Parallel] {
            assert_eq!(Profile::parse(&p.to_string()), Some(p));
        }
    }
}
