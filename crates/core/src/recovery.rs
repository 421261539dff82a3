//! The one recovery ladder of every multi-device path: the coarse-grained
//! [`crate::louvain_multi_gpu`] blocks and refinement, and the sharded
//! passes and single-device finish of `cd-dist`.
//!
//! A work item runs on its home device under the in-driver retry loop
//! ([`retry_transient`]). When a device fails with a device-attributable
//! error it is marked down for the rest of the run and the item moves to the
//! next healthy device (home, home+1, … with wrap-around); when no device is
//! left, the item runs on the host. Every step lands in the fleet's
//! [`RecoveryAction`] log, so a caller can tell *where* its work ran, while
//! what it returned stays the caller's concern.

use crate::config::RetryPolicy;
use crate::louvain::GpuLouvainError;
use cd_gpusim::{Device, DeviceConfig, FaultStats};
use std::fmt::Display;

/// One recovery action a multi-device run took, in the order taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A device recovered from faults by in-driver retries while computing
    /// its work item.
    LocalRetry {
        /// The work item ("block 3", "refine", "shard 1 superstep 4",
        /// "finish").
        scope: String,
        /// Index of the device that retried.
        device: usize,
        /// Retried successes on this work item: the device's
        /// [`FaultStats::recovered`] delta over the item.
        recoveries: u64,
    },
    /// A work item was reassigned from a failed device to a healthy one.
    Failover {
        /// The work item.
        scope: String,
        /// The device that failed (marked unhealthy).
        from_device: usize,
        /// The device the work moved to.
        to_device: usize,
    },
    /// A work item fell back to the host.
    SequentialFallback {
        /// The work item.
        scope: String,
    },
}

/// Runs `attempt` on `dev` under `policy`: a transient error
/// ([`GpuLouvainError::is_transient`]) is retried after the policy's
/// exponential backoff until `max_attempts` attempts have failed. Every
/// failed attempt counts as a detected fault on `dev`, and a success after
/// at least one failure as one recovered fault. On failure returns the last
/// error with the number of attempts made; a permanent error returns at once.
pub fn retry_transient<T>(
    dev: &Device,
    policy: &RetryPolicy,
    mut attempt: impl FnMut() -> Result<T, GpuLouvainError>,
) -> Result<T, (GpuLouvainError, usize)> {
    let mut attempts = 0usize;
    loop {
        attempts += 1;
        match attempt() {
            Ok(v) => {
                if attempts > 1 {
                    dev.note_fault_recovered();
                }
                return Ok(v);
            }
            Err(e) if e.is_transient() => {
                dev.note_fault_detected();
                if attempts >= policy.max_attempts {
                    return Err((e, attempts));
                }
                std::thread::sleep(policy.backoff_for(attempts));
            }
            Err(e) => return Err((e, attempts)),
        }
    }
}

/// [`retry_transient`] for one stage (or sweep) of a single-device driver:
/// an exhausted transient error becomes [`GpuLouvainError::StageFailed`]
/// naming `stage`, and a permanent error passes through unchanged.
pub(crate) fn retry_stage<T>(
    dev: &Device,
    policy: &RetryPolicy,
    stage: usize,
    attempt: impl FnMut() -> Result<T, GpuLouvainError>,
) -> Result<T, GpuLouvainError> {
    retry_transient(dev, policy, attempt).map_err(|(cause, attempts)| {
        if cause.is_transient() {
            GpuLouvainError::StageFailed { stage, attempts, cause: Box::new(cause) }
        } else {
            cause
        }
    })
}

/// The devices of one multi-device run, their health flags and the
/// recovery log.
pub struct DeviceFleet {
    devices: Vec<Device>,
    healthy: Vec<bool>,
    log: Vec<RecoveryAction>,
}

impl DeviceFleet {
    /// `count` devices modeled on `config` (at least one). Device `i`'s
    /// fault-plan seed is `seed + i·0x9E3779B97F4A7C15`, so the devices draw
    /// independent but reproducible fault schedules from one plan. A
    /// rejected configuration (e.g. fault injection on the Parallel profile)
    /// is a typed, permanent error.
    pub fn new(config: &DeviceConfig, count: usize) -> Result<Self, GpuLouvainError> {
        let devices = (0..count.max(1))
            .map(|i| {
                let mut dc = config.clone();
                dc.fault_plan.seed =
                    dc.fault_plan.seed.wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15));
                Device::try_new(dc).map_err(GpuLouvainError::Config)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { healthy: vec![true; devices.len()], devices, log: Vec::new() })
    }

    /// True when any work item fell back to the host.
    pub fn degraded(&self) -> bool {
        self.log.iter().any(|a| matches!(a, RecoveryAction::SequentialFallback { .. }))
    }

    /// Fault counts merged across every device.
    pub fn fault_stats(&self) -> FaultStats {
        let mut faults = FaultStats::default();
        for dev in &self.devices {
            faults.merge(&dev.fault_stats());
        }
        faults
    }

    /// The recovery actions taken, in order (empty on a fault-free run),
    /// consuming the fleet.
    pub fn into_log(self) -> Vec<RecoveryAction> {
        self.log
    }

    /// Runs one work item on the ladder: `attempt` on device `home`, then on
    /// every other healthy device in index order with wrap-around, then —
    /// when `host` is given — on the host.
    ///
    /// Only a device-attributable error
    /// ([`GpuLouvainError::is_device_attributable`]) marks a device down and
    /// moves the item on; any other error returns at once. A `Failover` is
    /// logged before each reroute, a `LocalRetry` when the succeeding device
    /// recovered faults during the item, and a `SequentialFallback` before
    /// the host runs. Without `host`, an item no device could run returns
    /// the last device error. `scope` names the item in the log and is only
    /// formatted when an action is logged.
    pub fn run<T>(
        &mut self,
        home: usize,
        scope: impl Display,
        mut attempt: impl FnMut(&Device) -> Result<T, GpuLouvainError>,
        host: Option<impl FnOnce() -> T>,
    ) -> Result<T, GpuLouvainError> {
        let d = self.devices.len();
        let mut last_err: Option<GpuLouvainError> = None;
        let mut failed_from: Option<usize> = None;
        for di in (0..d).map(|step| (home + step) % d) {
            if !self.healthy[di] {
                continue;
            }
            if let Some(from) = failed_from {
                self.log.push(RecoveryAction::Failover {
                    scope: scope.to_string(),
                    from_device: from,
                    to_device: di,
                });
            }
            let dev = &self.devices[di];
            let recovered_before = dev.fault_stats().recovered;
            match attempt(dev) {
                Ok(v) => {
                    let recoveries = dev.fault_stats().recovered - recovered_before;
                    if recoveries > 0 {
                        self.log.push(RecoveryAction::LocalRetry {
                            scope: scope.to_string(),
                            device: di,
                            recoveries,
                        });
                    }
                    if failed_from.is_some() {
                        dev.note_fault_recovered();
                    }
                    return Ok(v);
                }
                Err(e) if e.is_device_attributable() => {
                    self.healthy[di] = false;
                    failed_from = Some(di);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        match host {
            Some(host) => {
                self.log.push(RecoveryAction::SequentialFallback { scope: scope.to_string() });
                Ok(host())
            }
            None => Err(last_err.unwrap_or_else(|| GpuLouvainError::InvariantViolation {
                stage: "recovery",
                detail: format!(
                    "no healthy device for {scope} and sequential fallback is disabled"
                ),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_gpusim::LaunchError;

    fn fleet(count: usize) -> DeviceFleet {
        DeviceFleet::new(&DeviceConfig::tesla_k40m(), count).unwrap()
    }

    /// Index of `dev` in a fleet built from a zero-seed plan, read back from
    /// its salted fault seed.
    fn index_of(dev: &Device) -> usize {
        let seed = dev.config().fault_plan.seed;
        (0..64).find(|&i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) == seed).unwrap()
    }

    fn aborted() -> GpuLouvainError {
        GpuLouvainError::Launch(LaunchError::KernelAborted {
            kernel: "fake".into(),
            completed_blocks: 0,
            total_blocks: 1,
        })
    }

    const NO_HOST: Option<fn() -> usize> = None;

    #[test]
    fn visits_from_home_with_wrap_around() {
        for home in 0..3 {
            let mut f = fleet(3);
            let mut visited = Vec::new();
            let r = f.run(
                home,
                "item",
                |dev| {
                    visited.push(index_of(dev));
                    Err::<usize, _>(aborted())
                },
                Some(|| 99),
            );
            assert_eq!(r, Ok(99));
            assert_eq!(visited, [home, (home + 1) % 3, (home + 2) % 3]);
            let expected: Vec<_> = visited
                .windows(2)
                .map(|w| RecoveryAction::Failover {
                    scope: "item".into(),
                    from_device: w[0],
                    to_device: w[1],
                })
                .chain([RecoveryAction::SequentialFallback { scope: "item".into() }])
                .collect();
            assert_eq!(f.log, expected);
            assert!(f.degraded());
        }
    }

    #[test]
    fn a_device_marked_down_is_skipped_in_later_calls() {
        let mut f = fleet(3);
        let first = f.run(
            1,
            "a",
            |dev| match index_of(dev) {
                1 => Err(aborted()),
                i => Ok(i),
            },
            NO_HOST,
        );
        assert_eq!(first, Ok(2));
        let mut visited = Vec::new();
        let second = f.run(
            0,
            "b",
            |dev| {
                visited.push(index_of(dev));
                if index_of(dev) == 0 {
                    Err(aborted())
                } else {
                    Ok(index_of(dev))
                }
            },
            NO_HOST,
        );
        assert_eq!(second, Ok(2), "device 1 is down, so device 0's item goes to 2");
        assert_eq!(visited, [0, 2]);
        assert_eq!(
            f.log,
            [
                RecoveryAction::Failover { scope: "a".into(), from_device: 1, to_device: 2 },
                RecoveryAction::Failover { scope: "b".into(), from_device: 0, to_device: 2 },
            ]
        );
        assert!(!f.degraded());
    }

    #[test]
    fn a_permanent_error_propagates_without_marking_the_device_down() {
        let mut f = fleet(2);
        let oom = GpuLouvainError::OutOfMemory { required: 2, available: 1 };
        let r = f.run(0, "item", |_| Err::<usize, _>(oom.clone()), Some(|| 99));
        assert_eq!(r, Err(oom));
        assert!(f.log.is_empty());
        assert_eq!(f.run(0, "next", |dev| Ok(index_of(dev)), NO_HOST), Ok(0));
    }

    #[test]
    fn without_a_host_fallback_the_last_device_error_returns() {
        let mut f = fleet(2);
        let r = f.run(
            1,
            "item",
            |dev| {
                Err::<usize, _>(GpuLouvainError::InvariantViolation {
                    stage: "fake",
                    detail: format!("device {}", index_of(dev)),
                })
            },
            NO_HOST,
        );
        assert_eq!(
            r,
            Err(GpuLouvainError::InvariantViolation { stage: "fake", detail: "device 0".into() })
        );
        // Every device is down now: the next item has no device error to
        // report.
        assert!(matches!(
            f.run(0, "next", |dev| Ok(index_of(dev)), NO_HOST),
            Err(GpuLouvainError::InvariantViolation { stage: "recovery", .. })
        ));
        assert!(!f.degraded());
    }

    #[test]
    fn a_fault_free_run_logs_nothing() {
        let mut f = fleet(4);
        for home in 0..4 {
            assert_eq!(f.run(home, "item", |dev| Ok(index_of(dev)), Some(|| 99)), Ok(home));
        }
        assert!(f.log.is_empty());
        assert!(!f.degraded());
        assert_eq!(f.fault_stats(), FaultStats::default());
    }

    #[test]
    fn retries_count_detected_and_recovered_faults() {
        let f = fleet(1);
        let dev = &f.devices[0];
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base: std::time::Duration::ZERO,
            backoff_multiplier: 1,
        };
        let mut fails = 2;
        let r = retry_transient(dev, &policy, || {
            if fails > 0 {
                fails -= 1;
                Err(aborted())
            } else {
                Ok(7)
            }
        });
        assert_eq!(r, Ok(7));
        assert_eq!((dev.fault_stats().detected, dev.fault_stats().recovered), (2, 1));
        let r = retry_transient(dev, &policy, || Err::<(), _>(aborted()));
        assert_eq!(r, Err((aborted(), 3)));
        let oom = GpuLouvainError::OutOfMemory { required: 2, available: 1 };
        assert_eq!(retry_transient(dev, &policy, || Err::<(), _>(oom.clone())), Err((oom, 1)));
        assert_eq!((dev.fault_stats().detected, dev.fault_stats().recovered), (5, 1));
    }
}
