//! Declarative, serializable workload descriptions.
//!
//! Every workload family this crate can generate — explicit application
//! lists, the Fig. 6 random mixes, Darshan-log reductions, congested
//! moments, the Vesta IOR node-splits, and the §4.3 sensibility
//! perturbation — is described by one [`WorkloadSpec`] value. A spec is
//! pure data (JSON-serializable through `serde`), and
//! [`WorkloadSpec::materialize`] is the single entry point turning it
//! into the `Vec<AppSpec>` the simulator consumes. Experiment campaigns
//! sweep a seed axis over spec *templates* via [`WorkloadSpec::with_seed`]
//! without knowing anything about the family being seeded.

use crate::darshan::DarshanLog;
use crate::generator::MixConfig;
use crate::ior_profile::{scenario_apps, IorParams, VestaScenario};
use crate::stream::{ArrivalProcess, StopRule, StreamIter};
use crate::{congestion, sensibility};
use iosched_model::app::{validate_open_scenario, validate_scenario};
use iosched_model::{AppSpec, Platform};
use serde::{Deserialize, Serialize};

/// Salt decorrelating a [`WorkloadSpec::Perturbed`] wrapper's perturbation
/// stream from its base workload's generation stream when one campaign
/// seed drives both (the Fig. 7 convention: `perturb_seed = seed ^ SALT`).
pub const PERTURB_SEED_SALT: u64 = 0xABCD;

/// Salt decorrelating a [`WorkloadSpec::Stream`] wrapper's arrival/pick
/// streams from its template's generation stream when one campaign seed
/// drives both (mirrors [`PERTURB_SEED_SALT`]).
pub const STREAM_SEED_SALT: u64 = 0x57EA;

/// Most jobs a [`WorkloadSpec::Darshan`] log may synthesize: 50 times
/// the 20,000 of Fig. 5, and a bound on the records synthesized before
/// the window picks its jobs.
pub const MAX_DARSHAN_JOBS: usize = 1_000_000;

/// One serializable workload description.
///
/// `Mix`, `Darshan`, `Congestion`, `IorProfile` and `Perturbed` are
/// generative: deterministic functions of their parameters, the target
/// [`Platform`] and a seed. `Explicit` carries a pre-materialized
/// application list (hand-authored scenario files, externally produced
/// traces) and ignores seeding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A literal application list.
    Explicit(Vec<AppSpec>),
    /// A Fig. 6-style random mix (§4.2).
    Mix {
        /// Mix composition.
        config: MixConfig,
        /// Generation seed.
        seed: u64,
    },
    /// A synthetic year-long Darshan log reduced to one scenario (§4.1,
    /// §4.4): synthesize `jobs` records, take the jobs running in
    /// `[window_start, window_start + window_secs]`, enforce periodicity
    /// and replicate to `coverage` of the machine.
    Darshan {
        /// Jobs in the synthetic year.
        jobs: usize,
        /// Seed of the log synthesizer.
        log_seed: u64,
        /// Window start (seconds since the log epoch).
        window_start: f64,
        /// Window length in seconds.
        window_secs: f64,
        /// Node-coverage target of the replication step, in `(0, 1]`.
        coverage: f64,
        /// Seed of the reduction (releases, replication draws).
        seed: u64,
    },
    /// A seeded congested moment (Tables 1–2 sweep point).
    Congestion {
        /// Case seed.
        seed: u64,
    },
    /// A Vesta IOR node-split scenario (§5).
    IorProfile {
        /// Node split, e.g. `512/256/256/32`.
        scenario: VestaScenario,
        /// IOR parameters.
        params: IorParams,
        /// Jitter seed.
        seed: u64,
    },
    /// The §4.3 sensibility perturbation applied on top of another spec:
    /// per-instance work drawn from `U[w, w(1+work_x)]`, volumes likewise.
    Perturbed {
        /// The workload being perturbed.
        base: Box<WorkloadSpec>,
        /// Work sensibility fraction (0.30 = "30 %").
        work_x: f64,
        /// I/O-volume sensibility fraction.
        vol_x: f64,
        /// Perturbation seed.
        seed: u64,
    },
    /// An *open-system* stream: applications arrive dynamically through
    /// an [`ArrivalProcess`], each drawing its shape from the pool any
    /// closed `template` family materializes, until the [`StopRule`]
    /// ends the stream. Open streams drop the closed-roster `Σβ ≤ N`
    /// budget (each application must fit the machine individually; the
    /// model does not queue on processors, so a supercritical stream is
    /// read through its queue/stretch metrics) and materialize lazily
    /// through [`WorkloadSpec::app_source`].
    Stream {
        /// How inter-arrival gaps are drawn.
        arrivals: ArrivalProcess,
        /// The closed family whose materialization is the shape pool.
        template: Box<WorkloadSpec>,
        /// When the stream ends.
        stop: StopRule,
        /// Seed of the arrival/pick draw streams.
        seed: u64,
    },
}

/// A lazily-produced application roster: the one source every consumer
/// (materialization, the streaming engine, the memory bars) pulls
/// from. Closed families yield their materialized roster; open streams
/// generate one application per `next()` and never hold the full list.
pub enum AppSource {
    /// A fully materialized (closed) roster.
    Roster(std::vec::IntoIter<AppSpec>),
    /// A lazy open-system stream.
    Stream(StreamIter),
}

impl AppSource {
    /// True when this source was produced by an open-system spec.
    #[must_use]
    pub fn is_open(&self) -> bool {
        matches!(self, Self::Stream(_))
    }
}

impl Iterator for AppSource {
    type Item = AppSpec;

    fn next(&mut self) -> Option<AppSpec> {
        match self {
            Self::Roster(it) => it.next(),
            Self::Stream(it) => it.next(),
        }
    }
}

impl WorkloadSpec {
    /// Structural validation, independent of any platform: empty mixes,
    /// out-of-range ratios and malformed ranges are rejected here so that
    /// campaign files fail fast instead of deep inside a worker thread.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Explicit(apps) => {
                if apps.is_empty() {
                    return Err("explicit workload has no applications".into());
                }
                Ok(())
            }
            Self::Mix { config, .. } => {
                if config.count() == 0 {
                    return Err("mix must contain at least one application".into());
                }
                if !(config.io_ratio > 0.0 && config.io_ratio < 1.0) {
                    return Err(format!("mix io_ratio {} outside (0, 1)", config.io_ratio));
                }
                // A finite upper end bounds the lower one too.
                if !(config.work_range.0 > 0.0
                    && config.work_range.1 > config.work_range.0
                    && config.work_range.1.is_finite())
                {
                    return Err(format!(
                        "mix work_range ({}, {}) must be positive, finite and ascending",
                        config.work_range.0, config.work_range.1
                    ));
                }
                if config.instances.0 == 0 || config.instances.1 < config.instances.0 {
                    return Err(format!(
                        "mix instance range ({}, {}) must be ≥ 1 and ascending",
                        config.instances.0, config.instances.1
                    ));
                }
                if !(config.release_jitter >= 0.0 && config.release_jitter.is_finite()) {
                    return Err(format!(
                        "mix release_jitter {} must be finite and non-negative",
                        config.release_jitter
                    ));
                }
                Ok(())
            }
            Self::Darshan {
                jobs,
                window_secs,
                coverage,
                ..
            } => {
                if *jobs == 0 {
                    return Err("darshan workload needs at least one job".into());
                }
                if *jobs > MAX_DARSHAN_JOBS {
                    return Err(format!(
                        "darshan workload asks for {jobs} jobs, more than the \
                         {MAX_DARSHAN_JOBS} allowed"
                    ));
                }
                if *window_secs <= 0.0 {
                    return Err("darshan window must have positive length".into());
                }
                if !(*coverage > 0.0 && *coverage <= 1.0) {
                    return Err(format!("darshan coverage {coverage} outside (0, 1]"));
                }
                Ok(())
            }
            Self::Congestion { .. } => Ok(()),
            Self::IorProfile {
                scenario, params, ..
            } => {
                if scenario.nodes.is_empty() {
                    return Err("IOR profile has no applications".into());
                }
                for (field, v) in [("work", params.work), ("io_ratio", params.io_ratio)] {
                    if !(v > 0.0 && v.is_finite()) {
                        return Err(format!("IOR {field} {v} must be positive and finite"));
                    }
                }
                if params.iterations == 0 {
                    return Err("IOR iterations must be positive".into());
                }
                Ok(())
            }
            Self::Perturbed {
                base,
                work_x,
                vol_x,
                ..
            } => {
                for (field, x) in [("work_x", *work_x), ("vol_x", *vol_x)] {
                    if !(x >= 0.0 && x.is_finite()) {
                        return Err(format!(
                            "sensibility fraction {field} {x} must be finite and non-negative"
                        ));
                    }
                }
                if base.contains_stream() {
                    return Err("the sensibility perturbation cannot wrap an open stream; \
                         perturb the stream's template instead"
                        .into());
                }
                base.validate()
            }
            Self::Stream {
                arrivals,
                template,
                stop,
                ..
            } => {
                arrivals.validate()?;
                stop.validate()?;
                if template.contains_stream() {
                    return Err("stream templates must be closed (streams cannot nest)".into());
                }
                template.validate()
            }
        }
    }

    /// True when a `Stream` appears anywhere in this spec tree. Used by
    /// [`WorkloadSpec::validate`] to keep open streams at the top level
    /// only — wrappers treating an open roster as a closed one would
    /// silently change its semantics (and [`WorkloadSpec::is_open`]
    /// relies on top-level-only streams to be accurate).
    fn contains_stream(&self) -> bool {
        match self {
            Self::Stream { .. } => true,
            Self::Perturbed { base, .. } => base.contains_stream(),
            _ => false,
        }
    }

    /// True for open-system specs: the roster is a dynamic stream, the
    /// closed `Σβ ≤ N` budget does not apply over its whole extent, and
    /// runners should prefer [`WorkloadSpec::app_source`] plus the
    /// streaming engine over full materialization.
    #[must_use]
    pub fn is_open(&self) -> bool {
        matches!(self, Self::Stream { .. })
    }

    /// Open the application source on `platform` — the single
    /// generation path shared by [`WorkloadSpec::materialize`] and the
    /// open-system runners. `Stream` specs generate **lazily**: a
    /// consumer that stops early (a horizon-bounded engine, a prefix
    /// probe) pulls exactly what it uses and a 100k-application stream
    /// never exists as a `Vec`. Closed families are generated and
    /// validated whole before the iterator is handed out (their
    /// generators need the full roster for scaling and the `Σβ ≤ N`
    /// check), so for them the source only unifies the call shape.
    pub fn app_source(&self, platform: &Platform) -> Result<AppSource, String> {
        self.validate()?;
        if let Self::Stream {
            arrivals,
            template,
            stop,
            seed,
        } = self
        {
            // `validate()` above already recursed into the template;
            // generate the pool without a second structural pass.
            let pool = template.generate_closed(platform)?;
            return Ok(AppSource::Stream(StreamIter::new(
                pool, arrivals, *stop, *seed,
            )));
        }
        Ok(AppSource::Roster(
            self.generate_closed(platform)?.into_iter(),
        ))
    }

    /// Generate a closed (non-`Stream`) family and check the roster
    /// against the platform. Structural validation is the caller's job
    /// ([`WorkloadSpec::app_source`] runs it once for the whole spec
    /// tree).
    fn generate_closed(&self, platform: &Platform) -> Result<Vec<AppSpec>, String> {
        let apps = match self {
            Self::Explicit(apps) => apps.clone(),
            Self::Mix { config, seed } => {
                // Every application holds at least one processor, so such
                // a mix can never fit; refuse it before sizing anything
                // by its count.
                if config.count() as u64 > platform.procs {
                    return Err(format!(
                        "mix has {} applications but {} has only {} processors",
                        config.count(),
                        platform.name,
                        platform.procs
                    ));
                }
                config.generate(platform, *seed)
            }
            Self::Darshan {
                jobs,
                log_seed,
                window_start,
                window_secs,
                coverage,
                seed,
            } => {
                let log = DarshanLog::synthesize_year(platform, *log_seed, *jobs);
                let apps = log.reduce_to_scenario(
                    platform,
                    (*window_start, *window_start + *window_secs),
                    *coverage,
                    *seed,
                );
                if apps.is_empty() {
                    return Err(format!(
                        "darshan window [{window_start}, {}] contains no jobs",
                        *window_start + *window_secs
                    ));
                }
                apps
            }
            Self::Congestion { seed } => congestion::congested_moment(platform, *seed),
            Self::IorProfile {
                scenario,
                params,
                seed,
            } => scenario_apps(scenario, platform, *params, *seed),
            Self::Perturbed {
                base,
                work_x,
                vol_x,
                seed,
            } => {
                let periodic = base.materialize(platform)?;
                sensibility::perturb(&periodic, *work_x, *vol_x, *seed)
            }
            Self::Stream { .. } => unreachable!("streams cannot nest and are routed above"),
        };
        validate_scenario(platform, &apps).map_err(|e| e.to_string())?;
        Ok(apps)
    }

    /// Generate the applications on `platform`. The single eager entry
    /// point every closed runner uses: validates the spec, generates
    /// through [`WorkloadSpec::app_source`], and checks the result
    /// against the platform (closed families: dense ids and the `Σβ ≤ N`
    /// processor budget; open streams: per-application feasibility).
    pub fn materialize(&self, platform: &Platform) -> Result<Vec<AppSpec>, String> {
        let source = self.app_source(platform)?;
        let open = source.is_open();
        let apps: Vec<AppSpec> = source.collect();
        if open && apps.is_empty() {
            return Err(format!("{} produced no applications", self.label()));
        }
        // Open rosters satisfy `validate_open_scenario` by construction
        // (StreamIter re-ids densely in arrival order over a validated
        // pool); the runners that consume them re-check per admission.
        debug_assert!(!open || validate_open_scenario(platform, &apps).is_ok());
        Ok(apps)
    }

    /// Rebind the generation seed — the campaign layer's seed axis. The
    /// spec stays a template: `Explicit` is unaffected, `Perturbed`
    /// reseeds its base with `seed` and its own draw stream with
    /// `seed ^ PERTURB_SEED_SALT` so the two stay decorrelated.
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> Self {
        match self {
            Self::Explicit(apps) => Self::Explicit(apps.clone()),
            Self::Mix { config, .. } => Self::Mix {
                config: *config,
                seed,
            },
            Self::Darshan {
                jobs,
                log_seed,
                window_start,
                window_secs,
                coverage,
                ..
            } => Self::Darshan {
                jobs: *jobs,
                log_seed: *log_seed,
                window_start: *window_start,
                window_secs: *window_secs,
                coverage: *coverage,
                seed,
            },
            Self::Congestion { .. } => Self::Congestion { seed },
            Self::IorProfile {
                scenario, params, ..
            } => Self::IorProfile {
                scenario: scenario.clone(),
                params: *params,
                seed,
            },
            Self::Perturbed {
                base,
                work_x,
                vol_x,
                ..
            } => Self::Perturbed {
                base: Box::new(base.with_seed(seed)),
                work_x: *work_x,
                vol_x: *vol_x,
                seed: seed ^ PERTURB_SEED_SALT,
            },
            Self::Stream {
                arrivals,
                template,
                stop,
                ..
            } => Self::Stream {
                arrivals: arrivals.clone(),
                template: Box::new(template.with_seed(seed)),
                stop: *stop,
                seed: seed ^ STREAM_SEED_SALT,
            },
        }
    }

    /// Short human-readable family label used as the workload key in
    /// campaign reports (seed-independent, so every seed of one template
    /// lands in the same cell).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Explicit(apps) => format!("explicit({} apps)", apps.len()),
            Self::Mix { config, .. } => format!(
                "mix(s{}+l{}+vl{}@{:.0}%)",
                config.small,
                config.large,
                config.very_large,
                config.io_ratio * 100.0
            ),
            Self::Darshan {
                jobs, window_secs, ..
            } => format!("darshan({jobs} jobs/{window_secs:.0}s)"),
            Self::Congestion { .. } => "congestion".into(),
            Self::IorProfile { scenario, .. } => format!("ior({})", scenario.name),
            Self::Perturbed {
                base,
                work_x,
                vol_x,
                ..
            } => format!(
                "{}+sens({:.0}%/{:.0}%)",
                base.label(),
                work_x * 100.0,
                vol_x * 100.0
            ),
            Self::Stream {
                arrivals,
                template,
                stop,
                ..
            } => format!(
                "stream({}->{}{})",
                arrivals.label(),
                template.label(),
                stop.label()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_model::{Bytes, Time};

    fn all_families() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Explicit(vec![AppSpec::periodic(
                0,
                Time::ZERO,
                128,
                Time::secs(30.0),
                Bytes::gib(40.0),
                3,
            )]),
            WorkloadSpec::Mix {
                config: MixConfig::fig6a(),
                seed: 7,
            },
            WorkloadSpec::Darshan {
                jobs: 4_000,
                log_seed: 3,
                window_start: 0.0,
                window_secs: 50_000.0,
                coverage: 0.5,
                seed: 9,
            },
            WorkloadSpec::Congestion { seed: 11 },
            WorkloadSpec::IorProfile {
                scenario: VestaScenario::new(&[512, 256]),
                params: IorParams::default(),
                seed: 2,
            },
            WorkloadSpec::Perturbed {
                base: Box::new(WorkloadSpec::Mix {
                    config: MixConfig::fig6b(),
                    seed: 5,
                }),
                work_x: 0.2,
                vol_x: 0.2,
                seed: 5 ^ PERTURB_SEED_SALT,
            },
            WorkloadSpec::Stream {
                arrivals: ArrivalProcess::Poisson { rate: 0.02 },
                template: Box::new(WorkloadSpec::Congestion { seed: 0 }),
                stop: StopRule::Apps(40),
                seed: 13,
            },
        ]
    }

    fn platform_for(spec: &WorkloadSpec) -> Platform {
        match spec {
            WorkloadSpec::IorProfile { .. } | WorkloadSpec::Explicit(_) => Platform::vesta(),
            _ => Platform::intrepid(),
        }
    }

    #[test]
    fn every_family_materializes_valid_scenarios() {
        for spec in all_families() {
            let platform = platform_for(&spec);
            let apps = spec
                .materialize(&platform)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            assert!(!apps.is_empty(), "{} produced no apps", spec.label());
            if spec.is_open() {
                // Open streams only promise per-instant feasibility.
                validate_open_scenario(&platform, &apps).unwrap();
            } else {
                validate_scenario(&platform, &apps).unwrap();
            }
        }
    }

    #[test]
    fn stream_materialization_matches_its_lazy_source() {
        let spec = WorkloadSpec::Stream {
            arrivals: ArrivalProcess::Poisson { rate: 0.05 },
            template: Box::new(WorkloadSpec::Congestion { seed: 3 }),
            stop: StopRule::Apps(200),
            seed: 9,
        };
        let platform = Platform::intrepid();
        let eager = spec.materialize(&platform).unwrap();
        let lazy: Vec<AppSpec> = spec.app_source(&platform).unwrap().collect();
        assert_eq!(eager, lazy);
        assert_eq!(eager.len(), 200);
        // Shapes come from the template pool (releases and ids rebound).
        let pool = WorkloadSpec::Congestion { seed: 3 }
            .materialize(&platform)
            .unwrap();
        for app in &eager {
            assert!(
                pool.iter()
                    .any(|p| p.procs() == app.procs() && p.pattern() == app.pattern()),
                "{} has a shape outside the pool",
                app.id()
            );
        }
        // The open roster legitimately oversubscribes the closed budget
        // (that is the point of the open system)…
        assert!(validate_scenario(&platform, &eager).is_err());
        // …but stays per-app feasible.
        validate_open_scenario(&platform, &eager).unwrap();
    }

    #[test]
    fn stream_with_seed_rebinds_template_and_draw_streams() {
        let template = WorkloadSpec::Stream {
            arrivals: ArrivalProcess::Poisson { rate: 0.02 },
            template: Box::new(WorkloadSpec::Congestion { seed: 0 }),
            stop: StopRule::Apps(10),
            seed: 0,
        };
        let bound = template.with_seed(4);
        let WorkloadSpec::Stream {
            template: inner,
            seed,
            ..
        } = &bound
        else {
            panic!("with_seed changed the variant");
        };
        assert_eq!(*seed, 4 ^ STREAM_SEED_SALT);
        assert_eq!(**inner, WorkloadSpec::Congestion { seed: 4 });
    }

    #[test]
    fn invalid_stream_specs_are_rejected() {
        let base = |arrivals, stop| WorkloadSpec::Stream {
            arrivals,
            template: Box::new(WorkloadSpec::Congestion { seed: 0 }),
            stop,
            seed: 0,
        };
        assert!(
            base(ArrivalProcess::Poisson { rate: -1.0 }, StopRule::Apps(5))
                .validate()
                .is_err()
        );
        assert!(
            base(ArrivalProcess::Poisson { rate: 1.0 }, StopRule::Apps(0))
                .validate()
                .is_err()
        );
        // Nested streams are rejected.
        let nested = WorkloadSpec::Stream {
            arrivals: ArrivalProcess::Poisson { rate: 1.0 },
            template: Box::new(base(
                ArrivalProcess::Poisson { rate: 1.0 },
                StopRule::Apps(5),
            )),
            stop: StopRule::Apps(5),
            seed: 0,
        };
        assert!(nested.validate().is_err());
        // …including a stream smuggled in through a Perturbed wrapper,
        // both as a template and at the top level (a wrapped stream
        // would read as closed and run under the wrong semantics).
        let wrapped = WorkloadSpec::Perturbed {
            base: Box::new(base(
                ArrivalProcess::Poisson { rate: 1.0 },
                StopRule::Apps(5),
            )),
            work_x: 0.1,
            vol_x: 0.1,
            seed: 0,
        };
        assert!(!wrapped.is_open());
        assert!(wrapped.validate().is_err());
        let smuggled = WorkloadSpec::Stream {
            arrivals: ArrivalProcess::Poisson { rate: 1.0 },
            template: Box::new(wrapped),
            stop: StopRule::Apps(5),
            seed: 0,
        };
        assert!(smuggled.validate().is_err());
    }

    #[test]
    fn materialization_matches_the_direct_generators() {
        let p = Platform::intrepid();
        let mix = WorkloadSpec::Mix {
            config: MixConfig::fig6b(),
            seed: 42,
        };
        assert_eq!(
            mix.materialize(&p).unwrap(),
            MixConfig::fig6b().generate(&p, 42)
        );
        let cong = WorkloadSpec::Congestion { seed: 3 };
        assert_eq!(
            cong.materialize(&p).unwrap(),
            congestion::congested_moment(&p, 3)
        );
        // The Perturbed wrapper reproduces the Fig. 7 pipeline.
        let level = WorkloadSpec::Perturbed {
            base: Box::new(WorkloadSpec::Mix {
                config: MixConfig::fig6b(),
                seed: 0,
            }),
            work_x: 0.1,
            vol_x: 0.1,
            seed: 17,
        };
        let direct = sensibility::perturb(&MixConfig::fig6b().generate(&p, 0), 0.1, 0.1, 17);
        assert_eq!(level.materialize(&p).unwrap(), direct);
    }

    #[test]
    fn with_seed_rebinds_every_generative_family() {
        for spec in all_families() {
            let platform = platform_for(&spec);
            let a = spec.with_seed(100).materialize(&platform).unwrap();
            let b = spec.with_seed(100).materialize(&platform).unwrap();
            assert_eq!(a, b, "{} not deterministic", spec.label());
            if !matches!(spec, WorkloadSpec::Explicit(_)) {
                let c = spec.with_seed(101).materialize(&platform).unwrap();
                assert_ne!(a, c, "{} ignored the seed", spec.label());
            }
        }
    }

    #[test]
    fn perturbed_seed_axis_matches_the_fig7_convention() {
        let template = WorkloadSpec::Perturbed {
            base: Box::new(WorkloadSpec::Mix {
                config: MixConfig::fig6b(),
                seed: 0,
            }),
            work_x: 0.3,
            vol_x: 0.3,
            seed: 0,
        };
        let bound = template.with_seed(4);
        let WorkloadSpec::Perturbed { base, seed, .. } = &bound else {
            panic!("with_seed changed the variant");
        };
        assert_eq!(*seed, 4 ^ PERTURB_SEED_SALT);
        assert_eq!(
            **base,
            WorkloadSpec::Mix {
                config: MixConfig::fig6b(),
                seed: 4
            }
        );
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let empty_mix = WorkloadSpec::Mix {
            config: MixConfig {
                small: 0,
                large: 0,
                very_large: 0,
                io_ratio: 0.2,
                work_range: (100.0, 400.0),
                instances: (8, 12),
                release_jitter: 1.0,
            },
            seed: 0,
        };
        assert!(empty_mix.validate().is_err());
        let bad_ratio = WorkloadSpec::Mix {
            config: MixConfig {
                io_ratio: 1.5,
                ..MixConfig::fig6a()
            },
            seed: 0,
        };
        assert!(bad_ratio.validate().is_err());
        assert!(WorkloadSpec::Explicit(vec![]).validate().is_err());
        let bad_coverage = WorkloadSpec::Darshan {
            jobs: 100,
            log_seed: 0,
            window_start: 0.0,
            window_secs: 1_000.0,
            coverage: 1.5,
            seed: 0,
        };
        assert!(bad_coverage.validate().is_err());
        let negative_sens = WorkloadSpec::Perturbed {
            base: Box::new(WorkloadSpec::Congestion { seed: 0 }),
            work_x: -0.1,
            vol_x: 0.0,
            seed: 0,
        };
        assert!(negative_sens.validate().is_err());

        // A JSON number that overflows (`1e999`) reads as ∞: each is
        // refused by the field's name, not later by what it breaks.
        let mix = |f: fn(&mut MixConfig)| {
            let mut config = MixConfig::fig6a();
            f(&mut config);
            WorkloadSpec::Mix { config, seed: 0 }
        };
        let ior = |f: fn(&mut IorParams)| {
            let mut params = IorParams::default();
            f(&mut params);
            WorkloadSpec::IorProfile {
                scenario: VestaScenario::new(&[64, 128]),
                params,
                seed: 0,
            }
        };
        let perturbed = |work_x, vol_x| WorkloadSpec::Perturbed {
            base: Box::new(WorkloadSpec::Congestion { seed: 0 }),
            work_x,
            vol_x,
            seed: 0,
        };
        for (spec, field) in [
            (mix(|c| c.work_range.1 = f64::INFINITY), "work_range"),
            (mix(|c| c.release_jitter = f64::INFINITY), "release_jitter"),
            (mix(|c| c.release_jitter = f64::NAN), "release_jitter"),
            (ior(|p| p.work = f64::INFINITY), "work"),
            (ior(|p| p.io_ratio = f64::INFINITY), "io_ratio"),
            (perturbed(f64::INFINITY, 0.0), "work_x"),
            (perturbed(0.0, f64::INFINITY), "vol_x"),
        ] {
            let err = spec.validate().unwrap_err();
            assert!(err.contains(&format!("{field} ")), "{field}: {err}");
        }
        // The same specs with finite values pass.
        mix(|c| c.release_jitter = 1e300).validate().unwrap();
        ior(|_| ()).validate().unwrap();
        perturbed(0.2, 0.2).validate().unwrap();
    }

    #[test]
    fn oversubscription_is_rejected_at_materialization() {
        // 3000 nodes of IOR groups on 2048-node Vesta.
        let spec = WorkloadSpec::IorProfile {
            scenario: VestaScenario::new(&[1024, 1024, 952]),
            params: IorParams::default(),
            seed: 0,
        };
        assert!(spec.materialize(&Platform::vesta()).is_err());
    }

    #[test]
    fn a_mix_larger_than_the_machine_is_refused_before_generation() {
        // 2^53 applications: generating them first would size a vector
        // by the count and abort the process.
        let huge = WorkloadSpec::Mix {
            config: MixConfig {
                small: 1 << 53,
                ..MixConfig::fig6a()
            },
            seed: 0,
        };
        let err = huge.materialize(&Platform::vesta()).unwrap_err();
        assert!(err.contains("only 2048 processors"), "{err}");
        // As a stream template too: every closed family goes through the
        // same generation.
        let stream = WorkloadSpec::Stream {
            arrivals: ArrivalProcess::Poisson { rate: 0.02 },
            template: Box::new(huge),
            stop: StopRule::Apps(4),
            seed: 0,
        };
        assert!(stream.app_source(&Platform::vesta()).is_err());
    }

    #[test]
    fn darshan_jobs_are_bounded() {
        let darshan = |jobs| WorkloadSpec::Darshan {
            jobs,
            log_seed: 0,
            window_start: 0.0,
            window_secs: 1_000.0,
            coverage: 0.5,
            seed: 0,
        };
        darshan(MAX_DARSHAN_JOBS).validate().unwrap();
        let err = darshan(1 << 53).validate().unwrap_err();
        assert!(err.contains("more than the 1000000 allowed"), "{err}");
    }

    #[test]
    fn json_roundtrip_every_family() {
        for spec in all_families() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "roundtrip failed for {}", spec.label());
        }
    }

    #[test]
    fn labels_are_distinct_and_seed_free() {
        let labels: Vec<String> = all_families().iter().map(WorkloadSpec::label).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "duplicate labels: {labels:?}");
        for spec in all_families() {
            assert_eq!(spec.label(), spec.with_seed(999).label());
        }
    }
}
