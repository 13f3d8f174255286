//! `fleet_standard`: a warm standard-mix fleet through the sharded fleet
//! runner, then an investigation of its verdict. Per-device fixed cost
//! (pool acquire and platform reset, workload install, syscall training,
//! scoring) and the runner itself (channel, reorder buffer, `yield_now`
//! backpressure) dominate; provisioning is paid once per cell per worker.

use std::time::{Duration, Instant};

use cres_attacks::catalog;
use cres_crypto::hex;
use cres_crypto::merkle::MerkleAccumulator;
use cres_crypto::sha2::Sha256;
use cres_fleet::{
    run_fleet_observed, DeviceSpec, DeviceSummary, FleetConfig, FleetReport, FleetSoc,
    FleetSocConfig, FleetVerdict, REORDER_WINDOW,
};
use cres_obs::FleetObservation;
use cres_platform::provision::provision;
use cres_platform::{PlatformConfig, PlatformPool, ScenarioRunner};

use crate::forensics::{investigate, Investigation};
use crate::trace::{traced_and_plain, Tracer};
use crate::{mean, median, round_seed, rounds, speed, Ctx, Outcome};

pub const DEFAULT_SEED: u64 = 2019;
/// Devices per round: about a second of work, so the host speed probes
/// around each fleet follow the host's drift closely.
const DEVICES: u32 = 500;
/// Extra cold starts per round, each a `workers`-device fleet.
const COLD_STARTS: usize = 5;
/// Fleet-scope investigations per round: each takes milliseconds, so a
/// round's figure is the median of many.
const INVESTIGATE_REPEATS: usize = 60;
/// Devices in the traced replay (and its untraced reference run).
const TRACE_DEVICES: u32 = 400;
/// Devices whose configs are re-run on a 1-cycle scenario for the fixed
/// cost of `run_pooled`.
const FIXED_COST_DEVICES: u32 = 100;
/// SHA-256 of the canonical verdict JSON of the default-seed fleet.
const VERDICT_SHA256_AT_DEFAULT_SEED: &str =
    "b3a6414410e9cad5c79572c2a5ffca277966da149772797efbfc9c40201c022a";

/// A fleet run observed the way the export plane observes it.
pub struct Observed {
    pub obs: FleetObservation,
    /// From the `run_fleet_observed` call to the first summary reaching
    /// the observer: the fleet's cold start.
    pub first_summary: Duration,
    /// The whole `run_fleet_observed` call.
    pub wall: Duration,
}

/// Runs the fleet through `run_fleet_observed`, keeping the summary
/// stream as `cres_obs::observe_fleet` does.
pub fn observe(config: &FleetConfig, workers: usize) -> Observed {
    let mut summaries = Vec::with_capacity(config.devices as usize);
    let mut first_summary = None;
    let started = Instant::now();
    let report = run_fleet_observed(
        config,
        &FleetSocConfig::default(),
        workers,
        catalog::try_build,
        |summary| {
            first_summary.get_or_insert_with(|| started.elapsed());
            summaries.push(summary.clone());
        },
    )
    .expect("the benchmark's mixes name catalog attacks and use at least one worker");
    let wall = started.elapsed();
    Observed {
        obs: FleetObservation {
            config: config.clone(),
            report,
            summaries,
        },
        first_summary: first_summary.unwrap_or(wall),
        wall,
    }
}

/// Checks a fleet report: every device ingested and proven, the reorder
/// buffer bounded.
pub fn check_verdict(out: &mut Outcome, config: &FleetConfig, report: &FleetReport) {
    let v = &report.verdict;
    let n = config.devices;
    out.check(
        v.devices == n && v.evidence_leaves == u64::from(n),
        u64::from(n.saturating_sub(v.devices)),
        || {
            format!(
                "verdict covers {} devices and {} evidence leaves of {n}",
                v.devices, v.evidence_leaves
            )
        },
    );
    out.check(report.peak_reorder <= REORDER_WINDOW, 0, || {
        format!(
            "reorder buffer reached {} > {REORDER_WINDOW}",
            report.peak_reorder
        )
    });
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut devices = 0u32;
    let (mut fleet_wall, mut fleet_scaled) = (0.0, 0.0);
    let mut investigate_s = Vec::new();
    let mut default_digest = None;
    rounds(ctx, |round| {
        let seed = round_seed(ctx.seed, round);
        let config = FleetConfig::new(DEVICES, seed);
        let (observed, speed) = speed::scaled(ctx.workers, || observe(&config, ctx.workers));
        let report = &observed.obs.report;
        out.attempted += u64::from(config.devices);
        check_verdict(&mut out, &config, report);
        let hit_ratio = report.pool_stats().hit_rate();
        out.check(hit_ratio >= 0.9, 0, || {
            format!("pool hit ratio {hit_ratio:.3} < 0.9")
        });
        if round == 0 {
            default_digest = Some(hex::encode(&Sha256::digest(
                report.verdict.to_json().as_bytes(),
            )));
        }
        devices += config.devices;
        fleet_wall += observed.wall.as_secs_f64();
        fleet_scaled += observed.wall.as_secs_f64() * speed;
        setup.push(observed.first_summary.as_secs_f64());
        // more cold starts on fresh seeds: one start pays one RSA key
        // search, whose cost varies tenfold with the seed
        for start in 1..=COLD_STARTS {
            let cold = FleetConfig::new(ctx.workers as u32, round_seed(seed, start));
            setup.push(observe(&cold, ctx.workers).first_summary.as_secs_f64());
        }
        check_fleet_scope(&mut out, &observed.obs, &investigate(&observed.obs, 0));
        let wall = median(
            (0..INVESTIGATE_REPEATS).map(|_| investigate(&observed.obs, 0).wall.as_secs_f64()),
        );
        investigate_s.push(wall);
        eprintln!(
            "round {round} seed {seed}: first summary {:.4} s, {:.1} devices/s (host speed {speed:.3}), investigate {wall:.4} s",
            observed.first_summary.as_secs_f64(),
            f64::from(config.devices) / observed.wall.as_secs_f64(),
        );
    });
    if ctx.seed == DEFAULT_SEED {
        let digest = default_digest.unwrap_or_default();
        out.check(digest == VERDICT_SHA256_AT_DEFAULT_SEED, 0, || {
            format!("default-seed verdict digest {digest} differs from the recorded one")
        });
    }
    let devices_per_s = f64::from(devices) / fleet_scaled;
    let mcycles_per_device = FleetConfig::new(DEVICES, 0).device_cycles as f64 / 1e6;
    eprintln!(
        "unscaled: devices_per_s {}",
        f64::from(devices) / fleet_wall
    );
    out.metric("setup_s", median(setup), "s");
    out.metric("devices_per_s", devices_per_s, "1/s");
    out.metric(
        "sim_mcycles_per_s",
        devices_per_s * mcycles_per_device,
        "Mcycles/s",
    );
    out.metric("investigate_s", mean(&investigate_s), "s");
    out
}

/// Checks a fleet-scope investigation (no carrier re-runs): every
/// incident has its dossier, the exports lint, and the evidence root
/// rebuilt from the summary stream is the verdict's.
fn check_fleet_scope(out: &mut Outcome, obs: &FleetObservation, inv: &Investigation) {
    let mut acc = MerkleAccumulator::new();
    for summary in &obs.summaries {
        acc.append_digest(&summary.digest);
    }
    let verdict = &obs.report.verdict;
    out.check(
        inv.incidents == verdict.incidents.len() && acc.root() == verdict.evidence_root,
        0,
        || "fleet-scope investigation does not match the verdict".into(),
    );
    out.check(inv.lint.is_ok(), 0, || {
        format!("fleet export failed its lint: {:?}", inv.lint)
    });
}

/// The distinct provisioning cells (seed, TEE deployment) of `specs`.
pub fn distinct_cells(specs: impl Iterator<Item = DeviceSpec>) -> Vec<PlatformConfig> {
    let mut cells: Vec<PlatformConfig> = Vec::new();
    for spec in specs {
        let config = spec.platform_config(false);
        if !cells
            .iter()
            .any(|c| c.seed == config.seed && c.tee_deployment() == config.tee_deployment())
        {
            cells.push(config);
        }
    }
    cells
}

/// Mean cold `provision()` time over `cells`, milliseconds.
pub fn provision_ms(cells: &[PlatformConfig]) -> f64 {
    let started = Instant::now();
    for cell in cells {
        std::hint::black_box(provision(std::hint::black_box(cell)));
    }
    started.elapsed().as_secs_f64() * 1e3 / cells.len().max(1) as f64
}

/// The per-device pipeline every fleet worker runs, then the SOC fold
/// the aggregator runs, all on this thread with a span per call.
fn replay(config: &FleetConfig, t: &mut Tracer) -> FleetVerdict {
    let mut pool = PlatformPool::new();
    let mut soc = FleetSoc::new(FleetSocConfig::default());
    for id in 0..config.devices {
        let (spec, scenario_spec) = t.span("fleet.spec", id, || {
            let spec = DeviceSpec::generate(config, id);
            let scenario_spec = spec.scenario_spec();
            (spec, scenario_spec)
        });
        let scenario = t
            .span("platform.materialise", id, || {
                scenario_spec.materialise(&catalog::try_build)
            })
            .expect("the standard mix names catalog attacks");
        let runner = ScenarioRunner::new(spec.platform_config(config.telemetry));
        let report = t.span("platform.run_pooled", id, || {
            runner.run_pooled(&mut pool, scenario)
        });
        let summary = t.span("fleet.summary", id, || {
            DeviceSummary::from_report(id, &report)
        });
        t.span("fleet.soc_ingest", id, || soc.ingest(&summary));
    }
    t.span("fleet.soc_finish", config.devices, || soc.finish())
}

/// Median `run_pooled` time of the fleet's device configs on a 1-cycle
/// scenario, on a warm pool: what a device costs before it simulates.
fn fixed_cost_us(config: &FleetConfig) -> f64 {
    let mut pool = PlatformPool::new();
    let specs: Vec<DeviceSpec> = (0..FIXED_COST_DEVICES)
        .map(|id| {
            let mut spec = DeviceSpec::generate(config, id);
            spec.cycles = 1;
            spec
        })
        .collect();
    // warm every provisioning cell first
    for spec in &specs {
        let platform = pool.acquire(spec.platform_config(false));
        pool.release(platform);
    }
    median(specs.iter().map(|spec| {
        let scenario = spec
            .scenario_spec()
            .materialise(&catalog::try_build)
            .expect("the standard mix names catalog attacks");
        let runner = ScenarioRunner::new(spec.platform_config(config.telemetry));
        let started = Instant::now();
        std::hint::black_box(runner.run_pooled(&mut pool, scenario));
        started.elapsed().as_secs_f64() * 1e6
    }))
}

pub fn trace(ctx: &Ctx, spans: &mut String) -> Outcome {
    let config = FleetConfig::new(TRACE_DEVICES, ctx.seed);
    let mut out = Outcome::default();
    let observed = observe(&config, ctx.workers);
    let report = &observed.obs.report;
    out.attempted += u64::from(config.devices);
    check_verdict(&mut out, &config, report);

    let mut replayed = None;
    let (replay, overhead) = traced_and_plain(config.devices as usize * 6 + 1, |t| {
        replayed = Some(replay(&config, t));
    });
    out.check(replayed.as_ref() == Some(&report.verdict), 0, || {
        format!(
            "the one-thread replay's verdict differs from the {}-worker run's",
            ctx.workers
        )
    });
    replay.write_jsonl("fleet_standard", spans);

    let run_pooled = replay.call("platform.run_pooled");
    let mcycles = run_pooled.count() as f64 * config.device_cycles as f64 / 1e6;
    let busy_per_device: f64 = [
        "fleet.spec",
        "platform.materialise",
        "platform.run_pooled",
        "fleet.summary",
    ]
    .iter()
    .map(|name| replay.call(name).total_us())
    .sum::<f64>()
        / 1e6
        / f64::from(config.devices);
    let shard_devices: Vec<f64> = report.shards.iter().map(|s| f64::from(s.devices)).collect();
    let mean_shard = shard_devices.iter().sum::<f64>() / shard_devices.len() as f64;
    let max_shard = shard_devices.iter().copied().fold(0.0, f64::max);
    let cells = distinct_cells((0..config.devices).map(|id| DeviceSpec::generate(&config, id)));

    let p = |name: &str| format!("fleet_standard.{name}");
    out.metric(
        p("fleet.spec.us_per_op"),
        replay.call("fleet.spec").us_per_op(),
        "us",
    );
    out.metric(
        p("platform.materialise.us_per_op"),
        replay.call("platform.materialise").us_per_op(),
        "us",
    );
    out.metric(
        p("platform.run_pooled.p50_us"),
        run_pooled.percentile_us(50.0),
        "us",
    );
    out.metric(
        p("platform.run_pooled.p99_us"),
        run_pooled.percentile_us(99.0),
        "us",
    );
    out.metric(
        p("platform.run_pooled.allocs_per_op"),
        run_pooled.allocs_per_op(),
        "count",
    );
    out.metric(
        p("platform.run_pooled.us_per_sim_mcycle"),
        run_pooled.total_us() / mcycles,
        "us",
    );
    out.metric(
        p("platform.run_pooled.fixed_us"),
        fixed_cost_us(&config),
        "us",
    );
    out.metric(
        p("fleet.summary.us_per_op"),
        replay.call("fleet.summary").us_per_op(),
        "us",
    );
    out.metric(
        p("fleet.soc_ingest.us_per_op"),
        replay.call("fleet.soc_ingest").us_per_op(),
        "us",
    );
    out.metric(
        p("fleet.soc_finish.us"),
        replay.call("fleet.soc_finish").total_us(),
        "us",
    );
    out.metric(
        p("platform.pool.hit_ratio"),
        report.pool_stats().hit_rate(),
        "ratio",
    );
    out.metric(
        p("fleet.runner.peak_reorder"),
        report.peak_reorder as f64,
        "count",
    );
    out.metric(
        p("fleet.runner.shard_skew"),
        max_shard / mean_shard,
        "ratio",
    );
    out.metric(
        p("fleet.runner.efficiency"),
        busy_per_device * f64::from(config.devices)
            / (report.workers as f64 * observed.wall.as_secs_f64()),
        "ratio",
    );
    out.metric(p("crypto.provision.ms_per_op"), provision_ms(&cells), "ms");
    out.metric(
        p("crypto.provision.count"),
        report.pool_stats().provision_misses as f64,
        "count",
    );
    out.metric(
        p("unattributed_share"),
        replay.unattributed_share(),
        "ratio",
    );
    out.metric(p("tracing_overhead"), overhead, "ratio");
    out
}
