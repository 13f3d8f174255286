//! `forensics`: a small cold campaign fleet, then a long investigation of
//! its verdict. Every carrier re-runs through `ScenarioRunner::run_keep`,
//! which provisions cold, so the provisioning cache that keeps the fleet
//! warm is missed here, and so is the evidence read path: seal,
//! inclusion proofs, verification.

use std::time::{Duration, Instant};

use cres_attacks::catalog;
use cres_crypto::merkle::MerkleAccumulator;
use cres_fleet::{AttackMix, DeviceSpec, DeviceSummary, FleetConfig, FleetIncident};
use cres_forensics::DeviceDossier;
use cres_obs::lint::{check_jsonl, check_prom};
use cres_obs::{fleet_jsonl, fleet_prometheus, incident_dossiers, FleetObservation};
use cres_platform::ScenarioRunner;
use cres_sim::SimTime;

use crate::trace::{traced_and_plain, Tracer};
use crate::{fleet, median, round_seed, rounds, speed, Ctx, Outcome};

pub const DEFAULT_SEED: u64 = 2019;
/// A small fleet: its cold run is this workload's set-up.
const DEVICES: u32 = 60;
/// Firmware batches, each its own provisioning cell: carriers spread over
/// many RSA keys, so the cold provisioning they pay is an average over
/// many key searches instead of one or two whose cost varies tenfold
/// with the seed.
const BATCHES: u32 = 64;
/// Carriers re-run per incident: enough for a multi-second investigation.
const CARRIERS_PER_INCIDENT: usize = 24;
/// Carriers per incident in the traced replay.
const TRACE_CARRIERS_PER_INCIDENT: usize = 8;

fn config(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(DEVICES, seed);
    config.mix = AttackMix::campaign("network-flood");
    config.batches = BATCHES;
    config
}

/// One timed investigation of a fleet verdict.
pub struct Investigation {
    /// Verdict to verified evidence: dossiers, both exports, both lints.
    pub wall: Duration,
    /// The `incident_dossiers` part of `wall`.
    pub dossier_wall: Duration,
    /// Carriers re-run.
    pub carriers: u64,
    /// Carriers whose dossier, re-run digest or fleet proof failed.
    pub unverified: u64,
    /// Incidents reconstructed.
    pub incidents: usize,
    /// Export lint result.
    pub lint: Result<(), String>,
}

/// Turns the verdict into verified evidence the way an operator would:
/// proof-carrying dossiers for every incident, then the fleet JSONL and
/// Prometheus exports, each linted.
pub fn investigate(obs: &FleetObservation, carriers_per_incident: usize) -> Investigation {
    let started = Instant::now();
    let reconstructions = incident_dossiers(obs, catalog::try_build, carriers_per_incident);
    let dossier_wall = started.elapsed();
    let jsonl = fleet_jsonl(obs);
    let prom = fleet_prometheus(&obs.report.verdict);
    let lint = check_jsonl(&jsonl)
        .and_then(|_| check_prom(&prom))
        .map(|_| ());
    let wall = started.elapsed();
    let carriers = reconstructions
        .iter()
        .map(|r| r.carriers.len() as u64)
        .sum();
    let unverified = reconstructions
        .iter()
        .filter(|r| !r.fully_verified())
        .map(|r| r.carriers.len() as u64)
        .sum();
    Investigation {
        wall,
        dossier_wall,
        carriers,
        unverified,
        incidents: reconstructions.len(),
        lint,
    }
}

/// Checks an investigation and counts its carriers as operations.
pub fn check_investigation(out: &mut Outcome, inv: &Investigation) {
    out.attempted += inv.carriers;
    out.check(inv.incidents > 0 && inv.carriers > 0, 0, || {
        "the verdict has no incident to investigate".into()
    });
    out.check(inv.unverified == 0, inv.unverified, || {
        format!("{} carriers did not fully verify", inv.unverified)
    });
    out.check(inv.lint.is_ok(), 0, || {
        format!("fleet export failed its lint: {:?}", inv.lint)
    });
}

/// Per-round figures are reduced to their median over the run: a round
/// whose carriers happen to need slow key searches, or that the host
/// slows past what the probe sees, moves it little.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut setup_scaled) = (Vec::new(), Vec::new());
    let (mut rate, mut rate_scaled) = (Vec::new(), Vec::new());
    let (mut investigate_s, mut investigate_scaled) = (Vec::new(), Vec::new());
    rounds(ctx, |round| {
        let config = config(round_seed(ctx.seed, round));
        let (observed, setup_speed) =
            speed::scaled(ctx.workers, || fleet::observe(&config, ctx.workers));
        out.attempted += u64::from(config.devices);
        fleet::check_verdict(&mut out, &config, &observed.obs.report);
        let (inv, speed) = speed::scaled(1, || investigate(&observed.obs, CARRIERS_PER_INCIDENT));
        check_investigation(&mut out, &inv);
        let carriers_per_s = inv.carriers as f64 / inv.dossier_wall.as_secs_f64();
        setup.push(observed.wall.as_secs_f64());
        setup_scaled.push(observed.wall.as_secs_f64() * setup_speed);
        rate.push(carriers_per_s);
        rate_scaled.push(carriers_per_s / speed);
        investigate_s.push(inv.wall.as_secs_f64());
        investigate_scaled.push(inv.wall.as_secs_f64() * speed);
        eprintln!(
            "round {round} seed {}: set-up {:.4} s, {carriers_per_s:.2} carriers/s, investigate {:.4} s (host speed {speed:.3})",
            config.base_seed,
            observed.wall.as_secs_f64(),
            inv.wall.as_secs_f64()
        );
    });
    eprintln!(
        "unscaled: devices_per_s {} investigate_s {} setup_s {}",
        median(rate),
        median(investigate_s),
        median(setup)
    );
    let devices_per_s = median(rate_scaled);
    let mcycles_per_device = config(0).device_cycles as f64 / 1e6;
    out.metric("setup_s", median(setup_scaled), "s");
    out.metric("devices_per_s", devices_per_s, "1/s");
    out.metric(
        "sim_mcycles_per_s",
        devices_per_s * mcycles_per_device,
        "Mcycles/s",
    );
    out.metric("investigate_s", median(investigate_scaled), "s");
    out
}

/// The carriers `incident_dossiers` re-runs, in its order.
fn carriers(obs: &FleetObservation, per_incident: usize) -> Vec<&DeviceSummary> {
    obs.report
        .verdict
        .incidents
        .iter()
        .flat_map(|incident| {
            let signature = match incident {
                FleetIncident::CoordinatedCampaign { signature, .. }
                | FleetIncident::LateralMovement { signature, .. } => signature,
            };
            obs.summaries
                .iter()
                .filter(move |s| s.attack.as_deref() == Some(signature.as_str()))
                .take(per_incident)
        })
        .collect()
}

/// The steps `incident_dossiers` takes per carrier, then the exports,
/// each call in its own span. Returns the carriers that failed to verify.
fn replay(obs: &FleetObservation, carriers: &[&DeviceSummary], t: &mut Tracer) -> u64 {
    let mut failed = 0;
    let digests: Vec<[u8; 32]> = obs.summaries.iter().map(|s| s.digest).collect();
    let accumulator = t.span("crypto.merkle_rebuild", 0, || {
        let mut acc = MerkleAccumulator::new();
        for digest in &digests {
            acc.append_digest(digest);
        }
        acc
    });
    for summary in carriers {
        let id = summary.device;
        let spec = t.span("fleet.spec", id, || DeviceSpec::generate(&obs.config, id));
        let scenario = t
            .span("platform.materialise", id, || {
                spec.scenario_spec().materialise(&catalog::try_build)
            })
            .expect("carrier attacks come from the catalog");
        let runner = ScenarioRunner::new(spec.platform_config(obs.config.telemetry));
        let (report, mut platform) = t.span("platform.run_keep", id, || runner.run_keep(scenario));
        let rerun = t.span("fleet.summary", id, || {
            DeviceSummary::from_report(id, &report)
        });
        t.span("ssm.seal_evidence", id, || {
            platform.ssm.seal_evidence(SimTime::at_cycle(spec.cycles))
        });
        let dossier = t.span("forensics.dossier_from_store", id, || {
            DeviceDossier::from_store(id, summary.attack.clone(), platform.ssm.evidence())
        });
        let proved = t.span("crypto.merkle_proof", id, || {
            accumulator
                .inclusion_proof(digests.iter(), u64::from(id))
                .is_some_and(|proof| accumulator.verify_proof(&summary.digest, &proof))
        });
        if !(dossier.all_verified() && rerun.digest == summary.digest && proved) {
            failed += 1;
        }
    }
    let unit = obs.config.devices;
    let jsonl = t.span("obs.fleet_jsonl", unit, || fleet_jsonl(obs));
    let prom = t.span("obs.fleet_prometheus", unit, || {
        fleet_prometheus(&obs.report.verdict)
    });
    let lint = t.span("obs.lint", unit, || {
        check_jsonl(&jsonl).and_then(|_| check_prom(&prom))
    });
    if lint.is_err() {
        failed += 1;
    }
    failed
}

pub fn trace(ctx: &Ctx, spans: &mut String) -> Outcome {
    let config = config(ctx.seed);
    let mut out = Outcome::default();
    let observed = fleet::observe(&config, ctx.workers);
    out.attempted += u64::from(config.devices);
    fleet::check_verdict(&mut out, &config, &observed.obs.report);
    let obs = &observed.obs;
    let chosen = carriers(obs, TRACE_CARRIERS_PER_INCIDENT);
    let mut failed = 0;
    let (replay, overhead) = traced_and_plain(chosen.len() * 8 + 8, |t| {
        failed = replay(obs, &chosen, t);
    });
    out.attempted += chosen.len() as u64;
    out.check(!chosen.is_empty() && failed == 0, failed, || {
        format!("forensics replay: {failed} carriers or exports failed to verify")
    });
    replay.write_jsonl("forensics", spans);

    let cells = fleet::distinct_cells(
        chosen
            .iter()
            .map(|s| DeviceSpec::generate(&config, s.device)),
    );
    let provision_ms = fleet::provision_ms(&cells);

    let p = |name: &str| format!("forensics.{name}");
    out.metric(
        p("platform.run_keep.ms_per_op"),
        replay.call("platform.run_keep").us_per_op() / 1e3,
        "ms",
    );
    out.metric(
        p("ssm.seal_evidence.us_per_op"),
        replay.call("ssm.seal_evidence").us_per_op(),
        "us",
    );
    out.metric(
        p("forensics.dossier_from_store.us_per_op"),
        replay.call("forensics.dossier_from_store").us_per_op(),
        "us",
    );
    out.metric(
        p("crypto.merkle_proof.us_per_op"),
        replay.call("crypto.merkle_proof").us_per_op(),
        "us",
    );
    out.metric(
        p("obs.fleet_jsonl_us"),
        replay.call("obs.fleet_jsonl").total_us(),
        "us",
    );
    out.metric(
        p("obs.fleet_prometheus_us"),
        replay.call("obs.fleet_prometheus").total_us(),
        "us",
    );
    out.metric(p("obs.lint_us"), replay.call("obs.lint").total_us(), "us");
    out.metric(p("crypto.provision.ms_per_op"), provision_ms, "ms");
    // every run_keep provisions its platform cold
    out.metric(
        p("crypto.provision.count"),
        replay.call("platform.run_keep").count() as f64,
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
