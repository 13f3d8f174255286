//! `gauntlet`: a generated corpus of long multi-stage attacked scenarios
//! classified through `run_corpus` on the campaign executor, then
//! forensics on breached (degraded or missed) scenarios. SSM correlation,
//! response, evidence and the run-loop costs that grow with simulated
//! time dominate; per-run fixed cost is about 1%.

use std::time::Instant;

use cres_attacks::catalog;
use cres_forensics::DeviceDossier;
use cres_platform::campaign::Campaign;
use cres_platform::{PlatformPool, PlatformProfile, RunReport, ScenarioRunner};
use cres_scenario::{
    classify, generate, parse, run_corpus, serialize, Classification, GenKnobs, ScenarioDoc,
};
use cres_sim::SimTime;

use crate::trace::{traced_and_plain, Tracer};
use crate::{median, round_seed, rounds, speed, Ctx, Outcome};

pub const DEFAULT_SEED: u64 = 42;
const PROFILE: PlatformProfile = PlatformProfile::CyberResilient;
const SCENARIOS: usize = 240;
/// Scenarios per `run_corpus` call: about a second of work, so the host
/// speed probes around each call follow the host's drift closely.
const CHUNK: usize = 60;
/// Corpus set-ups per round: set-up takes milliseconds, so the median of
/// many is reported.
const SETUP_REPEATS: usize = 16;
/// The first eight breaches (degraded or missed scenarios) of the e13
/// corpus at seed 42, investigated every round whatever the seed. Breach
/// forensics cost is dominated by a few breaches whose evidence runs to
/// hundreds of cited records (scenario 53 here), and across seeds a
/// 240-scenario corpus's breaches cost 10 to 26 s to investigate; a
/// fixed set keeps that cost in the metric without its seed variance.
const E13_BREACHES: [usize; 8] = [8, 19, 25, 45, 47, 53, 68, 73];
/// Scenarios in the traced replay (and its untraced reference run).
const TRACE_SCENARIOS: usize = 48;
/// The first 120 scenarios are the default e13 corpus (streams are forked
/// per scenario); at seed 42 they classify as recorded in EXPERIMENTS.md.
const E13_CORPUS: usize = 120;
const E13_AT_DEFAULT_SEED: [usize; 3] = [101, 16, 3];

fn knobs(count: usize) -> GenKnobs {
    GenKnobs {
        count,
        ..GenKnobs::default()
    }
}

/// Generates the corpus and takes it through the DSL: serialize, parse,
/// validate. Returns the parsed documents, or why they are unusable.
fn corpus(seed: u64, count: usize) -> Result<Vec<ScenarioDoc>, String> {
    let parsed = generate(seed, &knobs(count))
        .iter()
        .map(|doc| parse(&serialize(doc)).map_err(|e| format!("{}: {e}", doc.name)))
        .collect::<Result<Vec<_>, _>>()?;
    for doc in &parsed {
        doc.validate()?;
    }
    Ok(parsed)
}

/// Checks that `docs` are the generated corpus, unchanged by the DSL.
fn check_round_trip(out: &mut Outcome, docs: &[ScenarioDoc], seed: u64) {
    out.check(docs == generate(seed, &knobs(docs.len())), 0, || {
        "the corpus does not survive serialize → parse".into()
    });
}

fn class_counts<'a>(classes: impl Iterator<Item = &'a Classification>) -> [usize; 3] {
    let mut counts = [0; 3];
    for class in classes {
        counts[match class {
            Classification::Detected => 0,
            Classification::Degraded => 1,
            Classification::Missed => 2,
        }] += 1;
    }
    counts
}

/// Re-runs one breached scenario with `run_keep`, seals its evidence at
/// the horizon and builds its dossier. True when the re-run is still a
/// breach and every cited record verifies.
fn investigate_breach(index: usize, doc: &ScenarioDoc) -> bool {
    let scenario = doc
        .spec()
        .materialise(&catalog::try_build)
        .expect("generated scenarios name catalog attacks");
    let runner = ScenarioRunner::new(doc.config(PROFILE, DEFAULT_SEED));
    let (report, mut platform) = runner.run_keep(scenario);
    platform.ssm.seal_evidence(SimTime::at_cycle(doc.duration));
    let outcome = classify(doc, &report);
    let dossier = DeviceDossier::from_store(
        index as u32,
        outcome.missed.first().cloned(),
        platform.ssm.evidence(),
    );
    outcome.classification != Classification::Detected && dossier.all_verified()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let (mut scenarios, mut mcycles) = (0usize, 0.0);
    let (mut corpus_wall, mut corpus_scaled) = (0.0, 0.0);
    let (mut investigate_s, mut investigate_scaled) = (Vec::new(), Vec::new());
    let reference = generate(DEFAULT_SEED, &knobs(E13_CORPUS));
    rounds(ctx, |round| {
        let seed = round_seed(ctx.seed, round);
        let mut docs = Err(String::new());
        for _ in 0..SETUP_REPEATS {
            let started = Instant::now();
            docs = corpus(seed, SCENARIOS);
            setup.push(started.elapsed().as_secs_f64());
        }
        let docs = match docs {
            Ok(docs) => docs,
            Err(e) => {
                out.check(false, SCENARIOS as u64, || e);
                return;
            }
        };
        check_round_trip(&mut out, &docs, seed);

        let mut runs = Vec::with_capacity(docs.len());
        let mut round_wall = 0.0;
        for chunk in docs.chunks(CHUNK) {
            let ((chunk_runs, wall), speed) = speed::scaled(ctx.workers, || {
                let started = Instant::now();
                let runs = run_corpus(chunk, PROFILE, seed, ctx.workers)
                    .expect("validated scenarios name catalog attacks");
                (runs, started.elapsed().as_secs_f64())
            });
            round_wall += wall;
            corpus_wall += wall;
            corpus_scaled += wall * speed;
            runs.extend(chunk_runs);
        }
        out.attempted += docs.len() as u64;
        let cycles = runs.iter().map(|r| r.report.duration_cycles).sum::<u64>() as f64 / 1e6;
        scenarios += docs.len();
        mcycles += cycles;
        if seed == DEFAULT_SEED {
            let counts = class_counts(
                runs.iter()
                    .take(E13_CORPUS)
                    .map(|r| &r.outcome.classification),
            );
            out.check(counts == E13_AT_DEFAULT_SEED, 0, || {
                format!(
                    "seed-42 e13 corpus classified {counts:?}, recorded {E13_AT_DEFAULT_SEED:?}"
                )
            });
        }

        let (mut unverified, mut investigated, mut scaled) = (0, 0.0, 0.0);
        for &index in &E13_BREACHES {
            let ((ok, wall), speed) = speed::scaled(1, || {
                let started = Instant::now();
                let ok = investigate_breach(index, &reference[index]);
                (ok, started.elapsed().as_secs_f64())
            });
            unverified += u64::from(!ok);
            investigated += wall;
            scaled += wall * speed;
        }
        investigate_s.push(investigated);
        investigate_scaled.push(scaled);
        out.attempted += E13_BREACHES.len() as u64;
        out.check(unverified == 0, unverified, || {
            format!("{unverified} e13 breaches no longer breach or failed to verify")
        });
        eprintln!(
            "round {round} seed {seed}: {:.2} Mcycles/s, investigate {investigated:.4} s",
            cycles / round_wall,
        );
    });
    eprintln!(
        "unscaled: devices_per_s {} investigate_s {}",
        scenarios as f64 / corpus_wall,
        median(investigate_s)
    );
    out.metric("setup_s", median(setup), "s");
    out.metric("devices_per_s", scenarios as f64 / corpus_scaled, "1/s");
    out.metric("sim_mcycles_per_s", mcycles / corpus_scaled, "Mcycles/s");
    out.metric("investigate_s", median(investigate_scaled), "s");
    out
}

/// Corpus set-up, then the per-scenario steps each campaign worker takes
/// and the classification `run_corpus` applies, on this thread with a
/// span per call.
fn replay(seed: u64, t: &mut Tracer) -> Vec<(Classification, RunReport)> {
    let generated = t.span("scenario.generate", 0, || {
        generate(seed, &knobs(TRACE_SCENARIOS))
    });
    let mut pool = PlatformPool::new();
    let mut out = Vec::with_capacity(generated.len());
    for (i, doc) in generated.iter().enumerate() {
        let unit = i as u32;
        let text = t.span("scenario.serialize", unit, || serialize(doc));
        let doc = t
            .span("scenario.parse", unit, || parse(&text))
            .expect("serialized scenarios parse");
        let scenario = t
            .span("platform.materialise", unit, || {
                doc.spec().materialise(&catalog::try_build)
            })
            .expect("generated scenarios name catalog attacks");
        let runner = ScenarioRunner::new(doc.config(PROFILE, seed));
        let report = t.span("platform.run_pooled", unit, || {
            runner.run_pooled(&mut pool, scenario)
        });
        let outcome = t.span("scenario.classify", unit, || classify(&doc, &report));
        out.push((outcome.classification, report));
    }
    out
}

pub fn trace(ctx: &Ctx, spans: &mut String) -> Outcome {
    let mut out = Outcome::default();
    let docs = match corpus(ctx.seed, TRACE_SCENARIOS) {
        Ok(docs) => docs,
        Err(e) => {
            out.check(false, 0, || e);
            return out;
        }
    };
    check_round_trip(&mut out, &docs, ctx.seed);
    // the untraced reference: the campaign run `run_corpus` makes, read
    // for its per-job walls
    let mut campaign = Campaign::new(catalog::try_build);
    for doc in &docs {
        campaign.submit(doc.name.clone(), doc.config(PROFILE, ctx.seed), doc.spec());
    }
    let summary = campaign
        .run_parallel(ctx.workers)
        .expect("validated scenarios name catalog attacks");
    out.attempted += docs.len() as u64;

    let mut replayed = Vec::new();
    let (replay, overhead) = traced_and_plain(TRACE_SCENARIOS * 6 + 1, |t| {
        replayed = replay(ctx.seed, t);
    });
    let diverged = summary
        .results
        .iter()
        .zip(&docs)
        .zip(&replayed)
        .filter(|((job, doc), (class, report))| {
            *report != job.report || classify(doc, &job.report).classification != *class
        })
        .count();
    out.check(
        replayed.len() == docs.len() && diverged == 0,
        diverged as u64,
        || format!("{diverged} replayed scenarios differ from the campaign run"),
    );
    replay.write_jsonl("gauntlet", spans);

    let run_pooled = replay.call("platform.run_pooled");
    let cycles: u64 = replayed.iter().map(|(_, r)| r.duration_cycles).sum();
    let mcycles = cycles as f64 / 1e6;
    let busy: f64 = summary.results.iter().map(|r| r.wall.as_secs_f64()).sum();

    let p = |name: &str| format!("gauntlet.{name}");
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
        p("platform.run_pooled.p95_us"),
        run_pooled.percentile_us(95.0),
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
        p("platform.run_pooled.allocs_per_sim_mcycle"),
        run_pooled.allocs_per_op() * run_pooled.count() as f64 / mcycles,
        "count",
    );
    out.metric(
        p("scenario.classify.us_per_op"),
        replay.call("scenario.classify").us_per_op(),
        "us",
    );
    out.metric(
        p("platform.campaign.efficiency"),
        busy / (summary.threads as f64 * summary.total_wall.as_secs_f64()),
        "ratio",
    );
    out.metric(
        p("scenario.generate_ms"),
        replay.call("scenario.generate").total_us() / 1e3,
        "ms",
    );
    out.metric(
        p("scenario.serialize_us_per_op"),
        replay.call("scenario.serialize").us_per_op(),
        "us",
    );
    out.metric(
        p("scenario.parse_us_per_op"),
        replay.call("scenario.parse").us_per_op(),
        "us",
    );
    out.metric(
        p("unattributed_share"),
        replay.unattributed_share(),
        "ratio",
    );
    out.metric(p("tracing_overhead"), overhead, "ratio");
    out
}
