//! `serve_mix`: a closed loop of two client connections against an
//! in-process `eraser-serve` server with one worker.
//!
//! The workload seed draws the job sequence. About 80% of jobs reuse a
//! fixed grid of small cells (d ∈ {3, 5}, p ∈ {1e-3, 2e-3}, ERASER, R = d,
//! 256 shots, one seed per cell), whose decode artifacts the set-up puts in
//! the server's cache. The rest jitter p by a physically negligible amount,
//! as `loadgen` does, so no earlier job shares their physics and each
//! forces a cache insert with DEM, graph and artifact builds. Every
//! streamed frame is validated, and each distinct cell's point must equal
//! an in-process `Experiment` run of the same spec and seed.

use crate::report::Report;
use crate::stats::{call_seed, median, tail, SeedStream};
use crate::RunOptions;
use eraser_core::{DecoderKind, Experiment, LrcProtocol, MemoryRunResult, PolicyKind};
use eraser_json::Value;
use eraser_serve::{Client, JobEvent, JobSpec, ServerConfig, ServerHandle, Submission};
use qec_core::NoiseParams;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The grid of reused cells: `(distance, p)`.
pub const GRID: [(usize, f64); 4] = [(3, 1e-3), (3, 2e-3), (5, 1e-3), (5, 2e-3)];
/// Share of jobs whose physics no earlier job used.
pub const COLD_FRACTION: f64 = 0.2;
/// Shots per job.
pub const SHOTS: u64 = 256;
/// Client connections, one client thread each. Two, so that on a 2-core
/// host the clients and the server's single worker fit the cores.
pub const CONNECTIONS: u64 = 2;
/// Server job-queue depth. Each connection has at most one job in flight,
/// so a `busy` reply means the server misbehaves.
const QUEUE_CAPACITY: usize = 4;
/// Server artifact-cache budget: small enough that the cold inserts of a
/// run evict, so eviction cost is part of the workload.
const CACHE_BYTES: usize = 8 << 20;
/// `busy` replies a job may get before it counts as failed.
const BUSY_RETRIES: u32 = 50;

/// One job of the sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    pub distance: usize,
    pub p: f64,
    pub seed: u64,
    /// Physics no earlier job used (a cache insert).
    pub cold: bool,
}

impl Job {
    /// Job `index` of the sequence drawn from `seed`: a pure function of
    /// the pair, so both connections' sequences are fixed by the seed.
    pub fn draw(seed: u64, index: u64) -> Job {
        let mut s = SeedStream::new(call_seed(seed, index));
        let cold = s.next_f64() < COLD_FRACTION;
        let job = Job::grid(seed, (s.next_u64() % GRID.len() as u64) as usize);
        if !cold {
            return job;
        }
        // A relative jitter below 1e-6 leaves the physics unchanged for
        // every practical purpose but gives the job its own cache key.
        Job {
            p: job.p * (1.0 + 1e-6 * (0.5 + 0.5 * s.next_f64())),
            cold: true,
            ..job
        }
    }

    /// The reused job of grid cell `cell` in a run with `seed`.
    pub fn grid(seed: u64, cell: usize) -> Job {
        let (distance, p) = GRID[cell];
        Job {
            distance,
            p,
            seed: call_seed(seed ^ 0x5E4E, cell as u64),
            cold: false,
        }
    }

    /// The submitted spec, every knob explicit.
    pub fn spec(&self) -> JobSpec {
        JobSpec {
            distances: vec![self.distance],
            error_rates: vec![self.p],
            policies: vec!["eraser".into()],
            rounds: 0,
            cycles: 1,
            shots: SHOTS,
            seed: self.seed,
            basis: "z".into(),
            decoder: "mwpm".into(),
            noise: "standard".into(),
            leakage_aware: false,
            erasure_fp: 0.0,
            erasure_fn: 0.0,
            window: 0,
            stride: 0,
            fusion: 1,
            control: String::new(),
            profile: String::new(),
            predecode: "on".into(),
        }
    }

    /// The same cell built in-process.
    pub fn experiment(&self) -> Experiment {
        Experiment::builder()
            .distance(self.distance)
            .noise(NoiseParams::standard(self.p))
            .cycles(1)
            .policy(PolicyKind::eraser())
            .shots(SHOTS)
            .seed(self.seed)
            .threads(1)
            .decoder(DecoderKind::Mwpm)
            .protocol(LrcProtocol::Swap)
            .decode(true)
            .leakage_aware_decoding(false)
            .erasure_detection(0.0, 0.0)
            .window_rounds(0)
            .window_stride(0)
            .fusion_threads(1)
            .predecode(true)
            .build()
            .expect("serve cell configuration is valid")
    }

    fn key(&self) -> (usize, u64, u64) {
        (self.distance, self.p.to_bits(), self.seed)
    }
}

/// The exactly reproducible fields of a cell result.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    logical_errors: u64,
    total_lrcs: u64,
    total_erasures: u64,
    speculation: [u64; 4],
    tiers: [u64; 3],
    flagged_shots: u64,
    errors_on_kept: u64,
    lpr_bits: Vec<u64>,
}

impl Cell {
    fn of(r: &MemoryRunResult) -> Cell {
        let s = r.speculation;
        Cell {
            logical_errors: r.logical_errors,
            total_lrcs: r.total_lrcs,
            total_erasures: r.total_erasures,
            speculation: [
                s.true_positive,
                s.false_positive,
                s.false_negative,
                s.true_negative,
            ],
            tiers: r.predecode.hits,
            flagged_shots: r.postselection.flagged_shots,
            errors_on_kept: r.postselection.errors_on_kept,
            lpr_bits: r.lpr_total.iter().map(|x| x.to_bits()).collect(),
        }
    }
}

/// Parses and validates a `point` frame for `job` (server job id `id`).
fn parse_point(point: &Value, job: &Job, id: u64) -> Result<Cell, String> {
    let uint = |key: &str| {
        point
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("point lacks integer `{key}`"))
    };
    let expect = |key: &str, want: u64| -> Result<(), String> {
        let got = uint(key)?;
        (got == want)
            .then_some(())
            .ok_or_else(|| format!("point `{key}` is {got}, expected {want}"))
    };
    expect("job", id)?;
    expect("distance", job.distance as u64)?;
    expect("rounds", job.distance as u64)?;
    expect("shots", SHOTS)?;
    let p = point.get("p").and_then(Value::as_f64);
    if p.map(f64::to_bits) != Some(job.p.to_bits()) {
        return Err(format!("point p {p:?} is not the submitted {}", job.p));
    }
    for (key, want) in [("policy", "eraser"), ("decoder", "mwpm")] {
        let got = point.get(key).and_then(Value::as_str);
        if got != Some(want) {
            return Err(format!("point `{key}` is {got:?}, expected {want}"));
        }
    }
    let logical_errors = uint("logical_errors")?;
    let ler = point.get("ler").and_then(Value::as_f64);
    if logical_errors > SHOTS || ler != Some(logical_errors as f64 / SHOTS as f64) {
        return Err(format!(
            "point ler {ler:?} disagrees with {logical_errors} errors"
        ));
    }
    let lpr = point
        .get("lpr_total")
        .and_then(Value::as_array)
        .ok_or("point lacks array `lpr_total`")?;
    let lpr_bits = lpr
        .iter()
        .map(|x| {
            x.as_f64()
                .filter(|x| (0.0..=1.0).contains(x))
                .map(f64::to_bits)
        })
        .collect::<Option<Vec<u64>>>()
        .ok_or("lpr_total holds a value outside [0, 1]")?;
    if lpr_bits.len() != job.distance {
        return Err(format!(
            "lpr_total has {} rounds, expected {}",
            lpr_bits.len(),
            job.distance
        ));
    }
    Ok(Cell {
        logical_errors,
        total_lrcs: uint("total_lrcs")?,
        total_erasures: uint("total_erasures")?,
        speculation: [
            uint("spec_tp")?,
            uint("spec_fp")?,
            uint("spec_fn")?,
            uint("spec_tn")?,
        ],
        tiers: [
            uint("predecode_tier0")?,
            uint("predecode_tier1")?,
            uint("predecode_tier2")?,
        ],
        flagged_shots: uint("flagged_shots")?,
        errors_on_kept: uint("errors_on_kept")?,
        lpr_bits,
    })
}

/// Validates a `done` frame of a one-cell job; returns the server-side
/// run time in ms.
fn parse_done(done: &Value, id: u64) -> Result<f64, String> {
    let uint = |key: &str| done.get(key).and_then(Value::as_u64);
    if uint("job") != Some(id) || uint("cells") != Some(1) || uint("cells_run") != Some(1) {
        return Err(format!("done frame does not close one-cell job {id}"));
    }
    if done.get("completed").and_then(Value::as_bool) != Some(true) {
        return Err(format!("job {id} did not complete"));
    }
    for key in ["cache_hits", "cache_misses"] {
        uint(key).ok_or_else(|| format!("done lacks integer `{key}`"))?;
    }
    uint("micros")
        .map(|us| us as f64 / 1e3)
        .ok_or_else(|| "done lacks integer `micros`".into())
}

/// One served job as the client saw it.
#[derive(Debug)]
struct Served {
    job: Job,
    job_ms: f64,
    accept_ms: f64,
    first_point_ms: f64,
    server_ms: f64,
    busy: u32,
    cell: Cell,
}

/// Submits `job` and streams it to `done`. `Ok(Err(_))` is a failed job
/// on a healthy connection; `Err(_)` means the connection is unusable.
fn serve_one(client: &mut Client, job: &Job) -> std::io::Result<Result<Served, String>> {
    let spec = job.spec();
    let start = Instant::now();
    let mut busy = 0;
    let id = loop {
        match client.submit(&spec)? {
            Submission::Accepted { job: id, cells } => {
                if cells != 1 {
                    return Ok(Err(format!("accepted {cells} cells for a one-cell job")));
                }
                break id;
            }
            Submission::Busy { .. } if busy < BUSY_RETRIES => {
                busy += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            Submission::Busy { .. } => return Ok(Err(format!("still busy after {busy} retries"))),
            Submission::Rejected { message } => return Ok(Err(format!("rejected: {message}"))),
        }
    };
    let accepted = Instant::now();
    let mut first_point = None;
    let mut points = Vec::new();
    let done = loop {
        match client.next_event()? {
            JobEvent::Point(point) => {
                first_point.get_or_insert_with(Instant::now);
                points.push(point);
            }
            JobEvent::Done(done) => break done,
        }
    };
    let finished = Instant::now();
    let checked = (|| {
        let server_ms = parse_done(&done, id)?;
        let [point] = points.as_slice() else {
            return Err(format!("job {id} streamed {} points", points.len()));
        };
        let cell = parse_point(point, job, id)?;
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        Ok(Served {
            job: *job,
            job_ms: ms(start, finished),
            accept_ms: ms(start, accepted),
            first_point_ms: ms(accepted, first_point.unwrap_or(finished)),
            server_ms,
            busy,
            cell,
        })
    })();
    Ok(checked)
}

/// Starts a server, waits for its first `ping` reply, and runs one job of
/// each grid cell so that the timed jobs find their artifacts cached.
fn start_server(seed: u64) -> Result<(ServerHandle, Client), String> {
    let handle = ServerHandle::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: QUEUE_CAPACITY,
        cache_bytes: CACHE_BYTES,
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let pong = client.ping().map_err(|e| format!("ping: {e}"))?;
    if pong.get("type").and_then(Value::as_str) != Some("pong") {
        return Err(format!("ping answered with {pong:?}"));
    }
    for cell in 0..GRID.len() {
        serve_one(&mut client, &Job::grid(seed, cell))
            .map_err(|e| format!("warm-up job: {e}"))?
            .map_err(|e| format!("warm-up job: {e}"))?;
    }
    Ok((handle, client))
}

fn stop_server(handle: ServerHandle, client: Client) {
    drop(client);
    handle.shutdown();
    handle.wait();
}

/// Runs `serve_mix` and fills `report`.
pub fn run(opts: &RunOptions, report: &mut Report) -> Result<(), String> {
    // Set-up: server start, first ping reply, and the cache warm-up.
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..opts.setups {
        if let Some((handle, client)) = server.take() {
            stop_server(handle, client);
        }
        let t0 = Instant::now();
        server = Some(start_server(opts.seed)?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let (handle, mut control) = server.expect("at least one set-up");
    let addr = handle.addr();

    // Closed loop: connection c runs jobs c, c + CONNECTIONS, ... until
    // the time is up, each waiting for its previous job to finish.
    let loop_start = Instant::now();
    let per_connection: Vec<(Vec<Served>, Vec<String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut served = Vec::new();
                    let mut failures = Vec::new();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            failures.push(format!("connection {c}: {e}"));
                            return (served, failures);
                        }
                    };
                    let mut index = c;
                    // At least six jobs per connection, so the tail has
                    // ten samples beyond it.
                    while index < 6 * CONNECTIONS
                        || loop_start.elapsed().as_secs_f64() < opts.seconds
                    {
                        match serve_one(&mut client, &Job::draw(opts.seed, index)) {
                            Ok(Ok(s)) => served.push(s),
                            Ok(Err(msg)) => failures.push(format!("job {index}: {msg}")),
                            Err(e) => {
                                failures.push(format!("job {index}: connection lost: {e}"));
                                break;
                            }
                        }
                        index += CONNECTIONS;
                    }
                    (served, failures)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = loop_start.elapsed().as_secs_f64();
    let peak_rss = crate::host::peak_rss_mb();
    let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
    stop_server(handle, control);

    let mut served = Vec::new();
    for (s, failures) in per_connection {
        report.attempted += (s.len() + failures.len()) as u64;
        served.extend(s);
        for f in failures {
            report.fail(f);
        }
    }

    // Each distinct cell: every served copy equal, and equal to an
    // in-process run of the same spec and seed.
    let mut cells: BTreeMap<(usize, u64, u64), Vec<&Served>> = BTreeMap::new();
    for s in &served {
        cells.entry(s.job.key()).or_default().push(s);
    }
    let mut build_s = Vec::new();
    let mut artifacts_s = Vec::new();
    for copies in cells.values() {
        let job = copies[0].job;
        let t0 = Instant::now();
        let exp = job.experiment();
        let t1 = Instant::now();
        let arts = exp
            .runner()
            .decode_artifacts(exp.config(), None)
            .expect("no ERASER_* override is set");
        build_s.push((t1 - t0).as_secs_f64());
        artifacts_s.push(t1.elapsed().as_secs_f64());
        drop(arts);
        let expected = Cell::of(&exp.run());
        for s in copies {
            if s.cell != expected {
                report.fail(format!(
                    "served cell d={} p={} seed={} differs from the in-process run: \
                     {:?} vs {expected:?}",
                    job.distance, job.p, job.seed, s.cell
                ));
            }
        }
        eraser_core::ArtifactCache::global().clear();
    }

    let job_ms: Vec<f64> = served.iter().map(|s| s.job_ms).collect();
    // Client-side time per shot-round of each job (with queueing).
    let client_sr: Vec<f64> = served
        .iter()
        .map(|s| s.job_ms * 1e6 / (SHOTS as f64 * s.job.distance as f64))
        .collect();
    let shot_rounds: f64 = served
        .iter()
        .map(|s| SHOTS as f64 * s.job.distance as f64)
        .sum();
    let cold = served.iter().filter(|s| s.job.cold).count();
    report.note(format!(
        "{} jobs served ({cold} cold), {} distinct cells checked in-process; \
         client ns/shot-round median {:.1}",
        served.len(),
        cells.len(),
        median(&client_sr)
    ));

    if !opts.trace {
        let (job_tail, pct) = tail(&job_ms);
        // The server's own run time of the jobs, without queueing, over
        // their shot-rounds (a mean, like the Monte-Carlo workloads').
        let server_ms: f64 = served.iter().map(|s| s.server_ms).sum();
        report.set("setup_s", median(&setup));
        report.set("shot_round_ns", server_ms * 1e6 / shot_rounds.max(1.0));
        report.set("jobs_per_s", served.len() as f64 / loop_s);
        report.set("peak_rss_mb", peak_rss);
        report.set("job_ms", median(&job_ms));
        report.set("job_ms_tail", job_tail);
        report.note(format!("job_ms_tail is p{pct:.1}"));
        return Ok(());
    }

    let stat = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(0) as f64;
    let jobs = served.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Cell) -> u64| served.iter().map(|s| f(&s.cell)).sum::<u64>() as f64;
    let scheduled = sum(&|c| c.speculation[0] + c.speculation[1]);
    report.set("surface_code.runner_build_s", median(&build_s));
    report.set("qec_decoder.artifacts_build_s", median(&artifacts_s));
    report.set(
        "eraser_core.lrcs_per_round",
        sum(&|c| c.total_lrcs) / shot_rounds,
    );
    report.set(
        "eraser_core.speculation_precision",
        sum(&|c| c.speculation[0]) / scheduled.max(1.0),
    );
    report.set(
        "eraser_core.erasures_per_shot",
        sum(&|c| c.total_erasures) / (jobs * SHOTS as f64),
    );
    for (t, name) in [
        "qec_decoder.predecode_tier0_hits",
        "qec_decoder.predecode_tier1_hits",
        "qec_decoder.predecode_tier2_hits",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(name, sum(&|c| c.tiers[t]) / jobs);
    }
    report.set("eraser_core.run_shot_round_ns_tail", tail(&client_sr).0);
    let of = |f: fn(&Served) -> f64| median(&served.iter().map(f).collect::<Vec<_>>());
    report.set("eraser_serve.accept_ms", of(|s| s.accept_ms));
    report.set("eraser_serve.first_point_ms", of(|s| s.first_point_ms));
    report.set("eraser_core.cache_hits", stat("cache_hits"));
    report.set("eraser_core.cache_misses", stat("cache_misses"));
    report.set("eraser_core.cache_evictions", stat("cache_evictions"));
    report.set("eraser_core.cache_bytes", stat("cache_bytes"));
    report.set(
        "eraser_serve.busy_rejects",
        served.iter().map(|s| s.busy as f64).sum(),
    );
    // The share of client-side job time outside the server's own run of
    // the job: queueing behind the other connection, framing and loopback.
    report.set(
        "unexplained_pct",
        100.0 * of(|s| (s.job_ms - s.server_ms) / s.job_ms),
    );
    // Layers of the Monte-Carlo split that a served job does not expose,
    // and client timestamps that the untraced run takes as well.
    for name in [
        "leak_sim.sim_shot_round_ns",
        "eraser_core.policy_plan_ns",
        "eraser_core.policy_plan_calls",
        "qec_decoder.decode_shot_round_ns",
        "qec_decoder.erasure_shot_round_ns",
        "qec_decoder.predecode_saved_shot_round_ns",
        "qec_decoder.window_ns_per_round_mean",
        "trace_overhead_pct",
    ] {
        report.set(name, 0.0);
    }
    Ok(())
}
