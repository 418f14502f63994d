//! Traced pass of the repository benchmark (`perfbench/run.py --trace 1`).
//!
//! Re-runs a `utility_risk all|summary` invocation by calling the public
//! functions of each layer in the order the CLI calls them, and times each
//! call with `Instant`. Nothing inside the program is instrumented: every
//! span wraps a call made from this file. Three subcommands, one process
//! each, each printing one JSON object on stdout:
//!
//! - `pipeline` mirrors the CLI run and reports its top-level spans and the
//!   grids it ran. It also writes the text the CLI would print to
//!   `<out>/stdout.txt`, so the traced pass is checked like the real one.
//! - `probes` times what a pipeline span hides: scenario synthesis, the
//!   TCP worker handshake, the frame codec, the journal, and (for
//!   supervised runs) the in-process grid over the same cells.
//! - `replay` re-simulates the run's cells through `simulate_counted` /
//!   `simulate_faulty_counted`, one timed call per cell, and checks every
//!   result against the run's store.
//!
//! Flags: `--cmd all|summary --jobs N --seed S --threads T --out DIR`, plus
//! `--remote A,B`, `--resume J`, `--bin UTILITY_RISK`,
//! `--store FILE`, `--skip-journal J`, `--inproc-journal J`,
//! `--journal-probe J`.

use ccs_economy::EconomicModel;
use ccs_experiments::figures::{print_figure, write_figure};
use ccs_experiments::grid::{run_grid_with_base_ctl, CellCost};
use ccs_experiments::ipc::{
    encode_frame, read_frame, CellSpec, FromWorker, TcpTransport, ToWorker, Transport,
};
use ccs_experiments::{
    analyze, cell_key, parse_cli_checked, policies_for, progress, report_md, tables,
    telemetry_report, write_atomic, CellRecord, EstimateSet, Evaluation, EvaluationExport,
    ExperimentConfig, GridControl, Journal, RawGrid, ResultStore, Scenario, SupervisorConfig,
};
use ccs_policies::PolicyKind;
use ccs_risk::Objective;
use ccs_simsvc::{simulate_counted, simulate_faulty_counted, FaultConfig, RunConfig};
use ccs_telemetry::profile::ProfileSnapshot;
use ccs_workload::{apply_scenario, Job};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Cursor, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The four grids of a run, in the order `run_evaluation_ctl` runs them,
/// with the tag each grid's spans carry.
const GRIDS: [(EconomicModel, EstimateSet, &str); 4] = [
    (
        EconomicModel::CommodityMarket,
        EstimateSet::A,
        "commodity_A",
    ),
    (
        EconomicModel::CommodityMarket,
        EstimateSet::B,
        "commodity_B",
    ),
    (EconomicModel::BidBased, EstimateSet::A, "bid_A"),
    (EconomicModel::BidBased, EstimateSet::B, "bid_B"),
];

/// TCP handshakes the `probes` subcommand times: one per agent per grid
/// of a two-agent run.
const HANDSHAKES: u64 = 8;

#[derive(Default)]
struct Opts {
    cmd: String,
    jobs: String,
    seed: String,
    threads: String,
    out: String,
    remotes: Vec<String>,
    resume: Option<PathBuf>,
    bin: Option<PathBuf>,
    store: Option<PathBuf>,
    skip_journal: Option<PathBuf>,
    inproc_journal: Option<PathBuf>,
    journal_probe: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            cmd: "summary".into(),
            jobs: "5000".into(),
            seed: "42".into(),
            threads: "0".into(),
            out: "target/figures".into(),
            ..Default::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let v = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?
                .clone();
            match flag.as_str() {
                "--cmd" => o.cmd = v,
                "--jobs" => o.jobs = v,
                "--seed" => o.seed = v,
                "--threads" => o.threads = v,
                "--out" => o.out = v,
                "--remote" => o.remotes = v.split(',').map(String::from).collect(),
                "--resume" => o.resume = Some(v.into()),
                "--bin" => o.bin = Some(v.into()),
                "--store" => o.store = Some(v.into()),
                "--skip-journal" => o.skip_journal = Some(v.into()),
                "--inproc-journal" => o.inproc_journal = Some(v.into()),
                "--journal-probe" => o.journal_probe = Some(v.into()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if o.cmd != "all" && o.cmd != "summary" {
            return Err(format!("--cmd must be all or summary, got {}", o.cmd));
        }
        Ok(o)
    }

    /// The experiment configuration and out dir, parsed by the CLI's own
    /// parser from the flags the timed invocation passes.
    fn config(&self) -> (ExperimentConfig, PathBuf) {
        let args: Vec<String> = [
            "--jobs",
            &self.jobs,
            "--seed",
            &self.seed,
            "--threads",
            &self.threads,
            "--out",
            &self.out,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (cfg, out, _) = parse_cli_checked(&args).unwrap_or_else(|e| fail(&e.to_string()));
        std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(&format!("create out dir: {e}")));
        (cfg, out)
    }

    fn supervised(&self) -> bool {
        !self.remotes.is_empty()
    }

    /// The grid control `utility_risk` builds from the same flags.
    fn grid_control(&self) -> GridControl {
        let supervisor = self.supervised().then(|| SupervisorConfig {
            workers: 0,
            remotes: self.remotes.clone(),
            worker_bin: self.bin.clone(),
            ..SupervisorConfig::default()
        });
        GridControl {
            journal: self.resume.clone(),
            supervisor,
            ..GridControl::default()
        }
    }
}

fn required<'a>(p: &'a Option<PathBuf>, flag: &str) -> &'a Path {
    p.as_deref()
        .unwrap_or_else(|| fail(&format!("this subcommand requires {flag}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-tracer: {msg}");
    std::process::exit(2);
}

/// Named durations, summed per name, in first-seen order.
#[derive(Default)]
struct Spans(Vec<(String, f64)>);

impl Spans {
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let v = f();
        let secs = t0.elapsed().as_secs_f64();
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += secs,
            None => self.0.push((name.to_string(), secs)),
        }
        v
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, s)| format!("{{\"name\":\"{n}\",\"secs\":{}}}", num(*s)))
            .collect();
        format!("[{}]", items.join(","))
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn nums(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| num(*x)).collect();
    format!("[{}]", items.join(","))
}

/// Cell keys of every cell of the run that `journal` already holds — the
/// cells a resumed run serves from the journal instead of simulating.
fn journal_hits(journal: Option<&Path>, cfg: &ExperimentConfig) -> HashSet<String> {
    let mut hits = HashSet::new();
    let Some(path) = journal.filter(|p| p.exists()) else {
        return hits;
    };
    let j = Journal::open(path).unwrap_or_else(|e| fail(&format!("open journal: {e}")));
    for (econ, set, _) in GRIDS {
        for s in 0..Scenario::ALL.len() {
            for v in 0..6 {
                for kind in policies_for(econ) {
                    let key = cell_key(econ, set, cfg, s, v, kind);
                    if j.get(&key).is_some() {
                        hits.insert(key);
                    }
                }
            }
        }
    }
    hits
}

/// One grid as JSON: wall, per-worker busy time, the wall time of every
/// cell it simulated (journal hits excluded) and workload-cache traffic.
fn grid_json(g: &RawGrid, tag: &str, hits: &HashSet<String>, cfg: &ExperimentConfig) -> String {
    let mut secs = Vec::new();
    for (s, per_value) in g.cell_secs.iter().enumerate() {
        for (v, per_policy) in per_value.iter().enumerate() {
            for (p, &t) in per_policy.iter().enumerate() {
                if !hits.contains(&cell_key(g.econ, g.set, cfg, s, v, g.policies[p])) {
                    secs.push(t);
                }
            }
        }
    }
    format!(
        "{{\"name\":\"{tag}\",\"wall_s\":{},\"busy_s\":{},\"cell_secs\":{},\
         \"cache_hits\":{},\"cache_misses\":{}}}",
        num(g.wall_secs),
        nums(&g.worker_busy_secs),
        nums(&secs),
        g.workload_cache_hits,
        g.workload_cache_misses
    )
}

/// The per-policy objective table `utility_risk summary` prints.
fn summary_text(ev: &Evaluation) -> String {
    let mut s = String::new();
    for g in [&ev.commodity_a, &ev.commodity_b, &ev.bid_a, &ev.bid_b] {
        let _ = writeln!(s, "\n== {} / {} ==", g.econ, g.set);
        let _ = write!(s, "{:<12}", "policy");
        for o in Objective::ALL {
            let _ = write!(s, " {:>13}", o.abbrev());
        }
        s.push('\n');
        for name in &g.policy_names {
            let _ = write!(s, "{:<12}", name);
            for o in Objective::ALL {
                let _ = write!(s, " {:>13.3}", g.mean_performance(name, o));
            }
            s.push('\n');
        }
    }
    s
}

/// Mirrors `utility_risk all|summary`: the same calls, in the same order,
/// each wrapped in a top-level span.
fn pipeline(o: &Opts) {
    let (cfg, out) = o.config();
    let ctl = o.grid_control();
    let hits = journal_hits(o.resume.as_deref(), &cfg);
    let mut spans = Spans::default();
    let mut stdout = String::new();
    if o.cmd == "all" {
        spans.time("report.tables", || {
            stdout.push_str(&tables::all_tables());
            stdout.push('\n');
        });
    }
    let mut grids = Vec::new();
    for (econ, set, tag) in GRIDS {
        let base = spans.time("workload.generate", || cfg.trace.generate(cfg.seed));
        let grid = spans.time(&format!("grid.{tag}"), || {
            run_grid_with_base_ctl(econ, set, &cfg, &base, &ctl)
        });
        grids.push(grid);
    }
    let (ca, cb, ba, bb) = spans.time("analysis.separate", || {
        (
            analyze(&grids[0]),
            analyze(&grids[1]),
            analyze(&grids[2]),
            analyze(&grids[3]),
        )
    });
    let ev = Evaluation {
        commodity_a: ca,
        commodity_b: cb,
        bid_a: ba,
        bid_b: bb,
        raw_grids: grids,
    };
    if o.cmd == "all" {
        let figs = spans.time("analysis.integrated", || ev.paper_figures());
        spans.time("report.figures", || {
            for fig in &figs {
                stdout.push_str(&print_figure(fig));
                write_figure(&out, fig).unwrap_or_else(|e| fail(&format!("write figure: {e}")));
            }
        });
        spans.time("report.md", || {
            write_atomic(
                &out.join("report.md"),
                report_md::evaluation_report(&ev).as_bytes(),
            )
            .unwrap_or_else(|e| fail(&format!("write report.md: {e}")))
        });
        spans.time("report.export", || {
            EvaluationExport::from_evaluation(&ev)
                .write(&out.join("evaluation.json"))
                .unwrap_or_else(|e| fail(&format!("write evaluation.json: {e}")))
        });
    } else {
        spans.time("report.summary", || stdout.push_str(&summary_text(&ev)));
    }
    let store = spans.time("store.build", || ResultStore::from_evaluation(&ev, &cfg));
    spans.time("store.save", || {
        store
            .save(&out)
            .unwrap_or_else(|e| fail(&format!("write store: {e}")))
    });
    spans.time("report.slowest", || {
        progress::note_raw(&telemetry_report::slowest_cells_summary(&ev.raw_grids, 5))
    });
    std::fs::write(out.join("stdout.txt"), &stdout)
        .unwrap_or_else(|e| fail(&format!("write stdout.txt: {e}")));
    let grids: Vec<String> = ev
        .raw_grids
        .iter()
        .zip(GRIDS)
        .map(|(g, (_, _, tag))| grid_json(g, tag, &hits, &cfg))
        .collect();
    println!(
        "{{\"spans\":{},\"grids\":[{}],\"cell_errors\":{}}}",
        spans.json(),
        grids.join(","),
        ev.cell_errors().len()
    );
}

fn send(conn: &mut dyn Transport, msg: &ToWorker) {
    let frame = encode_frame(msg).unwrap_or_else(|e| fail(&format!("encode: {e}")));
    conn.send_bytes(&frame)
        .unwrap_or_else(|e| fail(&format!("send to worker: {e}")));
}

/// Sends the run's `Hello` on a fresh link and waits for `Ready`; returns
/// the read half, which must outlive the session.
fn hello_ready(
    conn: &mut dyn Transport,
    cfg: &ExperimentConfig,
    worker_id: u64,
) -> Box<dyn Read + Send> {
    let mut reader = conn
        .take_reader()
        .unwrap_or_else(|| fail("fresh transport has no reader"));
    let sup = SupervisorConfig::default();
    send(
        conn,
        &ToWorker::Hello {
            worker_id,
            seed: cfg.seed,
            nodes: cfg.nodes,
            trace: cfg.trace,
            heartbeat_ms: sup.heartbeat_ms,
            cell_wall_budget: None,
            cell_event_budget: None,
            fail_cell: None,
            stall_cell: None,
            shard_journal: None,
        },
    );
    loop {
        match read_frame::<FromWorker>(&mut reader) {
            Ok(Some(FromWorker::Ready { .. })) => return reader,
            Ok(Some(_)) => continue,
            Ok(None) => fail("worker closed before Ready"),
            Err(e) => fail(&format!("read from worker: {e}")),
        }
    }
}

/// Seconds from dialing a running `serve-worker` agent to its `Ready`, for
/// `HANDSHAKES` sessions against one agent started here (as the run's
/// agents are started before it). Earlier sessions end at EOF, which the
/// agent survives; the last one sends `Shutdown`, which ends the agent.
fn tcp_handshakes(bin: &Path, cfg: &ExperimentConfig) -> Vec<f64> {
    let mut agent = Command::new(bin)
        .args(["serve-worker", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("spawn serve-worker: {e}")));
    let mut line = String::new();
    let stdout = agent.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut line)
        .unwrap_or_else(|e| fail(&format!("read serve-worker address: {e}")));
    let addr = line
        .trim()
        .strip_prefix("serve-worker listening ")
        .unwrap_or_else(|| {
            fail(&format!(
                "serve-worker did not report its address: {line:?}"
            ))
        })
        .to_string();
    let sup = SupervisorConfig::default();
    let secs = (1..=HANDSHAKES)
        .map(|id| {
            let t0 = Instant::now();
            let mut conn = TcpTransport::dial(
                &addr,
                Duration::from_millis(sup.connect_timeout_ms),
                Duration::from_millis(sup.heartbeat_ms),
                None,
            )
            .unwrap_or_else(|e| fail(&format!("dial {addr}: {e}")));
            let reader = hello_ready(&mut conn, cfg, id);
            let secs = t0.elapsed().as_secs_f64();
            if id == HANDSHAKES {
                send(&mut conn, &ToWorker::Shutdown);
            }
            conn.close_writer();
            drop(reader);
            secs
        })
        .collect();
    agent
        .wait()
        .unwrap_or_else(|e| fail(&format!("wait for serve-worker: {e}")));
    secs
}

/// One row of the pipeline's store, addressed as the supervisor addresses
/// a cell.
struct StoreCell {
    spec: CellSpec,
    objectives: [f64; 4],
    sigma: [f64; 4],
    secs: f64,
    events: u64,
    worker: u64,
}

fn store_cells(store: &ResultStore) -> Vec<StoreCell> {
    let c = &store.columns;
    let scenario_idx: HashMap<String, usize> = Scenario::ALL
        .iter()
        .enumerate()
        .map(|(i, s)| (s.label(), i))
        .collect();
    (0..store.len())
        .map(|i| {
            let econ = if c.econ[i] == 0 {
                EconomicModel::CommodityMarket
            } else {
                EconomicModel::BidBased
            };
            let set = if c.set[i] == 0 {
                EstimateSet::A
            } else {
                EstimateSet::B
            };
            let policy_name = &store.policies[c.policy[i] as usize];
            let policy = policies_for(econ)
                .into_iter()
                .find(|p| p.name() == policy_name)
                .unwrap_or_else(|| fail(&format!("unknown policy {policy_name}")));
            StoreCell {
                spec: CellSpec {
                    econ,
                    set,
                    scenario_idx: scenario_idx[&store.scenarios[c.scenario[i] as usize]],
                    value_idx: c.value_idx[i] as usize,
                    policy,
                    key: c.digest[i].clone(),
                },
                objectives: [c.wait[i], c.sla[i], c.reliability[i], c.profitability[i]],
                sigma: [
                    c.sigma_wait[i],
                    c.sigma_sla[i],
                    c.sigma_reliability[i],
                    c.sigma_profitability[i],
                ],
                secs: c.secs[i],
                events: c.events[i],
                worker: c.worker[i],
            }
        })
        .collect()
}

fn probes(o: &Opts) {
    let (cfg, out) = o.config();
    let mut fields: Vec<String> = Vec::new();

    // workload: scenario synthesis over each grid's distinct transforms
    // (the grid memoises by the transform's debug rendering).
    let base = cfg.trace.generate(cfg.seed);
    let mut apply_s = 0.0;
    for (_, set, _) in GRIDS {
        let mut seen = HashSet::new();
        for scenario in Scenario::ALL {
            for value in scenario.values() {
                let t = scenario.transform(set, value);
                if seen.insert(format!("{t:?}")) {
                    let t0 = Instant::now();
                    std::hint::black_box(apply_scenario(&base, &t, cfg.seed));
                    apply_s += t0.elapsed().as_secs_f64();
                }
            }
        }
    }
    fields.push(format!("\"apply_scenario_s\":{}", num(apply_s)));

    // grid: the in-process pool over the same cells at the same
    // parallelism, for comparison with a supervised pipeline.
    if o.supervised() {
        let ctl = GridControl {
            journal: o.inproc_journal.clone(),
            ..GridControl::default()
        };
        let hits = journal_hits(o.inproc_journal.as_deref(), &cfg);
        let grids: Vec<String> = GRIDS
            .iter()
            .map(|&(econ, set, tag)| {
                let base = cfg.trace.generate(cfg.seed);
                let g = run_grid_with_base_ctl(econ, set, &cfg, &base, &ctl);
                grid_json(&g, tag, &hits, &cfg)
            })
            .collect();
        fields.push(format!("\"inproc_grids\":[{}]", grids.join(",")));
    }

    // supervisor: TCP link set-up to Ready.
    if o.supervised() {
        let secs = tcp_handshakes(required(&o.bin, "--bin"), &cfg);
        fields.push(format!("\"handshake_s\":{}", nums(&secs)));
    }

    // ipc + journal over the cells the run simulated.
    let store = ResultStore::load(required(&o.store, "--store")).unwrap_or_else(|e| fail(&e));
    let hits = journal_hits(o.skip_journal.as_deref(), &cfg);
    let simulated: Vec<StoreCell> = store_cells(&store)
        .into_iter()
        .filter(|c| !hits.contains(&c.spec.key))
        .collect();
    if o.supervised() {
        // Cells that crossed a link: worker 0 marks in-process fallback.
        let wired: Vec<&StoreCell> = simulated.iter().filter(|c| c.worker != 0).collect();
        let t0 = Instant::now();
        let mut requests = Vec::new();
        let mut results = Vec::new();
        for c in &wired {
            let run = ToWorker::RunCell {
                cell: c.spec.clone(),
            };
            let ok = FromWorker::CellOk {
                cell: c.spec.clone(),
                objectives: c.objectives,
                secs: c.secs,
                events: c.events,
                cost: CellCost::default(),
                profile: ProfileSnapshot::default(),
            };
            requests.extend(encode_frame(&run).unwrap_or_else(|e| fail(&e.to_string())));
            results.extend(encode_frame(&ok).unwrap_or_else(|e| fail(&e.to_string())));
        }
        let mut frames = 0u64;
        let mut rd = Cursor::new(&requests);
        while read_frame::<ToWorker>(&mut rd)
            .unwrap_or_else(|e| fail(&e.to_string()))
            .is_some()
        {
            frames += 1;
        }
        let mut rd = Cursor::new(&results);
        while read_frame::<FromWorker>(&mut rd)
            .unwrap_or_else(|e| fail(&e.to_string()))
            .is_some()
        {
            frames += 1;
        }
        let codec_s = t0.elapsed().as_secs_f64();
        fields.push(format!(
            "\"ipc_frames\":{frames},\"ipc_bytes\":{},\"ipc_codec_s\":{}",
            requests.len() + results.len(),
            num(codec_s)
        ));
    }
    if let Some(probe) = o.journal_probe.as_deref() {
        let t0 = Instant::now();
        let j = Journal::open(probe).unwrap_or_else(|e| fail(&format!("open journal: {e}")));
        let open_s = t0.elapsed().as_secs_f64();
        let loaded = j.loaded();
        drop(j);
        let append_path = out.join("append_probe.jsonl");
        let _ = std::fs::remove_file(&append_path);
        let j = Journal::open(&append_path).unwrap_or_else(|e| fail(&format!("{e}")));
        let t0 = Instant::now();
        for c in &simulated {
            j.append(&CellRecord {
                key: c.spec.key.clone(),
                scenario_idx: c.spec.scenario_idx,
                value_idx: c.spec.value_idx,
                policy: c.spec.policy.name().to_string(),
                objectives: c.objectives,
                sigma: c.sigma,
                secs: c.secs,
                events: c.events,
                worker: c.worker,
            });
        }
        let append_s = t0.elapsed().as_secs_f64();
        drop(j);
        let bytes = std::fs::metadata(&append_path)
            .map(|m| m.len())
            .unwrap_or(0);
        fields.push(format!(
            "\"journal_open_s\":{},\"journal_loaded\":{loaded},\"journal_append_s\":{},\
             \"journal_bytes\":{bytes}",
            num(open_s),
            num(append_s)
        ));
    }
    println!("{{{}}}", fields.join(","));
}

/// Threads the replay runs cells on: the parallelism of every workload
/// (two grid threads or two agents), so each cell's busy
/// time is taken under the load the run itself puts on the host.
const REPLAY_THREADS: usize = 2;

fn family(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::FcfsBf | PolicyKind::SjfBf | PolicyKind::EdfBf => "backfill",
        PolicyKind::Libra | PolicyKind::LibraDollar | PolicyKind::LibraRiskD => "libra",
        PolicyKind::FirstReward => "first_reward",
    }
}

/// One cell of the replay: its key, policy, workload, faults and family.
struct ReplayCell<'a> {
    key: String,
    kind: PolicyKind,
    jobs: &'a [Job],
    fault: Option<FaultConfig>,
    family: &'static str,
}

fn replay(o: &Opts) {
    let (cfg, _) = o.config();
    let hits = journal_hits(o.skip_journal.as_deref(), &cfg);
    let store = ResultStore::load(required(&o.store, "--store")).unwrap_or_else(|e| fail(&e));
    let expected: HashMap<String, [f64; 4]> = store_cells(&store)
        .into_iter()
        .map(|c| (c.spec.key, c.objectives))
        .collect();
    // family -> (busy seconds, events, cells)
    let mut families: BTreeMap<&str, (f64, u64, u64)> =
        ["backfill", "libra", "first_reward", "faulty"]
            .into_iter()
            .map(|f| (f, (0.0, 0, 0)))
            .collect();
    let mut mismatches = 0u64;
    for (econ, set, _) in GRIDS {
        let base = cfg.trace.generate(cfg.seed);
        let run_cfg = RunConfig {
            nodes: cfg.nodes,
            econ,
        };
        let mut jobs_by_transform: HashMap<String, Vec<Job>> = HashMap::new();
        let mut points = Vec::new();
        for (s, scenario) in Scenario::ALL.iter().enumerate() {
            for (v, value) in scenario.values().into_iter().enumerate() {
                let transform = scenario.transform(set, value);
                let tkey = format!("{transform:?}");
                jobs_by_transform
                    .entry(tkey.clone())
                    .or_insert_with(|| apply_scenario(&base, &transform, cfg.seed));
                points.push((s, v, tkey, scenario.fault(value, cfg.seed)));
            }
        }
        let mut cells = Vec::new();
        for (s, v, tkey, fault) in &points {
            for kind in policies_for(econ) {
                let key = cell_key(econ, set, &cfg, *s, *v, kind);
                if !hits.contains(&key) {
                    cells.push(ReplayCell {
                        key,
                        kind,
                        jobs: &jobs_by_transform[tkey],
                        fault: *fault,
                        family: if fault.is_some() {
                            "faulty"
                        } else {
                            family(kind)
                        },
                    });
                }
            }
        }
        let next = AtomicUsize::new(0);
        let timed: Vec<(&str, f64, u64, bool)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..REPLAY_THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        // Relaxed: the counter only hands out indices.
                        while let Some(c) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let t0 = Instant::now();
                            let (result, events) = match &c.fault {
                                Some(f) => simulate_faulty_counted(c.jobs, c.kind, &run_cfg, f),
                                None => simulate_counted(c.jobs, c.kind, &run_cfg),
                            };
                            let secs = t0.elapsed().as_secs_f64();
                            let same = expected.get(&c.key).is_some_and(|want| {
                                want.iter()
                                    .zip(result.metrics.objectives())
                                    .all(|(a, b)| a.to_bits() == b.to_bits())
                            });
                            out.push((c.family, secs, events, same));
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("replay thread panicked"))
                .collect()
        });
        for (fam, secs, events, same) in timed {
            let acc = families.get_mut(fam).expect("family listed above");
            acc.0 += secs;
            acc.1 += events;
            acc.2 += 1;
            mismatches += u64::from(!same);
        }
    }
    let fams: Vec<String> = families
        .iter()
        .map(|(f, (busy, events, cells))| {
            format!(
                "\"{f}\":{{\"busy_s\":{},\"events\":{events},\"cells\":{cells}}}",
                num(*busy)
            )
        })
        .collect();
    println!(
        "{{\"families\":{{{}}},\"mismatches\":{mismatches}}}",
        fams.join(",")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = args.split_first() else {
        fail("usage: perfbench-tracer pipeline|probes|replay [flags]");
    };
    let opts = Opts::parse(rest).unwrap_or_else(|e| fail(&e));
    match sub.as_str() {
        "pipeline" => pipeline(&opts),
        "probes" => probes(&opts),
        "replay" => replay(&opts),
        other => fail(&format!("unknown subcommand {other}")),
    }
}
