//! End-to-end coverage of the multi-machine grid transport: a supervised
//! run must produce byte-identical results whether workers are local
//! child processes (pipes), remote `serve-worker` agents (TCP), or a mix;
//! a seed-pure flake schedule (`CCS_FLAKY_TRANSPORT`) that drops, tears
//! and duplicates frames must heal through redial + shard-journal resume
//! without changing a byte; a grid whose remotes are all unreachable must
//! degrade to in-process execution with a warning and exit 0; a
//! remote-only run must serve all four grids over one session per agent;
//! and the supervisor must join every reader thread it spawned, on clean
//! shutdown and on worker death alike.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccs_transport_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `utility_risk summary` invocation on the small quick grid, scrubbed
/// of every chaos-drill environment variable.
fn summary_cmd(out: &std::path::Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_utility_risk"));
    cmd.args([
        "summary",
        "--quick",
        "--jobs",
        "25",
        "--quiet",
        "--out",
        out.to_str().unwrap(),
    ]);
    cmd.env_remove("CCS_FAIL_CELL")
        .env_remove("CCS_STALL_CELL")
        .env_remove("CCS_KILL_WORKER")
        .env_remove("CCS_FLAKY_TRANSPORT");
    cmd
}

/// The store's logical content as a deterministic projection (same column
/// set as `integration_supervisor`): everything that must be invariant
/// across transports and flake schedules, sorted by digest.
fn store_projection(out: &std::path::Path) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_utility_risk"));
    cmd.args([
        "query",
        "--store",
        out.join("results_store.json").to_str().unwrap(),
        "--select",
        "econ,set,scenario,value,policy,norm_score,risk_score,events,digest",
        "--sort-by",
        "digest",
    ]);
    let output = cmd.output().expect("spawn utility_risk query");
    assert!(
        output.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("query output is UTF-8")
}

/// Spawns a `serve-worker` agent on an ephemeral port and parses the
/// machine-readable readiness line for the actual address.
fn spawn_agent() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(["serve-worker", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("CCS_FAIL_CELL")
        .env_remove("CCS_STALL_CELL")
        .env_remove("CCS_KILL_WORKER")
        .env_remove("CCS_FLAKY_TRANSPORT")
        .spawn()
        .expect("spawn serve-worker");
    let stdout = child.stdout.take().expect("agent stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read readiness line");
    let addr = line
        .trim()
        .strip_prefix("serve-worker listening ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"))
        .to_string();
    (child, addr)
}

/// Reaps an agent (killing it if the supervisor's Shutdown never landed)
/// and returns its captured stderr.
fn finish_agent(mut child: Child) -> String {
    let _ = child.kill();
    let output = child.wait_with_output().expect("reap serve-worker");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Waits up to `limit` for an agent to exit by itself, killing it past
/// the deadline. Returns its exit code (`None` when it had to be killed or
/// died to a signal) and its captured stderr.
fn await_agent_exit(mut child: Child, limit: Duration) -> (Option<i32>, String) {
    let deadline = Instant::now() + limit;
    let code = loop {
        match child.try_wait().expect("poll serve-worker") {
            Some(status) => break status.code(),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let output = child.wait_with_output().expect("reap serve-worker");
    (code, String::from_utf8_lossy(&output.stderr).into_owned())
}

/// One fleet per run: a remote-only `summary` runs all four grids over
/// the same two TCP sessions. Nothing degrades to in-process, each agent
/// ends its one session on the run's single `Shutdown` and exits 0 by
/// itself, and the results equal the in-process run.
#[test]
fn remote_only_run_serves_every_grid_over_one_session_per_agent() {
    let dir = temp_dir("fleet");
    let out_plain = dir.join("plain");
    let out_tcp = dir.join("tcp");

    let plain = summary_cmd(&out_plain).output().expect("spawn plain run");
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );

    let (agent_a, addr_a) = spawn_agent();
    let (agent_b, addr_b) = spawn_agent();
    let tcp = summary_cmd(&out_tcp)
        .args(["--remote", &addr_a, "--remote", &addr_b])
        .args(["--heartbeat-ms", "60000"])
        .output()
        .expect("spawn remote-only run");
    let agents = [agent_a, agent_b].map(|a| await_agent_exit(a, Duration::from_secs(5)));
    let stderr = String::from_utf8_lossy(&tcp.stderr);
    assert!(
        tcp.status.success(),
        "remote-only run failed: {stderr}\nagents: {agents:?}"
    );
    assert!(
        !stderr.contains("in-process"),
        "no grid may degrade to in-process execution: {stderr}"
    );
    for (code, agent_err) in &agents {
        assert_eq!(
            *code,
            Some(0),
            "each agent must exit 0 on its own within 5 s of the run: {agent_err}"
        );
        assert!(
            !agent_err.contains("awaiting reconnect"),
            "each agent must serve one session, ended by Shutdown: {agent_err}"
        );
    }
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&tcp.stdout),
        "remote-only stdout must match the in-process run"
    );
    assert_eq!(
        store_projection(&out_plain),
        store_projection(&out_tcp),
        "remote-only store projection must match the in-process run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole acceptance: the same grid over pipe workers, a TCP remote,
/// and a mixed local+remote fleet produces byte-identical stdout and
/// byte-identical logical store projections.
#[test]
fn tcp_and_mixed_transports_match_pipe_results() {
    let dir = temp_dir("matrix");
    let out_pipe = dir.join("pipe");
    let out_tcp = dir.join("tcp");
    let out_mixed = dir.join("mixed");

    let pipe = summary_cmd(&out_pipe)
        .args(["--workers", "2", "--heartbeat-ms", "60000"])
        .output()
        .expect("spawn pipe run");
    assert!(
        pipe.status.success(),
        "{}",
        String::from_utf8_lossy(&pipe.stderr)
    );

    let (agent_a, addr_a) = spawn_agent();
    let tcp = summary_cmd(&out_tcp)
        .args(["--remote", &addr_a, "--heartbeat-ms", "60000"])
        .output()
        .expect("spawn tcp run");
    let agent_a_err = finish_agent(agent_a);
    assert!(
        tcp.status.success(),
        "tcp run failed: {}\nagent stderr: {agent_a_err}",
        String::from_utf8_lossy(&tcp.stderr)
    );

    let (agent_b, addr_b) = spawn_agent();
    let mixed = summary_cmd(&out_mixed)
        .args([
            "--workers",
            "1",
            "--remote",
            &addr_b,
            "--heartbeat-ms",
            "60000",
        ])
        .output()
        .expect("spawn mixed run");
    let agent_b_err = finish_agent(agent_b);
    assert!(
        mixed.status.success(),
        "mixed run failed: {}\nagent stderr: {agent_b_err}",
        String::from_utf8_lossy(&mixed.stderr)
    );

    let stdout_pipe = String::from_utf8_lossy(&pipe.stdout).to_string();
    assert_eq!(
        stdout_pipe,
        String::from_utf8_lossy(&tcp.stdout),
        "TCP-remote stdout must match the pipe run"
    );
    assert_eq!(
        stdout_pipe,
        String::from_utf8_lossy(&mixed.stdout),
        "mixed-fleet stdout must match the pipe run"
    );
    let proj = store_projection(&out_pipe);
    assert_eq!(
        proj,
        store_projection(&out_tcp),
        "TCP-remote store projection must match the pipe run"
    );
    assert_eq!(
        proj,
        store_projection(&out_mixed),
        "mixed-fleet store projection must match the pipe run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flake drill: a seed-pure fault schedule tears, drops and duplicates
/// frames on the supervisor↔remote link. Every disconnect must heal
/// through redial + shard-journal resume — the agent logs the dropped
/// sessions — and the merged report stays byte-identical to an
/// undisturbed pipe run, exit 0.
#[test]
fn flaky_tcp_remote_redials_and_resumes_to_identical_results() {
    let dir = temp_dir("flaky");
    let out_clean = dir.join("clean");
    let out_flaky = dir.join("flaky");
    let journal = dir.join("journal.jsonl");

    let clean = summary_cmd(&out_clean)
        .args(["--workers", "2", "--heartbeat-ms", "60000"])
        .output()
        .expect("spawn clean run");
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let (agent, addr) = spawn_agent();
    let flaky = summary_cmd(&out_flaky)
        .args(["--remote", &addr, "--heartbeat-ms", "60000"])
        .args(["--retries", "50", "--backoff-ms", "5"])
        .args(["--resume", journal.to_str().unwrap()])
        .env("CCS_FLAKY_TRANSPORT", "7:10")
        .output()
        .expect("spawn flaky run");
    let agent_err = finish_agent(agent);
    assert_eq!(
        flaky.status.code(),
        Some(0),
        "flaky run must heal to exit 0: {}\nagent stderr: {agent_err}",
        String::from_utf8_lossy(&flaky.stderr)
    );
    // At a 10% flake rate over ~400 frames the schedule is guaranteed to
    // kill the connection at least once; every drop shows up in the agent
    // log as a session that ended short of Shutdown.
    assert!(
        agent_err.contains("awaiting reconnect"),
        "the drill must actually drop and redial at least one session: {agent_err}"
    );
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&flaky.stdout),
        "flake-drill stdout must be byte-identical to the undisturbed run"
    );
    assert_eq!(
        store_projection(&out_clean),
        store_projection(&out_flaky),
        "flake-drill store projection must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degradation: a purely remote grid whose remotes never answer must not
/// fail the sweep — after quarantining every remote the supervisor runs
/// the remaining cells in-process, warns on stderr, and exits 0 with
/// results byte-identical to a plain in-process run.
#[test]
fn dead_remotes_degrade_to_in_process_with_warning() {
    let dir = temp_dir("degrade");
    let out_plain = dir.join("plain");
    let out_degraded = dir.join("degraded");

    let plain = summary_cmd(&out_plain).output().expect("spawn plain run");
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );

    // Bind-then-drop guarantees a port with no listener.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let degraded = summary_cmd(&out_degraded)
        .args(["--remote", &dead_addr, "--heartbeat-ms", "60000"])
        .args(["--retries", "2", "--backoff-ms", "5"])
        .args(["--connect-timeout-ms", "250"])
        .output()
        .expect("spawn degraded run");
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert_eq!(
        degraded.status.code(),
        Some(0),
        "all-remotes-dead must degrade, not fail: {stderr}"
    );
    assert!(
        stderr.contains("in-process"),
        "degradation must warn on stderr (even under --quiet): {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&degraded.stdout),
        "degraded stdout must be byte-identical to the in-process run"
    );
    assert_eq!(
        store_projection(&out_plain),
        store_projection(&out_degraded),
        "degraded store projection must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fallback warnings count what ran in-process: a run planned whole
/// settles each cell once, in whichever grid represents it, so the
/// `running N remaining cell(s) in-process` warnings of a remote-only run
/// whose remote is dead add up to the store's worker-0 rows — every cell.
#[test]
fn fallback_warnings_count_every_cell_that_ran_in_process() {
    let dir = temp_dir("fallback_count");
    let out = dir.join("out");
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let run = summary_cmd(&out)
        .args(["--remote", &dead_addr, "--retries", "1"])
        .args(["--backoff-ms", "5", "--connect-timeout-ms", "250"])
        .output()
        .expect("spawn degraded run");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    let warned: usize = stderr
        .lines()
        .filter_map(|line| line.split("running ").nth(1))
        .filter_map(|rest| rest.strip_suffix(" remaining cell(s) in-process"))
        .map(|n| n.parse::<usize>().unwrap())
        .sum();
    let store = ccs_experiments::ResultStore::load(&out.join("results_store.json")).unwrap();
    let in_process = store.columns.worker.iter().filter(|&&w| w == 0).count();
    assert_eq!(
        in_process, 1560,
        "every cell of the four grids ran in-process"
    );
    assert_eq!(warned, in_process, "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Config validation: malformed transport flags exit 2 with an error
/// naming the offending flag, before any simulation starts.
#[test]
fn invalid_transport_flags_exit_2_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (&["summary", "--remote", "no-port"], "--remote"),
        (&["summary", "--remote", ":9000"], "--remote"),
        (&["summary", "--remote", "host:notaport"], "--remote"),
        (&["summary", "--remote", "host:0"], "--remote"),
        (
            &["summary", "--workers", "1", "--connect-timeout-ms", "0"],
            "--connect-timeout-ms",
        ),
        (
            &["summary", "--connect-timeout-ms", "100"],
            "--connect-timeout-ms",
        ),
        (&["timing", "--remote", "127.0.0.1:9"], "--remote"),
    ];
    for (flags, flag) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
            .args(*flags)
            .args(["--quick", "--quiet"])
            .output()
            .expect("spawn utility_risk");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flags:?} must exit 2: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(flag),
            "{flags:?} error must name {flag}: {stderr}"
        );
    }
}

/// Drop-order regression: after a supervised run returns — cleanly or
/// through a worker killed mid-shard — every per-worker reader thread the
/// supervisor spawned must have been joined, not leaked.
#[test]
fn supervised_run_joins_reader_threads_on_shutdown_and_death() {
    use ccs_economy::EconomicModel;
    use ccs_experiments::grid::{ExperimentConfig, GridControl, GridRun};
    use ccs_experiments::scenario::EstimateSet;
    use ccs_experiments::supervisor::{live_reader_threads, SupervisorConfig};

    let cfg = ExperimentConfig::quick().with_jobs(25);
    let ctl = GridControl {
        supervisor: Some(SupervisorConfig {
            workers: 2,
            heartbeat_ms: 60_000,
            worker_bin: Some(env!("CARGO_BIN_EXE_utility_risk").into()),
            ..SupervisorConfig::default()
        }),
        ..GridControl::default()
    };

    let grid = [(EconomicModel::CommodityMarket, EstimateSet::A)];
    let g = GridRun::new(&cfg)
        .control(&ctl)
        .run(&grid)
        .unwrap()
        .remove(0);
    assert_eq!(
        live_reader_threads(),
        0,
        "clean shutdown must join every reader thread"
    );
    assert_eq!(g.worker_transports, vec!["pipe".to_string(); 2]);

    // Kill drill: worker 1 aborts after three cells; the survivor steals
    // the shard. The dead worker's reader must be joined at death, the
    // survivor's at shutdown.
    std::env::set_var("CCS_KILL_WORKER", "1:3");
    let killed = GridRun::new(&cfg)
        .control(&ctl)
        .run(&grid)
        .unwrap()
        .remove(0);
    std::env::remove_var("CCS_KILL_WORKER");
    assert_eq!(
        live_reader_threads(),
        0,
        "worker death must join the dead worker's reader thread"
    );
    assert!(killed.worker_transports.iter().all(|t| t == "pipe"));
}
