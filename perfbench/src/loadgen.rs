//! The closed-loop load generator: one thread, one Unix-socket
//! connection, at most `window` requests in flight through
//! [`Client::pipeline`], against a `reclaimd` child process.

use crate::check::Answer;
use crate::workload::{Job, Stream, Workload};
use reclaim_service::client::{Client, ClientError, Pipeline};
use reclaim_service::daemon::Endpoint;
use reclaim_service::proto::{Request, Response, StatsReport};
use std::collections::{HashMap, HashSet};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, arg2: u64, ...) -> i32;
}

/// A running `reclaimd`; killed and reaped on drop if still alive.
pub struct Daemon {
    child: Child,
    /// Connected client.
    pub client: Client,
}

impl Daemon {
    /// Spawn `reclaimd` on a socket in `dir` (and a store in
    /// `dir/store` when `store`), then connect.
    pub fn spawn(bin: &Path, dir: &Path, workers: usize, store: bool) -> Result<Daemon, String> {
        let socket = dir.join("reclaimd.sock");
        let mut cmd = Command::new(bin);
        cmd.arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if store {
            cmd.arg("--store").arg(dir.join("store"));
        }
        // The daemon dies with the load generator, even when the
        // generator is killed before it can shut the daemon down.
        // SAFETY: `prctl` is async-signal-safe and touches no memory.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        match Client::connect_with_retry(&Endpoint::Unix(socket), Duration::from_secs(30)) {
            Ok(client) => Ok(Daemon { child, client }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("connect to reclaimd: {e}"))
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Read `stats`.
    pub fn stats(&mut self) -> Result<StatsReport, String> {
        match self
            .client
            .roundtrip(Request::Stats)
            .map_err(|e| e.to_string())?
            .response
        {
            Response::Stats(s) => Ok(s),
            other => Err(format!("stats answered {other:?}")),
        }
    }

    /// Ask for a clean shutdown and wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.client.roundtrip(Request::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (Err(e), _) => Err(format!("shutdown request failed: {e}")),
                    (_, false) => Err(format!("reclaimd exited with {status}")),
                };
            }
            if Instant::now() >= deadline {
                return Err("reclaimd did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request sent to the daemon.
pub struct Sent {
    /// The job.
    pub job: Job,
    /// When it was sent.
    pub sent: Instant,
    /// When its response arrived.
    pub done: Option<Instant>,
    /// The response, summarized.
    pub answer: Option<Answer>,
}

/// What a phase against the daemon produced.
pub struct Phase {
    /// Every request, in send order.
    pub sent: Vec<Sent>,
    /// Transport failure that ended the phase early, if any.
    pub error: Option<String>,
}

/// Send `jobs` (or, with `until`, jobs drawn from `stream` until the
/// deadline passes) with at most `window` in flight, never two of one
/// patch chain at once.
pub fn run_phase(
    client: &mut Client,
    window: usize,
    jobs: Vec<Job>,
    stream: Option<(&mut Stream, Instant)>,
) -> Phase {
    let mut pipe = client.pipeline(window);
    let mut sent: Vec<Sent> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut busy: HashSet<usize> = HashSet::new();
    let mut error = None;
    let mut fixed = jobs.into_iter();
    let mut stream = stream;
    'send: loop {
        let job = match stream.as_mut() {
            Some((s, until)) => {
                if Instant::now() >= *until {
                    break;
                }
                s.next_job()
            }
            None => match fixed.next() {
                Some(j) => j,
                None => break,
            },
        };
        while pipe.outstanding() >= window || job.chain.is_some_and(|c| busy.contains(&c)) {
            if let Err(e) = receive(&mut pipe, &mut sent, &mut busy, &by_id) {
                error = Some(e.to_string());
                break 'send;
            }
        }
        let request = (*job.request).clone();
        let t = Instant::now();
        match pipe.send(request) {
            Ok(id) => {
                if let Some(c) = job.chain {
                    busy.insert(c);
                }
                by_id.insert(id, sent.len());
                sent.push(Sent {
                    job,
                    sent: t,
                    done: None,
                    answer: None,
                });
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    while error.is_none() && pipe.outstanding() > 0 {
        if let Err(e) = receive(&mut pipe, &mut sent, &mut busy, &by_id) {
            error = Some(e.to_string());
        }
    }
    Phase { sent, error }
}

/// Collect one response and file it under the request it answers.
fn receive(
    pipe: &mut Pipeline<'_>,
    sent: &mut [Sent],
    busy: &mut HashSet<usize>,
    by_id: &HashMap<u64, usize>,
) -> Result<(), ClientError> {
    let resp = pipe.recv()?;
    let now = Instant::now();
    if let Some(&i) = by_id.get(&resp.id) {
        let s = &mut sent[i];
        if s.done.is_none() {
            s.done = Some(now);
            s.answer = Some(Answer::of(&resp.response));
        } else {
            s.answer = Some(Answer::Other(format!("id {} answered twice", resp.id)));
        }
        if let Some(c) = s.job.chain {
            busy.remove(&c);
        }
    }
    Ok(())
}

/// A temporary directory under the checkout, removed on drop.
pub struct RunDir(pub PathBuf);

impl RunDir {
    /// Create `.bench_run/<pid>-<tag>`.
    pub fn new(tag: &str) -> std::io::Result<RunDir> {
        let dir = PathBuf::from(".bench_run").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Whether the workload runs its daemon with `--store`.
pub fn uses_store(wl: Workload) -> bool {
    wl == Workload::EditStream
}
