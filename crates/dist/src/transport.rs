//! Shard transports: how a [`ShardManifest`] reaches a worker and how its
//! output streams back.
//!
//! The coordinator is transport-agnostic behind two small traits:
//!
//! * [`ShardTransport`] — opens one worker attempt for a manifest and hands
//!   back a [`WorkerLink`];
//! * [`WorkerLink`] — a line-oriented byte stream (progress JSONL, streamed
//!   [`PointOutcome`](crate::shard::PointOutcome) records, and the final
//!   wire report all travel as lines), plus an [`AbortHandle`] the
//!   coordinator's watchdog can fire from another thread to kill a stalled
//!   attempt.
//!
//! Three production transports and one adversarial one:
//!
//! * closures `Fn(&ShardManifest) -> Result<String, DistError>` — the
//!   in-process test transport (a blanket impl, so every existing closure
//!   runner keeps working);
//! * [`WorkerCommand`] — the process transport: spawn a worker binary,
//!   manifest on stdin, lines from stdout;
//! * [`TcpTransport`] — the cross-machine transport: connect to a
//!   [`serve_shards`] listener, write the manifest, half-close, stream
//!   lines back — hand-rolled on `std::net`, no dependencies;
//! * [`ChaosTransport`] — a deterministic fault injector wrapping any other
//!   transport: seeded worker crashes, stalled streams, truncated reports,
//!   corrupted lines, and dropped connections, for property-testing the
//!   recovery fabric.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ba_sim::SimRng;

use crate::coordinator::DistError;
use crate::shard::ShardManifest;
use crate::wire::{escape, fnv64, Decode, Encode};

/// Fired (possibly from another thread) to abort an in-flight attempt; the
/// link's pending [`WorkerLink::next_line`] must then return promptly.
pub type AbortHandle = Arc<dyn Fn() + Send + Sync>;

/// One worker attempt's output stream.
///
/// Lines are raw bytes (not `String`) because transports can deliver
/// non-UTF8 garbage — a corrupted line must surface to the coordinator as
/// data, not kill the stream.
pub trait WorkerLink: Send {
    /// The next output line, without its trailing newline; `None` at end of
    /// stream.
    ///
    /// # Errors
    ///
    /// A [`DistError`] if the stream breaks mid-read.
    fn next_line(&mut self) -> Result<Option<Vec<u8>>, DistError>;

    /// Completes the attempt after the stream ends: reaps the worker and
    /// reports how it exited.
    ///
    /// # Errors
    ///
    /// A [`DistError`] if the worker failed (non-zero exit, injected crash).
    fn finish(&mut self) -> Result<(), DistError>;

    /// A handle that aborts this attempt from any thread. After it fires,
    /// a blocked [`next_line`](WorkerLink::next_line) must return.
    fn abort_handle(&self) -> AbortHandle;
}

/// Opens worker attempts for shard manifests.
pub trait ShardTransport: Sync {
    /// Starts one attempt at `manifest` and returns its output link.
    ///
    /// # Errors
    ///
    /// A [`DistError`] if the worker cannot be reached at all; the
    /// coordinator counts this as a failed attempt and retries.
    fn open(&self, manifest: &ShardManifest) -> Result<Box<dyn WorkerLink>, DistError>;
}

/// An already-complete output stream, replayed line by line. The link
/// behind the closure transport, and a convenient building block for test
/// transports.
pub struct BufferedLink {
    lines: VecDeque<Vec<u8>>,
}

impl BufferedLink {
    /// A link replaying `text` split into lines.
    pub fn from_text(text: &str) -> Self {
        BufferedLink {
            lines: text.lines().map(|l| l.as_bytes().to_vec()).collect(),
        }
    }

    /// A link replaying raw byte lines (newlines already stripped).
    pub fn from_lines(lines: impl IntoIterator<Item = Vec<u8>>) -> Self {
        BufferedLink {
            lines: lines.into_iter().collect(),
        }
    }
}

impl WorkerLink for BufferedLink {
    fn next_line(&mut self) -> Result<Option<Vec<u8>>, DistError> {
        Ok(self.lines.pop_front())
    }

    fn finish(&mut self) -> Result<(), DistError> {
        Ok(())
    }

    fn abort_handle(&self) -> AbortHandle {
        Arc::new(|| {})
    }
}

/// The in-process transport: any closure producing a worker's full output.
/// Runs eagerly in [`open`](ShardTransport::open) and replays the result,
/// so existing closure-based tests exercise the same streaming path as real
/// transports.
impl<F> ShardTransport for F
where
    F: Fn(&ShardManifest) -> Result<String, DistError> + Sync,
{
    fn open(&self, manifest: &ShardManifest) -> Result<Box<dyn WorkerLink>, DistError> {
        Ok(Box::new(BufferedLink::from_text(&self(manifest)?)))
    }
}

// ---------------------------------------------------------------------------
// Process transport
// ---------------------------------------------------------------------------

/// The process transport: one worker binary invocation per shard attempt,
/// manifest on stdin, lines from stdout.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkerCommand {
    program: PathBuf,
    args: Vec<String>,
    progress: bool,
}

impl WorkerCommand {
    /// A worker launched as `program [args…]`.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        WorkerCommand {
            program: program.into(),
            args: Vec::new(),
            progress: false,
        }
    }

    /// Appends a fixed argument to every invocation.
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Passes `--progress` to the worker, asking it to follow each
    /// streamed `outcome` line with one JSONL progress record for the
    /// observer stream and the `campaign_watch` dashboard.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Does nothing, whatever `stream` is: workers always emit one
    /// checksummed `outcome` record per completed point, which is what
    /// makes point-level recovery possible. Kept so callers written when
    /// streaming was optional still compile.
    pub fn with_stream(self, _stream: bool) -> Self {
        self
    }

    /// The worker program path.
    pub fn program(&self) -> &Path {
        &self.program
    }

    /// Locates the stock `campaign_worker` binary: `$CAMPAIGN_WORKER` if
    /// set, else a `campaign_worker` executable next to the current
    /// executable or in its parent directory (where cargo places workspace
    /// binaries relative to test and example executables).
    ///
    /// # Errors
    ///
    /// [`DistError::WorkerNotFound`] naming every path that was searched,
    /// so a missing build artefact fails loudly instead of surfacing later
    /// as a cryptic spawn error.
    pub fn locate_checked() -> Result<Self, DistError> {
        Self::locate_impl(
            std::env::var_os("CAMPAIGN_WORKER"),
            std::env::current_exe().ok(),
        )
    }

    /// As [`locate_checked`](WorkerCommand::locate_checked), discarding the
    /// diagnostic.
    pub fn locate() -> Option<Self> {
        Self::locate_checked().ok()
    }

    fn locate_impl(
        env_override: Option<std::ffi::OsString>,
        exe: Option<PathBuf>,
    ) -> Result<Self, DistError> {
        if let Some(path) = env_override {
            return Ok(WorkerCommand::new(PathBuf::from(path)));
        }
        let mut searched = vec!["$CAMPAIGN_WORKER (unset)".to_string()];
        let name = format!("campaign_worker{}", std::env::consts::EXE_SUFFIX);
        match exe {
            Some(exe) => {
                let mut dir = exe.parent();
                while let Some(d) = dir {
                    let candidate = d.join(&name);
                    if candidate.is_file() {
                        return Ok(WorkerCommand::new(candidate));
                    }
                    searched.push(candidate.display().to_string());
                    // `target/<profile>/{deps,examples}/…` → `target/<profile>/`.
                    if d.file_name().is_some_and(|n| n == "target") {
                        break;
                    }
                    dir = d.parent();
                }
            }
            None => searched.push("<current executable unresolvable>".to_string()),
        }
        Err(DistError::WorkerNotFound { searched })
    }
}

/// Truncates to at most `max_len` bytes, backing off to the nearest char
/// boundary (a blunt `String::truncate` panics mid-char).
pub(crate) fn truncate_lossy(text: &str, max_len: usize) -> String {
    let mut cut = max_len.min(text.len());
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

struct ProcessLink {
    shard: usize,
    child: Arc<Mutex<Child>>,
    stdout: BufReader<std::process::ChildStdout>,
    stderr_thread: Option<std::thread::JoinHandle<String>>,
    aborted: Arc<AtomicBool>,
}

impl WorkerLink for ProcessLink {
    fn next_line(&mut self) -> Result<Option<Vec<u8>>, DistError> {
        let mut buf = Vec::new();
        match self.stdout.read_until(b'\n', &mut buf) {
            Ok(0) => Ok(None),
            Ok(_) => {
                while buf.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                    buf.pop();
                }
                Ok(Some(buf))
            }
            Err(e) => Err(DistError::Spawn {
                shard: self.shard,
                detail: e.to_string(),
            }),
        }
    }

    fn finish(&mut self) -> Result<(), DistError> {
        let status = {
            let mut child = self.child.lock().unwrap_or_else(|p| p.into_inner());
            child.wait().map_err(|e| DistError::Spawn {
                shard: self.shard,
                detail: e.to_string(),
            })?
        };
        let stderr = self
            .stderr_thread
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default();
        if !status.success() {
            let mut stderr = truncate_lossy(stderr.trim(), 512);
            if self.aborted.load(Ordering::SeqCst) && stderr.is_empty() {
                stderr = "killed by coordinator watchdog".to_string();
            }
            return Err(DistError::WorkerFailed {
                shard: self.shard,
                code: status.code(),
                stderr,
            });
        }
        Ok(())
    }

    fn abort_handle(&self) -> AbortHandle {
        let child = self.child.clone();
        let aborted = self.aborted.clone();
        Arc::new(move || {
            aborted.store(true, Ordering::SeqCst);
            let mut child = child.lock().unwrap_or_else(|p| p.into_inner());
            let _ = child.kill();
        })
    }
}

impl ShardTransport for WorkerCommand {
    fn open(&self, manifest: &ShardManifest) -> Result<Box<dyn WorkerLink>, DistError> {
        let shard = manifest.shard;
        let spawn_err = |e: std::io::Error| DistError::Spawn {
            shard,
            detail: e.to_string(),
        };
        let mut command = Command::new(&self.program);
        command.args(&self.args);
        if self.progress {
            command.arg("--progress");
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(spawn_err)?;

        // Feed the manifest and close stdin so the worker sees EOF.
        let wire = manifest.to_wire();
        if let Err(e) = child
            .stdin
            .take()
            .expect("stdin was piped")
            .write_all(wire.as_bytes())
        {
            let _ = child.kill();
            let _ = child.wait();
            return Err(spawn_err(e));
        }

        // Drain stderr on a helper thread so neither pipe can deadlock
        // while stdout is streamed line by line through the link.
        let mut stderr_pipe = child.stderr.take().expect("stderr was piped");
        let stderr_thread = std::thread::spawn(move || {
            let mut buf = String::new();
            let _ = stderr_pipe.read_to_string(&mut buf);
            buf
        });
        let stdout_pipe = child.stdout.take().expect("stdout was piped");
        Ok(Box::new(ProcessLink {
            shard,
            child: Arc::new(Mutex::new(child)),
            stdout: BufReader::new(stdout_pipe),
            stderr_thread: Some(stderr_thread),
            aborted: Arc::new(AtomicBool::new(false)),
        }))
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// The cross-machine transport: each attempt connects to a worker serving
/// shards over TCP (see [`serve_shards`]), writes the manifest, half-closes
/// the write side (the EOF the stdin convention uses), and streams lines
/// back until the worker closes the connection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpTransport {
    addr: String,
}

impl TcpTransport {
    /// A transport connecting to `addr` (e.g. `"10.0.0.7:9123"`).
    pub fn new(addr: impl Into<String>) -> Self {
        TcpTransport { addr: addr.into() }
    }

    /// The address this transport connects to.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

struct TcpLink {
    shard: usize,
    reader: BufReader<TcpStream>,
    aborter: Arc<TcpStream>,
}

impl WorkerLink for TcpLink {
    fn next_line(&mut self) -> Result<Option<Vec<u8>>, DistError> {
        let mut buf = Vec::new();
        match self.reader.read_until(b'\n', &mut buf) {
            Ok(0) => Ok(None),
            Ok(_) => {
                while buf.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                    buf.pop();
                }
                Ok(Some(buf))
            }
            Err(e) => Err(DistError::Spawn {
                shard: self.shard,
                detail: format!("tcp read: {e}"),
            }),
        }
    }

    fn finish(&mut self) -> Result<(), DistError> {
        // Worker-side failures travel in-band as `worker-error` lines; a
        // clean close is all a healthy connection signals.
        Ok(())
    }

    fn abort_handle(&self) -> AbortHandle {
        let stream = self.aborter.clone();
        Arc::new(move || {
            let _ = stream.shutdown(Shutdown::Both);
        })
    }
}

impl ShardTransport for TcpTransport {
    fn open(&self, manifest: &ShardManifest) -> Result<Box<dyn WorkerLink>, DistError> {
        let shard = manifest.shard;
        let conn_err = |e: std::io::Error| DistError::Spawn {
            shard,
            detail: format!("connect {}: {e}", self.addr),
        };
        let mut stream = TcpStream::connect(&self.addr).map_err(conn_err)?;
        stream
            .write_all(manifest.to_wire().as_bytes())
            .map_err(conn_err)?;
        stream.shutdown(Shutdown::Write).map_err(conn_err)?;
        let aborter = Arc::new(stream.try_clone().map_err(conn_err)?);
        Ok(Box::new(TcpLink {
            shard,
            reader: BufReader::new(stream),
            aborter,
        }))
    }
}

/// Serves shard manifests over TCP: per connection, reads one manifest (to
/// EOF on the client's write side), runs `handler`, and streams the lines
/// it emits back. Handler failures are reported in-band as a
/// `worker-error detail=…` line, which the coordinator turns into a failed
/// attempt.
///
/// Serves `max_conns` connections (`None` = until the listener errors);
/// with `Some(0)` it returns at once, without accepting.
///
/// # Errors
///
/// Propagates listener `accept` errors; per-connection I/O errors only end
/// that connection.
pub fn serve_shards<H>(
    listener: TcpListener,
    max_conns: Option<usize>,
    handler: H,
) -> std::io::Result<()>
where
    H: Fn(&ShardManifest, &mut (dyn FnMut(&str) + Send)) -> Result<(), String>,
{
    for conn in listener.incoming().take(max_conns.unwrap_or(usize::MAX)) {
        let _ = serve_connection(conn?, &handler);
    }
    Ok(())
}

/// Serves one already-accepted connection; see [`serve_shards`].
///
/// # Errors
///
/// Returns the connection's I/O error, if any.
pub fn serve_connection<H>(mut stream: TcpStream, handler: &H) -> std::io::Result<()>
where
    H: Fn(&ShardManifest, &mut (dyn FnMut(&str) + Send)) -> Result<(), String>,
{
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let fail = |stream: &mut TcpStream, detail: &str| {
        let line = format!("worker-error detail={}\n", escape(detail));
        stream.write_all(line.as_bytes())
    };
    let input = match String::from_utf8(raw) {
        Ok(text) => text,
        Err(_) => return fail(&mut stream, "manifest is not valid UTF-8"),
    };
    let manifest = match ShardManifest::from_wire(&input) {
        Ok(manifest) => manifest,
        Err(e) => return fail(&mut stream, &format!("undecodable manifest: {e}")),
    };
    let mut io_result = Ok(());
    {
        let mut emit = |chunk: &str| {
            if io_result.is_ok() {
                io_result = stream.write_all(chunk.as_bytes());
            }
        };
        if let Err(detail) = handler(&manifest, &mut emit) {
            io_result = io_result.and(fail(&mut stream, &detail));
        }
    }
    io_result
}

// ---------------------------------------------------------------------------
// Chaos transport
// ---------------------------------------------------------------------------

/// The fault families [`ChaosTransport`] can inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosFaultKind {
    /// Worker crash after k delivered lines: early EOF plus a failed exit.
    Crash,
    /// Stalled stream: delivery stops mid-shard until the watchdog aborts.
    Stall,
    /// Truncated report: early EOF but a clean exit.
    Truncate,
    /// One line's bytes are garbled (possibly into non-UTF8).
    Corrupt,
    /// The connection drops before the worker is reached.
    Drop,
}

/// All fault kinds, in the order [`ChaosPlan::fault_for`] draws from.
pub const ALL_CHAOS_KINDS: [ChaosFaultKind; 5] = [
    ChaosFaultKind::Crash,
    ChaosFaultKind::Stall,
    ChaosFaultKind::Truncate,
    ChaosFaultKind::Corrupt,
    ChaosFaultKind::Drop,
];

/// The concrete fault injected into one `(shard, attempt)`, drawn
/// deterministically by [`ChaosPlan::fault_for`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosFault {
    /// The attempt runs clean.
    None,
    /// EOF after `after_lines` delivered lines, then a failed exit.
    Crash {
        /// Lines delivered before the crash.
        after_lines: usize,
    },
    /// Delivery blocks after `after_lines` lines until aborted.
    Stall {
        /// Lines delivered before the stall.
        after_lines: usize,
    },
    /// Clean EOF after `after_lines` delivered lines.
    Truncate {
        /// Lines delivered before the truncation.
        after_lines: usize,
    },
    /// The `line`-th delivered line is garbled.
    Corrupt {
        /// Zero-based index of the garbled line.
        line: usize,
    },
    /// [`ShardTransport::open`] fails outright.
    Drop,
}

/// A deterministic chaos schedule: which fault (if any) hits each
/// `(shard, attempt)` pair is a pure function of the plan, so a chaos run
/// is exactly reproducible from its seed and tests can compute the
/// expected retry accounting up front.
#[derive(Clone, PartialEq, Debug)]
pub struct ChaosPlan {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability that any given attempt is faulted.
    pub rate: f64,
    /// After this many attempts at a shard, further attempts run clean
    /// (`None` = never relent). `Some(k)` with enough retries makes every
    /// schedule recoverable; `None` with `rate = 1.0` makes none of them.
    pub relent_after: Option<usize>,
    /// The fault kinds to draw from (empty = all of [`ALL_CHAOS_KINDS`]).
    pub kinds: Vec<ChaosFaultKind>,
}

impl ChaosPlan {
    /// A recoverable plan: 70% fault rate, relenting after 2 attempts per
    /// shard, all fault kinds.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            rate: 0.7,
            relent_after: Some(2),
            kinds: Vec::new(),
        }
    }

    /// An unrecoverable plan: every attempt is faulted, forever — the
    /// schedule that exercises [`PartialSweep`](crate::shard::PartialSweep)
    /// degradation.
    pub fn unrecoverable(seed: u64) -> Self {
        ChaosPlan {
            seed,
            rate: 1.0,
            relent_after: None,
            kinds: Vec::new(),
        }
    }

    /// Sets the per-attempt fault probability.
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Sets when (if ever) a shard's attempts start running clean.
    pub fn relent_after(mut self, attempts: Option<usize>) -> Self {
        self.relent_after = attempts;
        self
    }

    /// Restricts the fault kinds drawn.
    pub fn kinds(mut self, kinds: &[ChaosFaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    /// The fault injected into `attempt` (1-based) at `shard` — a pure
    /// function, so tests can predict the whole schedule.
    pub fn fault_for(&self, shard: usize, attempt: usize) -> ChaosFault {
        if self.relent_after.is_some_and(|k| attempt > k) {
            return ChaosFault::None;
        }
        let mut key = Vec::with_capacity(16);
        key.extend_from_slice(&(shard as u64).to_le_bytes());
        key.extend_from_slice(&(attempt as u64).to_le_bytes());
        let mut rng = SimRng::seed_from_u64(self.seed ^ fnv64(&key));
        if !rng.gen_bool(self.rate) {
            return ChaosFault::None;
        }
        let kinds: &[ChaosFaultKind] = if self.kinds.is_empty() {
            &ALL_CHAOS_KINDS
        } else {
            &self.kinds
        };
        match kinds[rng.gen_index(0, kinds.len())] {
            ChaosFaultKind::Crash => ChaosFault::Crash {
                after_lines: rng.gen_index(0, 6),
            },
            ChaosFaultKind::Stall => ChaosFault::Stall {
                after_lines: rng.gen_index(0, 4),
            },
            ChaosFaultKind::Truncate => ChaosFault::Truncate {
                after_lines: rng.gen_index(0, 4),
            },
            ChaosFaultKind::Corrupt => ChaosFault::Corrupt {
                line: rng.gen_index(0, 6),
            },
            ChaosFaultKind::Drop => ChaosFault::Drop,
        }
    }
}

/// Deterministic fault injection around any inner transport.
///
/// Attempts are numbered per shard in `open` order; the fault for each
/// `(shard, attempt)` comes from [`ChaosPlan::fault_for`]. Faults are
/// injected at the link level, so they exercise exactly the paths real
/// failures take: early EOF + failed exit (crash), a blocked `next_line`
/// until the watchdog aborts (stall), early EOF + clean exit (truncate),
/// garbled possibly-non-UTF8 line bytes (corrupt), and failed `open`
/// (drop).
pub struct ChaosTransport<T> {
    inner: T,
    plan: ChaosPlan,
    attempts: Mutex<BTreeMap<usize, usize>>,
}

impl<T> ChaosTransport<T> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: T, plan: ChaosPlan) -> Self {
        ChaosTransport {
            inner,
            plan,
            attempts: Mutex::new(BTreeMap::new()),
        }
    }

    /// The fault schedule.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// How many attempts have been opened at `shard` so far.
    pub fn attempts_at(&self, shard: usize) -> usize {
        self.attempts
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&shard)
            .copied()
            .unwrap_or(0)
    }
}

/// Garbles a line's bytes deterministically into something that is neither
/// valid UTF-8 nor a decodable wire record, without introducing newlines.
fn garble(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() + 2);
    out.push(0xFF);
    for &b in bytes {
        let g = b ^ 0x5A;
        out.push(if g == b'\n' || g == b'\r' { 0xFE } else { g });
    }
    out.push(0xFF);
    out
}

struct ChaosLink {
    inner: Box<dyn WorkerLink>,
    shard: usize,
    fault: ChaosFault,
    delivered: usize,
    stall: Arc<(Mutex<bool>, Condvar)>,
}

impl ChaosLink {
    fn cut(&mut self) {
        // Stop the real worker behind a simulated crash/truncation so it
        // does not linger writing into a dead pipe.
        (self.inner.abort_handle())();
    }
}

impl WorkerLink for ChaosLink {
    fn next_line(&mut self) -> Result<Option<Vec<u8>>, DistError> {
        match self.fault {
            ChaosFault::Crash { after_lines } | ChaosFault::Truncate { after_lines }
                if self.delivered >= after_lines =>
            {
                self.cut();
                return Ok(None);
            }
            ChaosFault::Stall { after_lines } if self.delivered >= after_lines => {
                let (lock, cond) = &*self.stall;
                let mut aborted = lock.lock().unwrap_or_else(|p| p.into_inner());
                while !*aborted {
                    aborted = cond.wait(aborted).unwrap_or_else(|p| p.into_inner());
                }
                return Err(DistError::Stalled { shard: self.shard });
            }
            _ => {}
        }
        let line = self.inner.next_line()?;
        let line = match (line, self.fault) {
            (Some(bytes), ChaosFault::Corrupt { line }) if self.delivered == line => {
                Some(garble(&bytes))
            }
            (line, _) => line,
        };
        if line.is_some() {
            self.delivered += 1;
        }
        Ok(line)
    }

    fn finish(&mut self) -> Result<(), DistError> {
        match self.fault {
            ChaosFault::Crash { after_lines } if self.delivered >= after_lines => {
                let _ = self.inner.finish();
                Err(DistError::WorkerFailed {
                    shard: self.shard,
                    code: None,
                    stderr: "chaos: injected worker crash".to_string(),
                })
            }
            ChaosFault::Truncate { after_lines } if self.delivered >= after_lines => {
                let _ = self.inner.finish();
                Ok(())
            }
            _ => self.inner.finish(),
        }
    }

    fn abort_handle(&self) -> AbortHandle {
        let stall = self.stall.clone();
        let inner = self.inner.abort_handle();
        Arc::new(move || {
            {
                let (lock, cond) = &*stall;
                let mut aborted = lock.lock().unwrap_or_else(|p| p.into_inner());
                *aborted = true;
                cond.notify_all();
            }
            inner();
        })
    }
}

impl<T: ShardTransport> ShardTransport for ChaosTransport<T> {
    fn open(&self, manifest: &ShardManifest) -> Result<Box<dyn WorkerLink>, DistError> {
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap_or_else(|p| p.into_inner());
            let count = attempts.entry(manifest.shard).or_insert(0);
            *count += 1;
            *count
        };
        let fault = self.plan.fault_for(manifest.shard, attempt);
        if fault == ChaosFault::Drop {
            return Err(DistError::Spawn {
                shard: manifest.shard,
                detail: format!("chaos: connection dropped (attempt {attempt})"),
            });
        }
        let inner = self.inner.open(manifest)?;
        Ok(Box::new(ChaosLink {
            inner,
            shard: manifest.shard,
            fault,
            delivered: 0,
            stall: Arc::new((Mutex::new(false), Condvar::new())),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{plan_shards, SweepSpec};
    use ba_sim::CampaignPoint;

    fn manifest() -> ShardManifest {
        let spec = SweepSpec::scenarios((0..3).map(|i| CampaignPoint::new(4 + i, 1)), "test");
        plan_shards(&spec, 1).remove(0)
    }

    #[test]
    fn serve_shards_with_a_zero_connection_cap_returns_without_accepting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = serve_shards(listener, Some(0), |_, _| {
                panic!("no connection may be served")
            });
            let _ = done.send(result.is_ok());
        });
        let ok = returned
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("serve_shards(Some(0)) blocked on accept");
        assert!(ok);
    }

    #[test]
    fn closure_transport_replays_output_lines() {
        let transport =
            |_: &ShardManifest| -> Result<String, DistError> { Ok("a b=1\nc d=2\n".into()) };
        let mut link = transport.open(&manifest()).unwrap();
        assert_eq!(link.next_line().unwrap(), Some(b"a b=1".to_vec()));
        assert_eq!(link.next_line().unwrap(), Some(b"c d=2".to_vec()));
        assert_eq!(link.next_line().unwrap(), None);
        link.finish().unwrap();
    }

    #[test]
    fn worker_command_locate_failure_names_searched_paths() {
        let err = WorkerCommand::locate_impl(None, Some(PathBuf::from("/nonexistent/deps/t")))
            .unwrap_err();
        match err {
            DistError::WorkerNotFound { ref searched } => {
                assert!(searched[0].contains("CAMPAIGN_WORKER"), "{searched:?}");
                assert!(
                    searched.iter().any(|p| p.contains("/nonexistent/deps")),
                    "{searched:?}"
                );
                assert!(err.to_string().contains("/nonexistent/deps"), "{err}");
            }
            other => panic!("expected WorkerNotFound, got {other:?}"),
        }
    }

    #[test]
    fn worker_command_locate_env_override_wins() {
        let cmd =
            WorkerCommand::locate_impl(Some("custom_worker".into()), None).expect("env override");
        assert_eq!(cmd.program(), Path::new("custom_worker"));
    }

    #[test]
    fn chaos_plan_is_deterministic_and_relents() {
        let plan = ChaosPlan::new(42);
        for shard in 0..4 {
            for attempt in 1..=4 {
                assert_eq!(
                    plan.fault_for(shard, attempt),
                    plan.fault_for(shard, attempt)
                );
            }
            assert_eq!(plan.fault_for(shard, 3), ChaosFault::None);
            assert_eq!(plan.fault_for(shard, 99), ChaosFault::None);
        }
        // Unrecoverable plans never relent and always fault.
        let hostile = ChaosPlan::unrecoverable(7);
        for attempt in 1..=8 {
            assert_ne!(hostile.fault_for(0, attempt), ChaosFault::None);
        }
        // Different seeds disagree somewhere on a modest grid.
        let other = ChaosPlan::new(43);
        let differs = (0..16).any(|s| plan.fault_for(s, 1) != other.fault_for(s, 1));
        assert!(differs, "seeds 42 and 43 produced identical schedules");
    }

    #[test]
    fn chaos_kind_restriction_is_respected() {
        let plan = ChaosPlan::unrecoverable(5).kinds(&[ChaosFaultKind::Drop]);
        for shard in 0..8 {
            for attempt in 1..=4 {
                assert_eq!(plan.fault_for(shard, attempt), ChaosFault::Drop);
            }
        }
    }

    #[test]
    fn chaos_drop_fails_open_and_counts_attempts() {
        let inner = |_: &ShardManifest| -> Result<String, DistError> { Ok(String::new()) };
        let chaos = ChaosTransport::new(
            inner,
            ChaosPlan::unrecoverable(5).kinds(&[ChaosFaultKind::Drop]),
        );
        assert_eq!(chaos.attempts_at(0), 0);
        assert!(chaos.open(&manifest()).is_err());
        assert!(chaos.open(&manifest()).is_err());
        assert_eq!(chaos.attempts_at(0), 2);
    }

    #[test]
    fn chaos_crash_truncates_stream_and_fails_finish() {
        let inner = |_: &ShardManifest| -> Result<String, DistError> {
            Ok("l one=1\nl two=2\nl three=3\n".into())
        };
        let plan = ChaosPlan {
            seed: 0,
            rate: 1.0,
            relent_after: None,
            kinds: vec![ChaosFaultKind::Crash],
        };
        let chaos = ChaosTransport::new(inner, plan);
        let fault = chaos.plan().fault_for(0, 1);
        let ChaosFault::Crash { after_lines } = fault else {
            panic!("expected a crash, got {fault:?}");
        };
        let mut link = chaos.open(&manifest()).unwrap();
        let mut delivered = 0;
        while let Some(_line) = link.next_line().unwrap() {
            delivered += 1;
        }
        assert_eq!(delivered, after_lines.min(3));
        if after_lines <= 3 {
            assert!(matches!(link.finish(), Err(DistError::WorkerFailed { .. })));
        } else {
            link.finish().unwrap();
        }
    }

    #[test]
    fn chaos_corrupt_garbles_exactly_one_line_into_non_utf8() {
        let inner = |_: &ShardManifest| -> Result<String, DistError> {
            Ok("l a=0\nl a=1\nl a=2\nl a=3\nl a=4\nl a=5\n".into())
        };
        let plan = ChaosPlan {
            seed: 3,
            rate: 1.0,
            relent_after: None,
            kinds: vec![ChaosFaultKind::Corrupt],
        };
        let ChaosFault::Corrupt { line } = plan.fault_for(0, 1) else {
            panic!("expected corrupt");
        };
        let chaos = ChaosTransport::new(inner, plan);
        let mut link = chaos.open(&manifest()).unwrap();
        let mut garbled = Vec::new();
        let mut index = 0;
        while let Some(bytes) = link.next_line().unwrap() {
            if std::str::from_utf8(&bytes).is_err() {
                garbled.push(index);
            }
            index += 1;
        }
        assert_eq!(garbled, vec![line]);
        link.finish().unwrap();
    }

    #[test]
    fn chaos_stall_blocks_until_aborted() {
        // Five lines: more than the largest possible stall threshold
        // (after_lines < 4), so the stall always fires before EOF.
        let inner = |_: &ShardManifest| -> Result<String, DistError> {
            Ok("l a=0\nl a=1\nl a=2\nl a=3\nl a=4\n".into())
        };
        let plan = ChaosPlan {
            seed: 1,
            rate: 1.0,
            relent_after: None,
            kinds: vec![ChaosFaultKind::Stall],
        };
        let chaos = ChaosTransport::new(inner, plan);
        let mut link = chaos.open(&manifest()).unwrap();
        let abort = link.abort_handle();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            abort();
        });
        // Drain until the stall point, then the blocked read must return
        // Stalled once the abort fires.
        let err = loop {
            match link.next_line() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("stream ended instead of stalling"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, DistError::Stalled { shard: 0 }));
        t.join().unwrap();
    }

    #[test]
    fn garble_output_is_newline_free_and_marked() {
        let g = garble(b"outcome index=3 sum=aa data=bb");
        assert!(!g.contains(&b'\n'));
        assert!(std::str::from_utf8(&g).is_err());
        assert_ne!(g, b"outcome index=3 sum=aa data=bb".to_vec());
    }

    #[test]
    fn stderr_truncation_respects_char_boundaries() {
        // 600 bytes of 2-byte chars: a blunt truncate(512) would split a
        // char and panic.
        let text = "é".repeat(300);
        let cut = truncate_lossy(&text, 512);
        assert!(cut.len() <= 512);
        assert!(text.starts_with(&cut));
        assert_eq!(truncate_lossy("short", 512), "short");
        assert_eq!(truncate_lossy("", 512), "");
    }
}
