//! `serve-mix`: one client, one job in flight, against an in-process
//! `serve_unix_socket` daemon with one worker thread.
//!
//! Each client rotates through five job kinds: `read` (an exact pipeline
//! on a shared cached handle), `read-w` (the weighted `suitor` pipeline on
//! the same handle), `miss` (a `gen:` ref synthesized on the worker),
//! `write` (a `delta` on the client's own handle that alternately adds and
//! removes the same edges) and `inline` (`ksmt` on an inline edge list).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsmatch::engine::{parse_gen_spec, serve_unix_socket, Json, ServeOptions, ServeSummary};
use dsmatch::exact::sprank;
use dsmatch::graph::{BipartiteGraph, SplitMix64};

use crate::common::{against_optimum, derive, period_index, Args, Run, OP_PERIOD};
use crate::trace::Tracer;

/// Shared handles: every client's `read` and `read-w` jobs solve them.
pub const SHARED_N: usize = 10_000;
/// Each client's own handles, the targets of its `write` deltas.
pub const CLIENT_N: usize = 20_000;
/// Shared handles, and own handles per client. Each block of jobs uses
/// handle `block mod HANDLES` of each: the medians of `read` and `write`
/// jobs differed by up to 40% and 70% between the instances of ten seeds,
/// and with one instance per seed that difference set the seed's figure.
pub const HANDLES: usize = 4;
/// `miss` jobs synthesize `gen:er:MISS_N:4:<seed>` on the worker.
pub const MISS_N: usize = 20_000;
/// Distinct `miss` seeds, rotated (each job still synthesizes).
pub const MISS_SEEDS: u64 = 8;
/// Rows of the inline edge-list instance.
pub const INLINE_N: usize = 5_000;
/// Edges each `write` delta adds (odd deltas remove them again).
pub const DELTA_EDGES: usize = 32;
/// Client connections, and the daemon's worker threads. With two clients
/// on a shared 2-vCPU host, each connection's reader, worker and writer
/// threads compete for the two CPUs, and the p50 of ten runs spread
/// (q3 - q1) / median 0.26.
pub const CLIENTS: usize = 1;
/// Job kinds, in each client's rotation order.
pub const KINDS: [&str; 5] = ["read", "read-w", "miss", "write", "inline"];

const READ_SPEC: &str = "scale:sk:5,two,auto";
const READ_W_SPEC: &str = "scale:sk:5,suitor";
const MISS_SPEC: &str = "scale:sk:5,two";
const INLINE_SPEC: &str = "ksmt";

const STREAM_SHARED: u64 = 31;
const STREAM_CLIENT: u64 = 32;
const STREAM_MISS: u64 = 33;
const STREAM_INLINE: u64 = 34;
const STREAM_DELTA: u64 = 35;
const STREAM_OPS: u64 = 36;
const STREAM_ORDER: u64 = 37;

/// How long a client waits for one reply before counting the job failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Jobs in one op: one of each kind, sent one after another. Its latency
/// is the sum of the five jobs' latencies. The kinds' latencies differ by
/// up to 5x, and the read kind's depends on the seed's shared instance;
/// a median over single jobs would follow whichever kind is in the middle.
pub const BLOCK: u64 = KINDS.len() as u64;
/// Warm-up jobs per client: one block.
pub const WARMUP: u64 = BLOCK;
/// Jobs per client in each block of the traced run's replay; with the
/// warm-up, a whole number of add/remove delta pairs.
pub const REPLAY: u64 = 45;

fn er_spec(n: usize, seed: u64) -> String {
    format!("er:{n}:4:{seed}")
}

/// Client-side inputs, generated from the seed before set-up.
#[derive(Clone)]
pub struct Inputs {
    pub shared_specs: Vec<String>,
    /// Client `c`'s handle `h` at `c * HANDLES + h`.
    pub client_specs: Vec<String>,
    pub miss_specs: Vec<String>,
    pub inline: BipartiteGraph,
    /// The inline instance as a job-line fragment (`"instance":{…}`).
    inline_fragment: String,
}

impl Inputs {
    pub fn new(seed: u64, clients: usize) -> Inputs {
        let inline =
            dsmatch::gen::erdos_renyi_square(INLINE_N, 3.0, derive(seed, STREAM_INLINE, 0));
        let edges: Vec<String> =
            inline.csr().iter_entries().map(|(i, j)| format!("[{i},{j}]")).collect();
        let inline_fragment = format!(
            "\"instance\":{{\"nrows\":{},\"ncols\":{},\"edges\":[{}]}}",
            inline.nrows(),
            inline.ncols(),
            edges.join(",")
        );
        Inputs {
            shared_specs: (0..HANDLES as u64)
                .map(|h| er_spec(SHARED_N, derive(seed, STREAM_SHARED, h)))
                .collect(),
            client_specs: (0..(clients * HANDLES) as u64)
                .map(|ch| er_spec(CLIENT_N, derive(seed, STREAM_CLIENT, ch)))
                .collect(),
            miss_specs: (0..MISS_SEEDS)
                .map(|k| er_spec(MISS_N, derive(seed, STREAM_MISS, k)))
                .collect(),
            inline,
            inline_fragment,
        }
    }
}

/// Optima and delta edges, computed by the benchmark off the clock.
pub struct Reference {
    pub shared: Vec<BipartiteGraph>,
    pub shared_opt: Vec<usize>,
    /// Per client handle (indexed as `Inputs::client_specs`): the edges its
    /// deltas toggle, the optimum of its stored instance, and the optimum
    /// with the edges added.
    pub deltas: Vec<Vec<(usize, usize)>>,
    pub client_opt: Vec<(usize, usize)>,
    pub client_base: Vec<BipartiteGraph>,
    pub miss_opt: Vec<usize>,
    pub inline_opt: usize,
}

impl Reference {
    pub fn new(seed: u64, inputs: &Inputs) -> Reference {
        let gen = |spec: &str| parse_gen_spec(spec).expect("benchmark gen specs are valid");
        let shared: Vec<_> = inputs.shared_specs.iter().map(|s| gen(s)).collect();
        let mut r = Reference {
            shared_opt: shared.iter().map(sprank).collect(),
            shared,
            deltas: Vec::new(),
            client_opt: Vec::new(),
            client_base: Vec::new(),
            miss_opt: inputs.miss_specs.iter().map(|s| sprank(&gen(s))).collect(),
            inline_opt: sprank(&inputs.inline),
        };
        for (ch, spec) in inputs.client_specs.iter().enumerate() {
            let base = gen(spec);
            let mut rng = SplitMix64::new(derive(seed, STREAM_DELTA, ch as u64));
            let mut edges = Vec::with_capacity(DELTA_EDGES);
            while edges.len() < DELTA_EDGES {
                let i = (rng.next_u64() % base.nrows() as u64) as usize;
                let j = (rng.next_u64() % base.ncols() as u64) as usize;
                if !base.csr().contains(i, j) && !edges.contains(&(i, j)) {
                    edges.push((i, j));
                }
            }
            let added = BipartiteGraph::from_csr(base.csr().patched(&edges, &[]));
            r.client_opt.push((sprank(&base), sprank(&added)));
            r.deltas.push(edges);
            r.client_base.push(base);
        }
        r
    }
}

/// One client connection: send a line, read the reply line.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Connect, retrying while the daemon binds, and consume the `ready`
    /// line.
    fn connect(
        path: &PathBuf,
        daemon: &JoinHandle<std::io::Result<ServeSummary>>,
    ) -> Result<Conn, String> {
        let give_up = Instant::now() + Duration::from_secs(20);
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(e) if daemon.is_finished() || Instant::now() > give_up => {
                    return Err(format!("cannot connect to the daemon: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        // A daemon that stops answering becomes a failed job, not a hang.
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn { reader: BufReader::new(stream), writer };
        let ready = conn.read()?;
        if ready.get("event").and_then(Json::as_str) != Some("ready") {
            return Err(format!("expected the ready line, got {ready}"));
        }
        Ok(conn)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes()).map_err(|e| e.to_string())
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(e.to_string()),
        }
    }

    fn read(&mut self) -> Result<Json, String> {
        let line = self.read_line()?;
        Json::parse(&line).map_err(|e| format!("bad reply line: {e}"))
    }

    /// Send a job line and return the raw reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.read_line()
    }
}

/// The daemon thread and the connection that administers it.
struct Daemon {
    handle: Option<JoinHandle<std::io::Result<ServeSummary>>>,
    admin: Option<Conn>,
}

impl Daemon {
    /// Stop the daemon (drain, then exit) and return its totals. Close
    /// every client connection first. A daemon that does not answer the
    /// shutdown is left detached; the process exit ends it.
    fn stop(&mut self) -> Result<ServeSummary, String> {
        let handle = self.handle.take().ok_or("daemon already stopped")?;
        if let Some(mut admin) = self.admin.take() {
            // Read up to the session's summary line, then hang up: the
            // daemon's reader for this connection ends on our close.
            admin.send("{\"id\":\"stop\",\"op\":\"shutdown\"}")?;
            while admin.read()?.get("event").and_then(Json::as_str) != Some("shutdown") {}
        }
        match handle.join() {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Per-client state carried across runs.
pub struct Client {
    index: usize,
    conn: Conn,
    /// Deltas applied so far to each own handle: even means the handle
    /// holds its stored instance, odd means the delta edges are in.
    writes: [u64; HANDLES],
}

/// Client-observed results of one multi-client run.
pub struct MixRun {
    /// One timed op per block of [`BLOCK`] jobs, with the checks of every
    /// job.
    pub run: Run,
    /// Every timed job's latency and kind.
    pub jobs: Run,
    /// Per successful timed job: client latency minus the reply's
    /// `report.seconds` (the time spent outside the pipeline stages).
    pub outside_stages: Vec<f64>,
    pub rejects: usize,
}

impl MixRun {
    fn new() -> MixRun {
        MixRun { run: Run::new(), jobs: Run::new(), outside_stages: Vec::new(), rejects: 0 }
    }
}

pub struct ServeMix {
    seed: u64,
    inputs: Inputs,
    reference: Option<Reference>,
    /// Declared before `daemon`, so dropping closes them before the
    /// daemon stops.
    clients: Vec<Client>,
    daemon: Daemon,
}

impl ServeMix {
    /// Set-up: bind the daemon, store the shared handles and each client's
    /// own handles, and connect the clients. `inputs` are made beforehand.
    pub fn setup(args: &Args, inputs: Inputs, rep: usize) -> Result<ServeMix, String> {
        let path = PathBuf::from(format!(".dsbench-{}-{rep}.sock", std::process::id()));
        let opts = ServeOptions { threads: CLIENTS, ..ServeOptions::default() };
        let daemon_path = path.clone();
        let handle = std::thread::spawn(move || serve_unix_socket(&daemon_path, &opts));
        let mut admin = Conn::connect(&path, &handle)?;
        let mut stores: Vec<(&str, String)> = inputs
            .shared_specs
            .iter()
            .zip(0..)
            .map(|(s, h)| (s.as_str(), shared_name(h)))
            .collect();
        for (ch, spec) in inputs.client_specs.iter().enumerate() {
            stores.push((spec, own_name(ch / HANDLES, ch % HANDLES)));
        }
        for (k, (spec, name)) in stores.iter().enumerate() {
            admin.send(&format!(
                "{{\"id\":{k},\"pipeline\":\"{READ_SPEC}\",\"instance\":\"gen:{spec}\",\"store\":\"{name}\"}}"
            ))?;
        }
        for _ in 0..stores.len() {
            let reply = admin.read()?;
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("store job failed: {reply}"));
            }
        }
        let mut clients = Vec::with_capacity(CLIENTS);
        for index in 0..CLIENTS {
            let conn = Conn::connect(&path, &handle)?;
            clients.push(Client { index, conn, writes: [0; HANDLES] });
        }
        Ok(ServeMix {
            seed: args.seed,
            inputs,
            reference: None,
            clients,
            daemon: Daemon { handle: Some(handle), admin: Some(admin) },
        })
    }

    /// Compute optima and delta edges (off the clock).
    pub fn reference(&mut self) {
        self.reference = Some(Reference::new(self.seed, &self.inputs));
    }

    pub fn facts(&self) -> Vec<(&'static str, Json)> {
        let r = self.reference.as_ref().expect("reference computed");
        vec![
            ("clients", Json::from(CLIENTS)),
            ("handles", Json::from(HANDLES)),
            ("shared_n", Json::from(SHARED_N)),
            ("shared_nnz", Json::Arr(r.shared.iter().map(|g| Json::from(g.nnz())).collect())),
            ("client_n", Json::from(CLIENT_N)),
            ("miss", Json::from(format!("gen:er:{MISS_N}:4 x {MISS_SEEDS} seeds"))),
            ("inline_n", Json::from(INLINE_N)),
            ("inline_nnz", Json::from(self.inputs.inline.nnz())),
            ("delta_edges", Json::from(DELTA_EDGES)),
        ]
    }

    /// Every client runs `warmup` jobs, then blocks of [`BLOCK`] jobs until
    /// `window` passes (or `count` jobs when `window` is `None`), starting
    /// together, then untimed jobs up to `OP_PERIOD` if the window ended
    /// first. `warmup` and `count` are whole blocks.
    pub fn run(
        &mut self,
        warmup: u64,
        window: Option<Duration>,
        count: u64,
        tr: &Tracer,
    ) -> MixRun {
        let barrier = Barrier::new(self.clients.len());
        let (seed, inputs) = (self.seed, &self.inputs);
        let reference = self.reference.as_ref().expect("reference computed before running");
        let results: Vec<(MixRun, Tracer)> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let barrier = &barrier;
                    let local = tr.child();
                    s.spawn(move || {
                        let job = Job { seed, inputs, reference };
                        let mut mix = MixRun::new();
                        for k in 0..warmup {
                            let (outcome, _) = job.issue(client, k, &local);
                            mix.run.check(k, outcome.map(|(q, _)| q));
                        }
                        barrier.wait();
                        let start = Instant::now();
                        let mut k = warmup;
                        while match window {
                            Some(w) => start.elapsed() < w,
                            None => k < warmup + count,
                        } {
                            let mut block = 0.0;
                            for k in k..k + BLOCK {
                                let (outcome, latency) = job.issue(client, k, &local);
                                block += latency;
                                mix.jobs.time(latency, kind_of(seed, client.index, k));
                                match &outcome {
                                    Ok((_, stage_seconds)) => {
                                        mix.outside_stages.push(latency - stage_seconds)
                                    }
                                    Err(e)
                                        if e.contains("\"code\":\"queue\"")
                                            || e.contains("\"code\":\"busy\"") =>
                                    {
                                        mix.rejects += 1
                                    }
                                    Err(_) => {}
                                }
                                mix.run.check(k, outcome.map(|(q, _)| q));
                            }
                            mix.run.time(block, 0);
                            k += BLOCK;
                        }
                        mix.run.window_s = start.elapsed().as_secs_f64();
                        for k in k..OP_PERIOD {
                            let (outcome, _) = job.issue(client, k, &local);
                            mix.run.check(k, outcome.map(|(q, _)| q));
                        }
                        (mix, local)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
        });
        let mut total = MixRun::new();
        for (mix, local) in results {
            total.run.merge(mix.run);
            total.jobs.merge(mix.jobs);
            total.outside_stages.extend(mix.outside_stages);
            total.rejects += mix.rejects;
            tr.absorb(local);
        }
        total
    }

    /// Close the clients, stop the daemon and return its totals.
    pub fn finish(mut self) -> Result<ServeSummary, String> {
        self.clients.clear();
        self.daemon.stop()
    }
}

/// What a client needs to build and check its jobs.
struct Job<'a> {
    seed: u64,
    inputs: &'a Inputs,
    reference: &'a Reference,
}

/// `(quality, report seconds)` of a checked reply, or why it failed.
type Checked = Result<(f64, f64), String>;

impl Job<'_> {
    /// Send job `k` of `client`, wait for the reply line, then parse and
    /// check it off the clock. Returns the check and the latency.
    fn issue(&self, client: &mut Client, k: u64, tr: &Tracer) -> (Checked, f64) {
        let (kind, line) = self.line(client.index, k, client.writes[handle_of(k)]);
        let t0 = Instant::now();
        let reply = client.conn.call(&line);
        let t1 = Instant::now();
        tr.record(&format!("serve.{}", KINDS[kind]), k, t0, t1);
        let latency = (t1 - t0).as_secs_f64();
        let checked = reply
            .and_then(|line| Json::parse(&line).map_err(|e| format!("bad reply line: {e}")))
            .and_then(|reply| self.check(client, kind, k, &reply));
        (checked, latency)
    }

    /// Job line `k` of client `c`; the own handle of the job's block has
    /// seen `writes` deltas.
    fn line(&self, c: usize, k: u64, writes: u64) -> (usize, String) {
        let kind = kind_of(self.seed, c, k);
        let (h, shared) = (handle_of(k), shared_name(handle_of(k)));
        let seed = derive(self.seed, STREAM_OPS + c as u64, period_index(k));
        let head = format!("{{\"id\":{k},\"seed\":{seed}");
        let line = match KINDS[kind] {
            "read" => format!(
                "{head},\"pipeline\":\"{READ_SPEC}\",\"instance\":{{\"handle\":\"{shared}\"}}}}"
            ),
            "read-w" => format!(
                "{head},\"pipeline\":\"{READ_W_SPEC}\",\"instance\":{{\"handle\":\"{shared}\"}}}}"
            ),
            "miss" => format!(
                "{head},\"pipeline\":\"{MISS_SPEC}\",\"instance\":\"gen:{}\"}}",
                self.inputs.miss_specs[miss_index(k)]
            ),
            "write" => {
                let edges: Vec<String> = (self.reference.deltas[c * HANDLES + h].iter())
                    .map(|(i, j)| format!("[{i},{j}]"))
                    .collect();
                let field = if writes.is_multiple_of(2) { "add" } else { "remove" };
                format!(
                    "{head},\"op\":\"delta\",\"handle\":\"{}\",\"{field}\":[{}]}}",
                    own_name(c, h),
                    edges.join(",")
                )
            }
            _ => format!("{head},\"pipeline\":\"{INLINE_SPEC}\",{}}}", self.inputs.inline_fragment),
        };
        (kind, line)
    }

    fn check(&self, client: &mut Client, kind: usize, k: u64, reply: &Json) -> Checked {
        let what = format!("client {} job {k} ({})", client.index, KINDS[kind]);
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{what}: error reply {reply}"));
        }
        if reply.get("id").and_then(Json::as_u64) != Some(k) {
            return Err(format!("{what}: reply for another job: {reply}"));
        }
        let report = reply.get("report").ok_or_else(|| format!("{what}: no report"))?;
        let card = report
            .get("cardinality")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("{what}: no cardinality"))?;
        let seconds = report.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
        let (r, h) = (self.reference, handle_of(k));
        let quality = match KINDS[kind] {
            "read" => against_optimum(card, r.shared_opt[h], true, &what)?,
            "read-w" => {
                against_optimum(card, r.shared_opt[h], false, &what)?;
                // Weighted jobs are judged by weight, not cardinality.
                1.0
            }
            "miss" => against_optimum(card, r.miss_opt[miss_index(k)], false, &what)?,
            "write" => {
                let (base, added) = r.client_opt[client.index * HANDLES + h];
                client.writes[h] += 1;
                // After an odd number of deltas the edges are in.
                let expected = if client.writes[h] % 2 == 1 { added } else { base };
                against_optimum(card, expected, true, &what)?
            }
            _ => against_optimum(card, r.inline_opt, false, &what)?,
        };
        Ok((quality, seconds))
    }
}

/// The handle index of job `k`'s block (shared and own handles alike).
fn handle_of(k: u64) -> usize {
    (period_index(k) / BLOCK % HANDLES as u64) as usize
}

fn shared_name(h: usize) -> String {
    format!("shared{h}")
}

/// Client `c`'s own handle `h`.
fn own_name(c: usize, h: usize) -> String {
    format!("c{c}h{h}")
}

/// Which `miss` seed job `k` uses: the next one each block of five.
fn miss_index(k: u64) -> usize {
    (period_index(k) / KINDS.len() as u64 % MISS_SEEDS) as usize
}

/// The kind of job `k` of client `c`. Every block of five consecutive
/// jobs holds each kind once, in an order shuffled from the seed, so the
/// clients do not fall into lock-step on the shared handle. The orders
/// repeat with the op seeds' period.
fn kind_of(seed: u64, c: usize, k: u64) -> usize {
    let block = period_index(k) / KINDS.len() as u64;
    let mut order = [0, 1, 2, 3, 4];
    let mut rng = SplitMix64::new(derive(seed, STREAM_ORDER + c as u64, block));
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order[(k % KINDS.len() as u64) as usize]
}

/// One job line of each kind (client 0, stored state), for the JSON-layer
/// probe.
pub fn sample_lines(
    seed: u64,
    inputs: &Inputs,
    reference: &Reference,
) -> Vec<(&'static str, String)> {
    let job = Job { seed, inputs, reference };
    let mut lines: Vec<_> = (0..KINDS.len() as u64).map(|k| job.line(0, k, 0)).collect();
    lines.sort_by_key(|(kind, _)| *kind);
    lines.into_iter().map(|(kind, line)| (KINDS[kind], line)).collect()
}
