//! Open-loop load generator: one connection per thread, requests sent
//! when due whether or not earlier replies have arrived (pipelined on
//! both wires), replies matched in order. One thread both sends and
//! reads, waiting in `ppoll(2)` for whichever comes first: the next due
//! time or reply bytes.

use crate::stats::Sample;
use hos_core::QuerySpec;
use hos_serve::codec::{self, op};
use hos_serve::json::fmt_f64_roundtrip;
use hos_serve::{ApiRequest, Json};
use std::collections::VecDeque;
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Which wire a connection speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    Json,
    Bin,
}

/// What one scheduled operation does.
#[derive(Clone, Debug)]
pub enum Action {
    ReadId(usize),
    ReadPoint(Vec<f64>),
    /// Retire the oldest row this connection inserted and had
    /// acknowledged; insert `row` instead while there is none.
    Write {
        row: Vec<f64>,
        prefer_retire: bool,
    },
}

/// One scheduled operation.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Seconds from the start of the pass.
    pub due: f64,
    pub action: Action,
}

/// A write the server applied, with the version it produced.
#[derive(Clone, Debug)]
pub enum Applied {
    Insert(Vec<f64>),
    Retire(usize),
}

/// One finished operation.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub sample: Sample,
    pub write: bool,
    /// For applied writes: `(version, op)`.
    pub applied: Option<(u64, Applied)>,
}

/// Which request an action became once its write choice was made.
pub fn request_for(action: &Action, pool: &mut VecDeque<usize>) -> ApiRequest {
    match action {
        Action::ReadId(id) => ApiRequest::Query(vec![QuerySpec::Member(*id)]),
        Action::ReadPoint(p) => ApiRequest::Query(vec![QuerySpec::Point(p.clone())]),
        Action::Write { row, prefer_retire } => match pool.front() {
            Some(_) if *prefer_retire => {
                ApiRequest::Retire(pool.pop_front().expect("pool is non-empty"))
            }
            _ => ApiRequest::Insert(row.clone()),
        },
    }
}

fn push_row(out: &mut String, row: &[f64]) {
    out.push('[');
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64_roundtrip(*v));
    }
    out.push(']');
}

/// The HTTP/JSON form of a request: `(path, body)`.
pub fn json_request(req: &ApiRequest) -> (&'static str, String) {
    let mut body = String::with_capacity(128);
    let path = match req {
        ApiRequest::Query(specs) => {
            match &specs[0] {
                QuerySpec::Member(id) => body.push_str(&format!("{{\"id\":{id}}}")),
                QuerySpec::Point(p) => {
                    body.push_str("{\"point\":");
                    push_row(&mut body, p);
                    body.push('}');
                }
            }
            "/query"
        }
        ApiRequest::Insert(row) => {
            body.push_str("{\"row\":");
            push_row(&mut body, row);
            body.push('}');
            "/insert"
        }
        ApiRequest::Retire(id) => {
            body.push_str(&format!("{{\"id\":{id}}}"));
            "/retire"
        }
        other => unreachable!("the load never sends {other:?}"),
    };
    (path, body)
}

/// Checks a decoded 200 reply; returns `(ok, version, inserted id)`.
pub fn check_reply(req: &ApiRequest, json: &Json) -> (bool, u64, Option<usize>) {
    let version = json.get("version").and_then(Json::as_usize);
    let ok = match req {
        ApiRequest::Query(specs) => json
            .get("results")
            .and_then(Json::as_array)
            .is_some_and(|r| r.len() == specs.len() && r.iter().all(|x| x.get("error").is_none())),
        ApiRequest::Insert(_) => json.get("id").and_then(Json::as_usize).is_some(),
        _ => true,
    };
    let id = match req {
        ApiRequest::Insert(_) => json.get("id").and_then(Json::as_usize),
        _ => None,
    };
    (ok && version.is_some(), version.unwrap_or(0) as u64, id)
}

/// The write a successful reply applied, with its version.
pub fn applied(req: &ApiRequest, ok: bool, version: u64) -> Option<(u64, Applied)> {
    match (req, ok) {
        (ApiRequest::Insert(row), true) => Some((version, Applied::Insert(row.clone()))),
        (ApiRequest::Retire(id), true) => Some((version, Applied::Retire(*id))),
        _ => None,
    }
}

/// The recorded request bodies of a traced pass (for codec replay).
#[derive(Default)]
pub struct Bodies {
    pub json: Vec<String>,
    pub bin: Vec<(u8, Vec<u8>)>,
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

/// Waits until `stream` is readable (or writable, when `want_write`)
/// or `timeout` passes, with nanosecond timeout resolution.
fn wait(stream: &TcpStream, want_write: bool, timeout: Duration) -> io::Result<()> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out (#[repr(C)])
    // locals for the whole call, `nfds` is 1 to match the single
    // entry, and a null sigmask leaves the signal mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// A complete reply parsed off the front of `buf`: `(status, body
/// range, bytes used)` for HTTP, `(opcode, body range, bytes used)`
/// for hosbin.
fn next_reply(wire: Wire, buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    match wire {
        Wire::Json => {
            let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
            let head = std::str::from_utf8(&buf[..head_end]).ok()?;
            let status: u16 = head.get(9..12)?.parse().ok()?;
            let len: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .unwrap_or(0);
            (buf.len() >= head_end + len).then_some((
                status,
                head_end..head_end + len,
                head_end + len,
            ))
        }
        Wire::Bin => {
            let len = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?) as usize;
            (len >= 1 && buf.len() >= 4 + len).then(|| (u16::from(buf[4]), 5..4 + len, 4 + len))
        }
    }
}

/// Decodes one reply; returns `(ok, version, inserted id)`. Every 200
/// reply must decode.
fn decode(wire: Wire, req: &ApiRequest, code: u16, body: &[u8]) -> (bool, u64, Option<usize>) {
    let json = match wire {
        Wire::Json if code == 200 => std::str::from_utf8(body)
            .ok()
            .and_then(|t| Json::parse(t).ok()),
        Wire::Bin if code as u8 != op::ERROR => codec::bin_reply_to_json(code as u8, body)
            .ok()
            .filter(|(status, _)| *status == 200)
            .map(|(_, j)| j),
        _ => return (false, 0, None),
    };
    match json {
        Some(j) => check_reply(req, &j),
        None => (false, 0, None),
    }
}

/// Gives up on a connection that has produced no reply for this long.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Runs one connection's schedule against `addr`; `t0` is the pass's
/// time origin. With `bodies`, every request body is also recorded.
pub fn drive(
    addr: SocketAddr,
    wire: Wire,
    plan: &[Planned],
    t0: Instant,
    mut bodies: Option<&mut Bodies>,
) -> io::Result<Vec<Outcome>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    if wire == Wire::Bin {
        stream.write_all(&tinyhttp::bin::MAGIC)?;
    }
    stream.set_nonblocking(true)?;

    let mut pool: VecDeque<usize> = VecDeque::new();
    let mut inflight: VecDeque<(usize, ApiRequest, f64)> = VecDeque::new();
    let mut out: Vec<Outcome> = Vec::with_capacity(plan.len());
    let (mut wbuf, mut wpos) = (Vec::<u8>::with_capacity(1 << 16), 0usize);
    let mut rbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut scratch = Vec::with_capacity(256);
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    let now_s = || t0.elapsed().as_secs_f64();

    while next < plan.len() || !inflight.is_empty() {
        // Send everything that is due.
        let now = now_s();
        while next < plan.len() && plan[next].due <= now {
            let req = request_for(&plan[next].action, &mut pool);
            match wire {
                Wire::Json => {
                    let (path, body) = json_request(&req);
                    write!(
                        wbuf,
                        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )?;
                    if let Some(b) = bodies.as_deref_mut() {
                        b.json.push(body);
                    }
                }
                Wire::Bin => {
                    let opcode = codec::encode_bin_request(&req, &mut scratch);
                    wbuf.extend_from_slice(&((scratch.len() + 1) as u32).to_le_bytes());
                    wbuf.push(opcode);
                    wbuf.extend_from_slice(&scratch);
                    if let Some(b) = bodies.as_deref_mut() {
                        b.bin.push((opcode, scratch.clone()));
                    }
                }
            }
            inflight.push_back((next, req, now));
            next += 1;
        }
        // Flush what the socket takes.
        while wpos < wbuf.len() {
            match stream.write(&wbuf[wpos..]) {
                Ok(n) => wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if wpos == wbuf.len() {
            wbuf.clear();
            wpos = 0;
        }
        // Read and match whatever replies have arrived.
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    if inflight.is_empty() {
                        break;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut used = 0;
        while let Some((code, body, len)) = next_reply(wire, &rbuf[used..]) {
            let done = now_s();
            let (idx, req, sent) = inflight
                .pop_front()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unrequested reply"))?;
            let body = &rbuf[used + body.start..used + body.end];
            let (ok, version, id) = decode(wire, &req, code, body);
            if let Some(id) = id {
                pool.push_back(id);
            }
            out.push(Outcome {
                sample: Sample {
                    due: plan[idx].due,
                    sent,
                    done,
                    ok,
                },
                write: matches!(plan[idx].action, Action::Write { .. }),
                applied: applied(&req, ok, version),
            });
            used += len;
            last_progress = Instant::now();
        }
        rbuf.drain(..used);
        if next >= plan.len() && inflight.is_empty() {
            break;
        }
        if last_progress.elapsed() > STALL_LIMIT && !inflight.is_empty() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply for 30 s"));
        }
        let until_due = plan.get(next).map_or(Duration::from_millis(50), |p| {
            Duration::from_secs_f64((p.due - now_s()).max(0.0))
        });
        if !until_due.is_zero() {
            wait(
                &stream,
                wpos < wbuf.len(),
                until_due.min(Duration::from_millis(50)),
            )?;
        }
    }
    Ok(out)
}
