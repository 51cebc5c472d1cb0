//! The line-protocol control socket: live operations without a restart.
//!
//! One command per line, one reply line per command (`OK …` or `ERR …`):
//!
//! ```text
//! PING
//! QUERIES
//! STATS
//! DEPLOY [TENANT <n>] <MATCH_RECOGNIZE query text on one line>
//! RETIRE <query-id>
//! QUOTA <tenant> [WEIGHT <w>] [MAX_VERSIONS <v>] [MAX_QUERIES <q>]
//! DRAIN
//! ```
//!
//! Engine-touching commands are forwarded to the feed thread (the
//! engine's single owner) and answered with its reply. `DRAIN` starts the
//! graceful shutdown: stop accepting, let open connections finish (up to
//! the grace period), end-of-stream the engine, flush the final report.
//!
//! A command line holds at most [`MAX_LINE`] bytes (64 KiB) before its
//! newline. A longer one is answered `ERR line too long` and its
//! connection is closed, so a peer that never sends a newline cannot grow
//! the server's line buffer past that bound.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use spectre_core::TenantQuota;

use crate::feed::{ControlCmd, Msg};
use crate::ServerShared;

/// Serves control connections until the server stops. Each connection is
/// handled on its own thread (an idle admin session must not block the
/// next one).
pub(crate) fn control_loop(listener: TcpListener, shared: Arc<ServerShared>, tx: SyncSender<Msg>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stopping.load(Ordering::Acquire) {
                    break;
                }
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::spawn(move || serve_control_conn(stream, &shared, &tx));
            }
            Err(_) => {
                if shared.stopping.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    }
}

/// The longest command line accepted, in bytes, newline excluded.
const MAX_LINE: usize = 64 * 1024;

fn serve_control_conn(stream: TcpStream, shared: &Arc<ServerShared>, tx: &SyncSender<Msg>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an overlong line from one that fits.
        let cap = MAX_LINE as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        if line.len() > MAX_LINE {
            let _ = writer.write_all(b"ERR line too long\n");
            return;
        }
        let Ok(line) = std::str::from_utf8(line) else {
            return;
        };
        let reply = handle_line(line.trim(), shared, tx);
        if writer.write_all(reply.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            return;
        }
    }
}

fn handle_line(line: &str, shared: &Arc<ServerShared>, tx: &SyncSender<Msg>) -> String {
    match parse_line(line) {
        Ok(Command::Ping) => "OK pong".into(),
        Ok(Command::Drain) => {
            crate::initiate_drain(shared, tx);
            "OK draining".into()
        }
        Ok(Command::Engine(cmd)) => roundtrip(tx, cmd),
        Err(msg) => format!("ERR {msg}"),
    }
}

/// A parsed command line: answered by the control thread, or forwarded to
/// the feed thread.
enum Command {
    Ping,
    Drain,
    Engine(ControlCmd),
}

/// Splits a trimmed line into its verb and arguments and parses them; the
/// error is the reply's text after `ERR `.
fn parse_line(line: &str) -> Result<Command, String> {
    if line.is_empty() {
        return Err("empty command".into());
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let cmd = match verb.to_ascii_uppercase().as_str() {
        "PING" => return Ok(Command::Ping),
        "DRAIN" => return Ok(Command::Drain),
        "QUERIES" => ControlCmd::Queries,
        "STATS" => ControlCmd::Stats,
        "DEPLOY" => parse_deploy(rest)?,
        "RETIRE" => match rest.parse::<u32>() {
            Ok(qid) => ControlCmd::Retire { qid },
            Err(_) => return Err("usage: RETIRE <query-id>".into()),
        },
        "QUOTA" => parse_quota(rest)?,
        other => return Err(format!("unknown command {other}")),
    };
    Ok(Command::Engine(cmd))
}

fn parse_deploy(rest: &str) -> Result<ControlCmd, String> {
    let (tenant, text) = match rest
        .strip_prefix("TENANT ")
        .or_else(|| rest.strip_prefix("tenant "))
    {
        Some(after) => {
            let (id, text) = after
                .split_once(char::is_whitespace)
                .ok_or("usage: DEPLOY [TENANT <n>] <query text>")?;
            let tenant: u32 = id.parse().map_err(|_| format!("bad tenant id {id:?}"))?;
            (tenant, text.trim())
        }
        None => (0, rest),
    };
    if text.is_empty() {
        return Err("usage: DEPLOY [TENANT <n>] <query text>".into());
    }
    Ok(ControlCmd::Deploy {
        tenant,
        text: text.to_string(),
    })
}

fn parse_quota(rest: &str) -> Result<ControlCmd, String> {
    let mut tokens = rest.split_whitespace();
    let tenant: u32 = tokens
        .next()
        .ok_or("usage: QUOTA <tenant> [WEIGHT <w>] [MAX_VERSIONS <v>] [MAX_QUERIES <q>]")?
        .parse()
        .map_err(|_| "bad tenant id".to_string())?;
    let mut quota = TenantQuota::default();
    while let Some(key) = tokens.next() {
        let value = tokens
            .next()
            .ok_or_else(|| format!("missing value for {key}"))?;
        match key.to_ascii_uppercase().as_str() {
            "WEIGHT" => {
                quota =
                    quota.with_weight(value.parse().map_err(|_| format!("bad weight {value:?}"))?);
            }
            "MAX_VERSIONS" => {
                quota = quota.with_max_versions(
                    value
                        .parse()
                        .map_err(|_| format!("bad max_versions {value:?}"))?,
                );
            }
            "MAX_QUERIES" => {
                quota = quota.with_max_queries(
                    value
                        .parse()
                        .map_err(|_| format!("bad max_queries {value:?}"))?,
                );
            }
            other => return Err(format!("unknown quota field {other}")),
        }
    }
    Ok(ControlCmd::Quota { tenant, quota })
}

/// Sends a command to the feed thread and waits (bounded) for its reply.
fn roundtrip(tx: &SyncSender<Msg>, cmd: ControlCmd) -> String {
    let (reply_tx, reply_rx) = channel();
    if tx
        .send(Msg::Control {
            cmd,
            reply: reply_tx,
        })
        .is_err()
    {
        return "ERR server is shut down".into();
    }
    match reply_rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Ok(msg)) => format!("OK {msg}"),
        Ok(Err(e)) => format!("ERR {e}"),
        Err(_) => "ERR control reply timed out".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_events::Schema;
    use spectre_query::parse_query;

    #[test]
    fn deploy_and_quota_lines_parse() {
        match parse_deploy("TENANT 3 PATTERN (A) DEFINE A AS (TRUE)").unwrap() {
            ControlCmd::Deploy { tenant, text } => {
                assert_eq!(tenant, 3);
                assert!(text.starts_with("PATTERN"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_deploy("PATTERN (A) DEFINE A AS (TRUE)").unwrap() {
            ControlCmd::Deploy { tenant, .. } => assert_eq!(tenant, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_deploy("").is_err());
        match parse_quota("5 WEIGHT 4 MAX_QUERIES 2").unwrap() {
            ControlCmd::Quota { tenant, quota } => {
                assert_eq!(tenant, 5);
                assert_eq!(quota.weight, 4);
                assert_eq!(quota.max_queries, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_quota("5 WEIGHT").is_err());
        assert!(parse_quota("5 COLOR red").is_err());
    }

    /// The parser tests' queries and control lines the fuzz mutates.
    const SEEDS: [&str; 8] = [
        "PATTERN (MLE RE1 RE2) DEFINE MLE AS (MLE.closePrice > MLE.openPrice AND \
         MLE.leading == 1), RE1 AS (RE1.closePrice > RE1.openPrice), \
         RE2 AS (RE2.closePrice > RE2.openPrice) WITHIN 8000 EVENTS FROM MLE \
         CONSUME (MLE RE1 RE2)",
        "PATTERN (A B+ C) DEFINE A AS (A.closePrice < 10), \
         B AS (B.closePrice >= 10 AND B.closePrice <= 20), C AS (C.closePrice > 20) \
         WITHIN 8000 EVENTS FROM EVERY 1000 EVENTS CONSUME ALL",
        "PATTERN (A SET(X1 X2 X3)) DEFINE A AS (A.symbol == SYM('LEAD')), \
         X1 AS (X1.symbol == SYM('S1')), X2 AS (X2.symbol == SYM('S2')), \
         X3 AS (X3.symbol == SYM('S3')) WITHIN 1000 EVENTS FROM EVERY 100 EVENTS CONSUME ALL",
        "PATTERN (A !C B) DEFINE A AS (A.x == 1), C AS (C.x == 9), B AS (B.x == 2) \
         WITHIN 1 MIN FROM A SELECT EACH CONSUME (B)",
        "PATTERN (A B) DEFINE A AS (A.x > 0), B AS (B.x > A.x * 2) \
         WITHIN 10 EVENTS FROM EVERY 5 EVENTS",
        "PATTERN (A) DEFINE A AS (A.x + 2 * 3 == 7) WITHIN 10 EVENTS FROM EVERY 1 EVENTS",
        "QUOTA 5 WEIGHT 4 MAX_VERSIONS 64 MAX_QUERIES 2",
        "RETIRE 3",
    ];

    /// Tokens the fuzz inserts besides the seeds' own: extreme numbers,
    /// stray punctuation and quotes, and the other verbs.
    const EXTRA: [&str; 18] = [
        "(",
        ")",
        ",",
        ".",
        "'",
        "-",
        "!",
        "+",
        "*",
        "0",
        "-1",
        "1e308",
        "18446744073709551616",
        "99999999999 MIN",
        "DEPLOY TENANT",
        "PING",
        "DRAIN",
        "é",
    ];

    /// Splits `text` into words (alphanumerics, `_`, `.`), comparison
    /// operators and single other punctuation characters.
    fn tokens(text: &str) -> Vec<String> {
        let class = |c: char| match c {
            _ if c.is_alphanumeric() || c == '_' || c == '.' => 1,
            '<' | '>' | '=' => 2,
            _ => 0,
        };
        let mut out: Vec<String> = Vec::new();
        let mut prev = 0;
        for c in text.chars() {
            match out.last_mut() {
                Some(last) if prev != 0 && class(c) == prev => last.push(c),
                _ if c.is_whitespace() => {}
                _ => out.push(c.to_string()),
            }
            prev = if c.is_whitespace() { 0 } else { class(c) };
        }
        out
    }

    /// No mutation of the parser tests' queries or of the control lines
    /// panics `parse_line` (verb split, `parse_deploy`, `parse_quota`) or
    /// `parse_query`: seeded token deletions, insertions, swaps and
    /// truncations, each case a `DEPLOY` line, a bare query or a control
    /// line.
    #[test]
    fn mutated_queries_and_control_lines_never_panic_the_parsers() {
        let seeds: Vec<Vec<String>> = SEEDS.iter().map(|s| tokens(s)).collect();
        for seed in &seeds[..6] {
            parse_query(&seed.join(" "), &mut Schema::new()).expect("the seeds parse");
        }
        let pool: Vec<String> = (seeds.iter().flatten().cloned())
            .chain(EXTRA.iter().map(|s| s.to_string()))
            .collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut deployed, mut parsed) = (0, 0);
        for case in 0..20_000 {
            let mut toks = seeds[case % seeds.len()].clone();
            for _ in 0..1 + below(4) {
                let n = toks.len();
                match below(4) {
                    0 if n > 0 => {
                        toks.remove(below(n));
                    }
                    1 => toks.insert(below(n + 1), pool[below(pool.len())].clone()),
                    2 if n > 1 => toks.swap(below(n), below(n)),
                    _ => toks.truncate(below(n + 1)),
                }
            }
            let text = toks.join(if below(8) == 0 { "" } else { " " });
            let line = match (case % seeds.len() < 6, below(3)) {
                (true, 0) => format!("DEPLOY TENANT {} {text}", below(3)),
                (true, 1) => format!("DEPLOY {text}"),
                _ => text.clone(),
            };
            if let Ok(Command::Engine(ControlCmd::Deploy { text, .. })) = parse_line(&line) {
                deployed += 1;
                parsed += usize::from(parse_query(&text, &mut Schema::new()).is_ok());
            }
            parsed += usize::from(parse_query(&text, &mut Schema::new()).is_ok());
        }
        // The fuzz reached the query parser through DEPLOY, and some
        // mutants still parse, so it is not all rejected at the first token.
        assert!(deployed > 1_000 && parsed > 100, "{deployed} {parsed}");
    }
}
